"""Outside-in tracing: thin wrappers around qcle's public functions.

Each wrapper is installed by rebinding a public name in the namespace its
caller looks it up in (`qcle.cli.variance`, `qcle.mc.integrate_qcle`, ...),
so qcle's source is never edited and the wrapped call is unchanged. Spans
(name, start, end, parent, solve id, work counts) are kept in memory and
reduced to per-layer metrics when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: Optional[int] = None
    solve: Optional[int] = None
    counts: dict = field(default_factory=dict)


def _n_sub(dt: float, dt_sub: float) -> int:
    # integrate_duffing's substep rule
    return max(1, int(math.ceil(dt / dt_sub - 1e-12)))


def _applications(sol) -> int:
    return len(sol.term_norms) - 1


# Work counts from a call's bound arguments `a` and its return value `r`.
def _variance_counts(a, r):
    return {"cells": a["grid"].n * a["quad"].n, "n_t": a["grid"].n}


def _djm_counts(a, r):
    return {"applications": _applications(r), "converged": int(r.converged)}


def _windowed_counts(a, r):
    return {"windows": len(r[1]), "applications": sum(map(_applications, r[1]))}


def _duffing_counts(a, r):
    grid = a["problem"].grid
    return {"substeps": (grid.n - 1) * _n_sub(grid.dt, a["dt_sub"])}


def _susceptibility_counts(a, r):
    return {"applications": _applications(r[1]), "nodes": a["problem"].grid.n}


def _write_csv_counts(a, r):
    return {"bytes": Path(a["path"]).stat().st_size}


def _integrate_qcle_counts(a, r):
    n_paths, n = r.trajectories.shape
    return {"path_steps": n_paths * (n - 1), "paths": n_paths,
            "excluded": r.n_excluded}


# (layer name, [(module, attribute), ...], counts). Every listed namespace of
# a layer is rebound to the same wrapper.
TARGETS: list[tuple[str, list[tuple[str, str]], Optional[Callable]]] = [
    ("cli.main", [("qcle.cli", "main")], None),
    ("cli.parse_config", [("qcle.cli", "parse_config")], None),
    ("cli.write_csv", [("qcle.cli", "write_csv")], _write_csv_counts),
    ("cli.write_manifest", [("qcle.cli", "write_manifest")], None),
    ("moments.variance", [("qcle.cli", "variance"), ("qcle.moments", "variance")],
     _variance_counts),
    ("moments.mean_trajectory", [("qcle.cli", "mean_trajectory")],
     lambda a, r: {"applications": _applications(r[1])}),
    ("moments.variance_spectrum", [("qcle.cli", "variance_spectrum")],
     lambda a, r: {"nodes": a["grid"].n}),
    ("kernels.xi_q0_weights", [("qcle.kernels", "xi_q0_weights")],
     lambda a, r: {"terms": r[0].size}),
    ("djm.djm_solve", [("qcle.moments", "djm_solve"), ("qcle.response", "djm_solve"),
                       ("qcle.susceptibility", "djm_solve")], _djm_counts),
    ("response.solve_response_windowed", [("qcle.cli", "solve_response_windowed")],
     _windowed_counts),
    ("response.integrate_duffing", [("qcle.cli", "integrate_duffing")],
     _duffing_counts),
    ("response.ode_residual", [("qcle.cli", "ode_residual")], None),
    ("susceptibility.solve_susceptibility", [("qcle.cli", "solve_susceptibility")],
     _susceptibility_counts),
    ("susceptibility.psi_operator", [("qcle.susceptibility", "psi_operator")], None),
    ("susceptibility.response_from_susceptibility",
     [("qcle.cli", "response_from_susceptibility")],
     lambda a, r: {"terms": a["chi"].grid.n * a["tgrid"].n}),
    ("numutil.phase_stepped_sum", [("qcle.moments", "phase_stepped_sum"),
                                   ("qcle.susceptibility", "phase_stepped_sum")],
     lambda a, r: {"terms": len(a["coeffs"]) * len(a["ys"])}),
    ("numutil.linear_convolve", [("qcle._numutil", "linear_convolve"),
                                 ("qcle.susceptibility", "linear_convolve")],
     lambda a, r: {"points": len(a["a"]) + len(a["b"]) - 1}),
    ("mc.sample_noise", [("qcle.cli", "sample_noise"), ("qcle.mc", "sample_noise")],
     lambda a, r: {"samples": r.values.size}),
    ("mc.integrate_qcle", [("qcle.cli", "integrate_qcle"), ("qcle.mc", "integrate_qcle")],
     _integrate_qcle_counts),
    ("mc.estimate_moments", [("qcle.cli", "estimate_moments")], None),
    ("mc.estimate_response", [("qcle.cli", "estimate_response")], None),
]


class Tracer:
    """Records spans around wrapped calls; install() and uninstall() rebind
    the public names and restore the originals."""

    def __init__(self):
        self.spans: list[Span] = []
        self.solve: Optional[int] = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, counts: Optional[Callable] = None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else None,
                        solve=self.solve)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counts(bound.arguments, result)
            return result
        return wrapper

    def install(self, targets=TARGETS):
        for name, places, counts in targets:
            mod, attr = places[0]
            wrapper = self.wrap(name, getattr(importlib.import_module(mod), attr),
                                counts)
            for mod, attr in places:
                module = importlib.import_module(mod)
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its direct children's
    intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(i, [])):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


# quantities reported per layer, in report order
LAYERS = {
    "moments.variance": ["self_s", "calls", "cells", "cells_per_s", "matsubara_cells"],
    "kernels.xi_q0_weights": ["terms"],
    "moments.mean_trajectory": ["self_s", "applications"],
    "moments.variance_spectrum": ["self_s", "nodes"],
    "djm.djm_solve": ["calls", "applications", "converged_frac", "self_s"],
    "response.solve_response_windowed": ["self_s", "windows", "applications"],
    "response.integrate_duffing": ["self_s", "substeps", "substeps_per_s"],
    "response.ode_residual": ["self_s"],
    "susceptibility.solve_susceptibility": ["self_s", "applications", "nodes"],
    "susceptibility.psi_operator": ["self_s", "calls"],
    "susceptibility.response_from_susceptibility": ["self_s", "terms"],
    "numutil.phase_stepped_sum": ["self_s", "terms"],
    "numutil.linear_convolve": ["self_s", "calls", "points"],
    "mc.sample_noise": ["self_s", "samples", "samples_per_s"],
    "mc.integrate_qcle": ["self_s", "path_steps", "path_steps_per_s", "excluded_frac"],
    "mc.estimate_moments": ["self_s"],
    "mc.estimate_response": ["self_s"],
    "cli.main": ["self_s"],
    "cli.parse_config": ["self_s"],
    "cli.write_csv": ["self_s", "bytes", "bytes_per_s"],
    "cli.write_manifest": ["self_s"],
}
# rates: count per second of the layer's self time
RATES = {"cells_per_s": "cells", "substeps_per_s": "substeps",
         "samples_per_s": "samples", "path_steps_per_s": "path_steps",
         "bytes_per_s": "bytes"}


def _unit_better(quantity: str) -> tuple[str, str]:
    if quantity == "self_s":
        return "s", "lower"
    if quantity in RATES:
        return ("B/s" if quantity == "bytes_per_s" else "1/s"), "higher"
    if quantity == "converged_frac":
        return "ratio", "higher"
    if quantity == "excluded_frac":
        return "ratio", "lower"
    return ("B" if quantity == "bytes" else "count"), "lower"


# per-layer metrics: name -> (unit, better)
PER_LAYER = {f"{layer}.{q}": _unit_better(q)
             for layer, quantities in LAYERS.items() for q in quantities}
PER_LAYER["trace.solve_s_p50"] = ("s", "lower")


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer: calls, summed self time and summed work counts."""
    totals: dict[str, dict[str, float]] = {}
    for span, self_s in zip(spans, self_times(spans)):
        t = totals.setdefault(span.name, {"calls": 0, "self_s": 0.0})
        t["calls"] += 1
        t["self_s"] += self_s
        for key, val in span.counts.items():
            t[key] = t.get(key, 0) + val
        if span.name == "kernels.xi_q0_weights" and span.parent is not None \
                and spans[span.parent].name == "moments.variance":
            v = totals.setdefault("moments.variance", {"calls": 0, "self_s": 0.0})
            v["matsubara_cells"] = v.get("matsubara_cells", 0) \
                + spans[span.parent].counts["n_t"] * span.counts["terms"]
    return totals


def per_layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every PER_LAYER metric except the trace.* ones; layers a run never
    called read 0."""
    totals = layer_totals(spans)
    out = {}
    for layer, quantities in LAYERS.items():
        t = totals.get(layer, {})
        for quantity in quantities:
            out[f"{layer}.{quantity}"] = _quantity(t, quantity)
    return out


def _quantity(t: dict, quantity: str) -> float:
    if quantity in RATES:
        self_s = t.get("self_s", 0.0)
        return t.get(RATES[quantity], 0) / self_s if self_s > 0 else 0.0
    if quantity == "converged_frac":
        return t["converged"] / t["calls"] if t.get("calls") else 0.0
    if quantity == "excluded_frac":
        return t["excluded"] / t["paths"] if t.get("paths") else 0.0
    return t.get(quantity, 0)
