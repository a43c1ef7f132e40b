"""Seeded config generators for the three benchmark workloads.

Each generator maps (seed, count) to a list of JSON-ready qcle configs. The
program only ever sees these configs; the seed fixes every value in them.
Ranges stay in the presets' neighbourhood, where both recursions converge.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

CLASSICAL_NU = 1e4
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _config(eta, alpha, eps, gamma, temp, nu, t_max, n_t, **extra) -> dict:
    cfg = {
        "potential": {"eta": eta, "alpha": alpha, "epsilon": eps, "f0": 0.1},
        "bath": {"gamma": gamma, "temp": temp, "nu": nu},
        "initial": {"q0": 1.0, "v0": 0.0},
        "time_grid": {"t_max": t_max, "n": n_t},
    }
    for section, values in extra.items():
        cfg[section] = values
    return cfg


def classical_chain(rng: np.random.Generator, count: int) -> list[dict]:
    """Full deterministic path on one classical parameter point per solve.

    Every fourth config is harmonic (alpha = 0), so each run mixes the
    one-application susceptibility solve with the 15-44 application ones.
    """
    out = []
    for i in range(count):
        gamma = float(rng.uniform(0.8, 2.0))
        temp = float(rng.uniform(0.2, 0.5))
        alpha = 0.0 if i % 4 == 2 else float(rng.uniform(0.1, 0.3))
        out.append(_config(
            1.0, alpha, 0.0, gamma, temp, CLASSICAL_NU, 15.0, 1501,
            freq_grid={"omega_max": 800.0, "n": 32001},
            tolerances={"djm_tol": 1e-9, "djm_k_max": 60,
                        "response_window": 2.5},
            integrator={"dt_sub": 0.002}))
    return out


def quantum_response(rng: np.random.Generator, count: int) -> list[dict]:
    """Quantum-nu response with an explicit omega_max = 300 UV cutoff.

    quad_rtol = 0.1 is the route the QuadratureError message prescribes:
    at the default 1e-3 every nu <= 100 is rejected as cutoff-sensitive.
    """
    # log nu walks a randomly shifted golden-ratio sequence, so every prefix
    # of the list spreads evenly over [1, 20] and the 250-5000 Matsubara
    # terms are sampled alike by short and long runs
    shift = rng.uniform()
    out = []
    for i in range(count):
        nu = 20.0 ** ((shift + i * GOLDEN) % 1.0)
        gamma = float(rng.uniform(0.8, 2.0))
        temp = float(rng.uniform(0.2, 1.0))
        alpha = float(rng.uniform(0.1, 0.3))
        out.append(_config(
            1.0, alpha, 0.0, gamma, temp, nu, 15.0, 3001,
            tolerances={"djm_tol": 1e-9, "djm_k_max": 60,
                        "response_window": 2.5, "quad_omega_max": 300.0,
                        "quad_rtol": 0.1},
            integrator={"dt_sub": 5e-4}))
    return out


MC_CLASSES = ("harmonic", "quartic", "tilted")
# index of the one quantum-nu config per run; it needs a longer synthesis FFT
MC_QUANTUM_INDEX = 1


def mc_ensemble(rng: np.random.Generator, count: int) -> list[dict]:
    """MC oracle only; harmonic, quartic and tilted double-well configs in
    equal, cycled proportions, all at nu = 1e4 except one per run."""
    out = []
    for i in range(count):
        kind = MC_CLASSES[i % len(MC_CLASSES)]
        temp = float(rng.uniform(0.2, 0.5))
        nu = float(rng.uniform(2.0, 20.0)) if i == MC_QUANTUM_INDEX else CLASSICAL_NU
        mc = {"n_paths": 2000, "seed": int(rng.integers(2**31)), "f0_kick": 0.1}
        if kind == "tilted":
            eps = float(rng.uniform(0.1, 0.3))
            cfg = _config(-1.0, 1.0, eps, 2.0, temp, nu, 3.0, 601,
                          mc=dict(mc, f0_kick=0.05))
        else:
            gamma = float(rng.uniform(0.8, 2.0))
            alpha = 0.0
            if kind == "quartic":
                alpha = float(rng.uniform(0.1, 0.3))
                mc["thermal_v0"] = True
            cfg = _config(1.0, alpha, 0.0, gamma, temp, nu, 15.0, 1501, mc=mc)
        out.append(cfg)
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    subcommands: tuple[str, ...]
    generate: Callable[[np.random.Generator, int], list[dict]]
    # solves per second measured on the reference machine (perfbench/README.md);
    # it sizes the fixed number of configs a run solves
    reference_rate: float


WORKLOADS = {w.name: w for w in (
    Workload("classical-chain",
             ("kernels", "moments", "response", "susceptibility"),
             classical_chain, 0.125),
    Workload("quantum-response", ("response",), quantum_response, 0.2),
    Workload("mc-ensemble", ("mc",), mc_ensemble, 0.36),
)}


def solve_count(workload: str, seconds: float) -> int:
    """How many configs a run of `seconds` solves: the same number for the
    parent and for a change, so both time the same configs of a seed."""
    return max(1, round(seconds * WORKLOADS[workload].reference_rate))


def generate(workload: str, seed: int, count: int) -> list[dict]:
    """The first `count` configs of `workload` for `seed`; a longer list
    extends a shorter one with the same seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(workload.encode())]))
    return WORKLOADS[workload].generate(rng, count)
