"""Smoke tests of the benchmark's own parts, at tiny sizes:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import copy
import json

import numpy as np
import pytest

from perfbench import checks, tracing
from perfbench.run import solve
from perfbench.workloads import MC_QUANTUM_INDEX, WORKLOADS, generate

import qcle.cli

TINY = {
    "classical-chain": {"time_grid.n": 301, "tolerances.quad_n": 1501,
                        "freq_grid": {"omega_max": 400.0, "n": 8001}},
    "quantum-response": {"time_grid.n": 301, "tolerances.quad_n": 1501},
    "mc-ensemble": {"time_grid.n": 121, "mc.n_paths": 200},
}


def tiny_config(workload: str, index: int = 0) -> dict:
    cfg = copy.deepcopy(generate(workload, 3, index + 1)[index])
    for key, val in TINY[workload].items():
        sec, _, name = key.partition(".")
        if name:
            cfg[sec][name] = val
        else:
            cfg[sec] = val
    return cfg


def tiny_solve(workload, cfg, tmp_path, name="out"):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / name
    wall, error, digests = solve(qcle.cli, workload, cfg, path, out)
    return out, error, digests


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    a = generate(workload, 7, 12)
    assert a == generate(workload, 7, 12)
    assert a != generate(workload, 8, 12)
    assert a[:5] == generate(workload, 7, 5)
    json.dumps(a)  # JSON-ready


def test_generator_ranges():
    for cfg in generate("classical-chain", 11, 40):
        assert 0.8 <= cfg["bath"]["gamma"] <= 2.0
        assert 0.2 <= cfg["bath"]["temp"] <= 0.5
        alpha = cfg["potential"]["alpha"]
        assert alpha == 0.0 or 0.1 <= alpha <= 0.3
        assert cfg["freq_grid"] == {"omega_max": 800.0, "n": 32001}
    nus = [c["bath"]["nu"] for c in generate("quantum-response", 11, 40)]
    assert min(nus) >= 1.0 and max(nus) <= 20.0
    # the first five nu already cover low, middle and high thirds of log nu
    thirds = {int(3 * np.log(nu) / np.log(20.0)) for nu in nus[:5]}
    assert thirds == {0, 1, 2}
    mc = generate("mc-ensemble", 11, 40)
    quantum = [i for i, c in enumerate(mc) if c["bath"]["nu"] != 1e4]
    assert quantum == [MC_QUANTUM_INDEX]
    assert 2.0 <= mc[MC_QUANTUM_INDEX]["bath"]["nu"] <= 20.0
    assert all(c["mc"]["n_paths"] == 2000 for c in mc)


def _corrupt(path, column, row, value):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = value(float(cells[header.index(column)]))
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


CORRUPTIONS = [
    ("classical-chain", 0, "moments/moments.csv", "variance", 0, lambda v: "1e-3"),
    ("classical-chain", 0, "moments/moments.csv", "variance", 50, lambda v: "-1e-6"),
    ("classical-chain", 0, "susceptibility/response_reconstructed.csv", "r", 40,
     lambda v: repr(v + 2e-3)),
    ("classical-chain", 0, "kernels/kernels_freq.csv", "noise_psd", 3, lambda v: "nan"),
    ("quantum-response", 0, "response/response.csv", "r_integrator", 100,
     lambda v: repr(v + 2e-3)),
    ("mc-ensemble", 0, "mc/mc_moments.csv", "mean", 60, lambda v: repr(v + 1.0)),
    ("mc-ensemble", 0, "mc/mc_response.csv", "r_hat", 60, lambda v: repr(v + 1e-6)),
    ("mc-ensemble", 1, "mc/mc_moments.csv", "variance", 10, lambda v: "inf"),
]


@pytest.mark.parametrize("workload,index,csv,column,row,value", CORRUPTIONS)
def test_checks_reject_corrupted_csv(tmp_path, workload, index, csv, column,
                                     row, value):
    cfg = tiny_config(workload, index)
    out, error, _ = tiny_solve(workload, cfg, tmp_path)
    assert error is None
    _corrupt(out / csv, column, row, value)
    with pytest.raises(checks.CheckError):
        checks.CHECKS[workload](cfg, out)


def test_self_time_of_nested_spans():
    S = tracing.Span
    spans = [S("root", 0.0, 10.0),
             S("a", 1.0, 4.0, parent=0), S("a.x", 2.0, 3.0, parent=1),
             S("b", 5.0, 6.0, parent=0),
             S("c", 7.0, 9.0, parent=0), S("c.y", 7.5, 8.5, parent=4),
             S("c.z", 8.0, 8.8, parent=4)]
    assert tracing.self_times(spans) == pytest.approx(
        [10.0 - 3.0 - 1.0 - 2.0, 2.0, 1.0, 1.0, 2.0 - 1.3, 1.0, 0.8])
    totals = tracing.layer_totals(spans)
    assert totals["c.y"] == {"calls": 1, "self_s": pytest.approx(1.0)}


def test_tracer_is_transparent(tmp_path):
    cfg = tiny_config("classical-chain", 1)
    _, error, plain = tiny_solve("classical-chain", cfg, tmp_path, "plain")
    original = qcle.cli.variance
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.solve = 0
        _, traced_error, traced = tiny_solve("classical-chain", cfg, tmp_path, "traced")
    finally:
        tracer.uninstall()
    assert error is None and traced_error is None
    assert traced == plain and len(plain) == 7
    assert qcle.cli.variance is original
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"] * 4
    metrics = tracing.per_layer_metrics(tracer.spans)
    assert set(metrics) == {k for k in tracing.PER_LAYER if not k.startswith("trace.")}
    assert metrics["moments.variance.calls"] == 3
    assert metrics["moments.variance.cells"] == 3 * 301 * 1501
    assert metrics["mc.integrate_qcle.path_steps"] == 0
    assert metrics["djm.djm_solve.converged_frac"] == 1.0
