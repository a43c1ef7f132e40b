"""Exact rescalings of the equation as bit-exact oracles of every route.

qdd = -gamma qd - eta q - alpha q^3 - eps + xi keeps its form under

- amplitude by lam: q0, v0, epsilon, f0 and f0_kick times lam, temp times
  lam^2, alpha over lam^2; then the mean scales by lam, the variance and
  its spectrum by lam^2, and R, chi and r_hat stay;
- time by s: t_max, response_window and dt_sub over s; gamma, nu, v0, f0,
  f0_kick, omega_max and quad_omega_max times s; eta, alpha, epsilon and
  temp times s^2; then t scales by 1/s and omega by s, the mean and the
  variance stay, the variance spectrum and R and r_hat scale by 1/s, and
  chi by 1/s^2.

A power of 2 scales every float product exactly, so at lam = s = 2 the
relations hold bit for bit: the noise amplitudes, thermal velocities,
propagator constants and every step of the MC pass, and every quadrature
node, kernel value and recursion term of the deterministic routes, scale by
a power of 2.

djm_tol and edge_tol are absolute, so a twin whose solution scales stops its
recursion at another term, or meets the edge test differently, unless they
scale with it: the twins scale djm_tol with the mean (lam), with R (1/s) and
with chi (1/s^2), and edge_tol with chi (1/s^2). A relative stopping rule
for the recursions (ROADMAP, "One relative stopping rule") removes that
scaling.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from qcle.cli import SCHEMA, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PRESETS = ["bistable", "asymmetric_bistable"]
SYMMETRIES = {
    "amplitude": {"initial.q0": 1, "initial.v0": 1, "potential.epsilon": 1,
                  "potential.f0": 1, "mc.f0_kick": 1, "bath.temp": 2,
                  "potential.alpha": -2},
    "time": {"time_grid.t_max": -1, "tolerances.response_window": -1,
             "integrator.dt_sub": -1, "bath.gamma": 1, "bath.nu": 1,
             "initial.v0": 1, "potential.f0": 1, "mc.f0_kick": 1,
             "freq_grid.omega_max": 1, "tolerances.quad_omega_max": 1,
             "potential.eta": 2, "potential.alpha": 2, "potential.epsilon": 2,
             "bath.temp": 2},
}
# the absolute tolerances, scaled with the solution they bound
TOLERANCES = {
    ("amplitude", "moments"): {"tolerances.djm_tol": 1},
    ("time", "response"): {"tolerances.djm_tol": -1},
    ("time", "susceptibility"): {"tolerances.djm_tol": -2, "tolerances.edge_tol": -2},
}
# the factor of each CSV column of the twin
EXPECTED = {
    "amplitude": {
        "moments": {"t": 1, "mean": 2, "variance": 4, "omega": 1, "re": 4, "im": 4},
        "response": {"t": 1, "r_recursion": 1, "r_integrator": 1},
        "susceptibility": {"omega": 1, "re": 1, "im": 1, "t": 1, "r": 1},
        "mc": {"t": 1, "mean": 2, "stderr_mean": 2, "variance": 4,
               "stderr_variance": 4, "r_hat": 1, "stderr": 1},
    },
    "time": {
        "moments": {"t": 0.5, "mean": 1, "variance": 1, "omega": 2, "re": 0.5,
                    "im": 0.5},
        "response": {"t": 0.5, "r_recursion": 0.5, "r_integrator": 0.5},
        "susceptibility": {"omega": 2, "re": 0.25, "im": 0.25, "t": 0.5, "r": 0.5},
        "mc": {"t": 0.5, "mean": 1, "stderr_mean": 1, "variance": 1,
               "stderr_variance": 1, "r_hat": 0.5, "stderr": 0.5},
    },
}
# the runs that stop early, with their exit code and the columns they wrote
# first: asymmetric_bistable's variance has no plateau by t_max (exit 3)
# after moments.csv; every other run exits 0 with all its columns
STOPPED = {
    ("asymmetric_bistable", "moments"): (3, {"t", "mean", "variance"}),
    ("asymmetric_bistable", "susceptibility"): (3, set()),
}


def _preset(name):
    """The preset on 301 time nodes over its own horizon, 801 frequency
    nodes and 300 paths."""
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    cfg["time_grid"]["n"] = 301
    cfg["freq_grid"]["n"] = 801
    cfg["mc"]["n_paths"] = 300
    return cfg


def _scaled(cfg, powers, factor=2.0):
    """cfg with each key's value, or its default, times factor ** power."""
    out = json.loads(json.dumps(cfg))
    for key, power in powers.items():
        sec, _, field = key.partition(".")
        out[sec][field] = out[sec].get(field, SCHEMA[sec][field][1]) * factor**power
    return out


def _run(tmp_path, sub, cfg, tag):
    """Run `qcle sub` in-process on cfg: its exit code and the parsed
    columns of the CSVs it wrote."""
    path = tmp_path / f"{tag}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / tag
    code = main([sub, "--config", str(path), "--out", str(out)])
    cols = {}
    for csv in sorted(out.glob("*.csv")):
        with csv.open() as fh:
            header = fh.readline().strip().split(",")
        table = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
        cols.update(zip(header, table.T))
    return code, cols


def _assert_exact_twin(tmp_path, preset, sub, symmetry):
    """Run sub on the preset and on its twin: both give the expected exit
    code and columns, and every CSV column of the twin is the base column
    times its factor."""
    cfg = _preset(preset)
    twin = _scaled(cfg, {**SYMMETRIES[symmetry],
                         **TOLERANCES.get((symmetry, sub), {})})
    want_code, want_cols = STOPPED.get((preset, sub),
                                       (0, set(EXPECTED[symmetry][sub])))
    code, base = _run(tmp_path, sub, cfg, "base")
    twin_code, scaled = _run(tmp_path, sub, twin, "twin")
    assert code == twin_code == want_code
    assert set(base) == set(scaled) == want_cols
    for name in base:
        factor = EXPECTED[symmetry][sub][name]
        assert np.array_equal(scaled[name], base[name] * factor), name


@pytest.mark.parametrize("symmetry", SYMMETRIES)
@pytest.mark.parametrize("sub", ["moments", "response", "susceptibility"])
@pytest.mark.parametrize("preset", PRESETS)
def test_scaling_is_exact(tmp_path, preset, sub, symmetry):
    _assert_exact_twin(tmp_path, preset, sub, symmetry)


@pytest.mark.parametrize("preset", PRESETS)
def test_mc_amplitude_scaling_is_exact(tmp_path, preset):
    _assert_exact_twin(tmp_path, preset, "mc", "amplitude")


@pytest.mark.parametrize("preset", PRESETS)
def test_mc_time_scaling_is_exact(tmp_path, preset):
    _assert_exact_twin(tmp_path, preset, "mc", "time")
