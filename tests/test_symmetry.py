"""Exact rescalings of the equation as bit-exact oracles of the MC route.

qdd = -gamma qd - eta q - alpha q^3 - eps + xi keeps its form under

- amplitude by lam: q0, v0, epsilon, f0 and f0_kick times lam, temp times
  lam^2, alpha over lam^2; then the mean scales by lam, the variance by
  lam^2, and r_hat stays;
- time by s: t_max over s, gamma, nu, v0, f0 and f0_kick times s, eta,
  alpha, epsilon and temp times s^2; then t scales by 1/s, the mean and the
  variance stay, and r_hat scales by 1/s.

A power of 2 scales every float product exactly, so at lam = s = 2 the
relations hold bit for bit: the noise amplitudes, thermal velocities,
propagator constants and every step of the pass scale by a power of 2.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from qcle.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PRESETS = ["bistable", "asymmetric_bistable"]
AMPLITUDE = {"initial.q0": 1, "initial.v0": 1, "potential.epsilon": 1,
             "potential.f0": 1, "mc.f0_kick": 1, "bath.temp": 2, "potential.alpha": -2}
TIME = {"time_grid.t_max": -1, "bath.gamma": 1, "bath.nu": 1, "initial.v0": 1,
        "potential.f0": 1, "mc.f0_kick": 1, "potential.eta": 2, "potential.alpha": 2,
        "potential.epsilon": 2, "bath.temp": 2}


def _preset(name):
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    cfg["time_grid"] = {"t_max": 3.0, "n": 301}
    cfg["mc"]["n_paths"] = 300
    return cfg


def _scaled(cfg, powers, factor=2.0):
    """cfg with each key's value times factor ** power."""
    out = json.loads(json.dumps(cfg))
    for key, power in powers.items():
        sec, _, field = key.partition(".")
        out[sec][field] *= factor**power
    return out


def _mc_columns(tmp_path, cfg, tag):
    """Run qcle mc in-process on cfg; the parsed columns of both CSVs."""
    path = tmp_path / f"{tag}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / tag
    assert main(["mc", "--config", str(path), "--out", str(out)]) == 0
    cols = {}
    for name in ("mc_moments.csv", "mc_response.csv"):
        with (out / name).open() as fh:
            header = fh.readline().strip().split(",")
        table = np.loadtxt(out / name, delimiter=",", skiprows=1, ndmin=2)
        cols.update(zip(header, table.T))
    return cols


@pytest.mark.parametrize("preset", PRESETS)
def test_mc_amplitude_scaling_is_exact(tmp_path, preset):
    cfg = _preset(preset)
    base = _mc_columns(tmp_path, cfg, "base")
    big = _mc_columns(tmp_path, _scaled(cfg, AMPLITUDE), "scaled")
    expected = {"t": 1, "mean": 2, "stderr_mean": 2, "variance": 4,
                "stderr_variance": 4, "r_hat": 1, "stderr": 1}
    assert set(base) == set(expected)
    for name, factor in expected.items():
        assert np.array_equal(big[name], base[name] * factor), name


@pytest.mark.parametrize("preset", PRESETS)
def test_mc_time_scaling_is_exact(tmp_path, preset):
    cfg = _preset(preset)
    base = _mc_columns(tmp_path, cfg, "base")
    fast = _mc_columns(tmp_path, _scaled(cfg, TIME), "scaled")
    expected = {"t": 0.5, "mean": 1, "stderr_mean": 1, "variance": 1,
                "stderr_variance": 1, "r_hat": 0.5, "stderr": 0.5}
    assert set(base) == set(expected)
    for name, factor in expected.items():
        assert np.array_equal(fast[name], base[name] * factor), name
