"""Wall time of each Python-bound layer at fixed sizes, for one checkout.

    python3 tools/layer_times.py [CHECKOUT]

Imports qcle from CHECKOUT's `src/` (default: the checkout holding this
script), on one thread, and times each layer below as the best of 5 calls
in this process:

- `integrate_duffing` on `configs/bistable.json` at dt_sub 2e-3 (the
  preset's) and 5e-4 (the quantum-response workload's);
- `solve_response_windowed` and `mean_trajectory` on the preset's time
  grid and variance, at its response_window, djm_tol and djm_k_max (and
  its q0, v0 for the mean; a checkout whose mean takes no window solves it
  in one recursion);
- `variance_spectrum` of the preset's variance, `psi_operator` and
  `solve_susceptibility` (at the preset's djm_tol and djm_k_max) on that
  preset's 32001-node frequency grid, and `response_from_susceptibility`
  of the solved chi on its time grid;
- `write_csv` of a 32001 x 4 table of the preset's frequency kernels
  (omega, chi_tilde, noise_psd), and of a 32001 x 4 table of subnormals,
  which all take the `%` fallback;
- `variance` on the preset's time grid, classical and at nu = 1 (with the
  quantum-response workload's quadrature: omega_max 300, rtol 0.1);
- `sample_noise` and `integrate_qcle` at 2000 paths x 1501 nodes,
  `estimate_response` of the same noise (the preset's quartic potential,
  f0_kick and thermal v0), and `estimate_mc`, the one pass of `qcle mc`
  that steps the preset's moments ensemble and that kick pair as one batch.

Prints one JSON line: the checkout, the versions, the seconds per layer,
the operator applications of `mean_trajectory` and `solve_susceptibility`
and, from one more untimed call each, the `tracemalloc` peaks in MB of the
four frequency-grid layers, of `write_csv` on the kernels table and of a
whole `qcle mc` run on the preset.
Compare two checkouts by running it on each, one after the other.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import inspect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

REPEATS = 5
PRESET = "bistable"
N_PATHS = 2000
MC_SEED = 12345


def best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return round(tracemalloc.get_traced_memory()[1] / 1e6, 3)
    finally:
        tracemalloc.stop()


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent)
    config = root / "configs" / f"{PRESET}.json"
    if not (root / "src" / "qcle" / "__init__.py").is_file() or not config.is_file():
        print(f"no src/qcle or configs/{PRESET}.json under {root}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    import numpy as np

    from qcle import kernels, mc
    from qcle.cli import main as cli_main
    from qcle.cli import parse_config, write_csv
    from qcle.mc import estimate_response, integrate_qcle, sample_noise
    from qcle.moments import (SpectralQuadrature, mean_trajectory, variance,
                              variance_spectrum)
    from qcle.response import (ResponseProblem, integrate_duffing,
                               solve_response_windowed)
    from qcle.susceptibility import (SusceptibilityProblem, phi_omega, psi_operator,
                                     response_from_susceptibility,
                                     solve_susceptibility)

    cfg = parse_config(config)
    grid, fg = cfg.time_grid, cfg.freq_grid
    sig2 = variance(grid, cfg.bath, cfg.potential, quad=cfg.quad)
    response = ResponseProblem(cfg.potential, cfg.bath, sig2, grid)
    plateau_tol, edge_tol = cfg.settings["plateau_tol"], cfg.settings["edge_tol"]
    spec2 = variance_spectrum(sig2, fg, plateau_tol=plateau_tol)
    susc = SusceptibilityProblem(cfg.potential, cfg.bath, spec2, fg)
    chi = phi_omega(susc)
    chit = kernels.chi_tilde(fg.omegas, cfg.bath.gamma, cfg.potential.eta)
    table = [fg.omegas, chit.real, chit.imag,
             kernels.noise_psd(fg.omegas, cfg.bath.gamma, cfg.bath.temp, cfg.bath.nu)]
    subnormal = np.finfo(float).tiny * np.arange(1, fg.n + 1) / (fg.n + 1)
    subnormals = [subnormal, -subnormal, subnormal, -subnormal]
    quantum = replace(cfg.bath, nu=1.0)
    quantum_quad = SpectralQuadrature(300.0, cfg.quad.n, 0.1)
    noise = sample_noise(grid, cfg.bath, N_PATHS, MC_SEED)

    seconds = {}
    for dt_sub in (2e-3, 5e-4):
        seconds[f"integrate_duffing dt_sub={dt_sub:g}"] = best_of(
            lambda: integrate_duffing(response, dt_sub=dt_sub))
    tol, k_max = cfg.settings["djm_tol"], cfg.settings["djm_k_max"]
    seconds[f"solve_response_windowed n={grid.n}"] = best_of(
        lambda: solve_response_windowed(response, cfg.settings["response_window"],
                                        tol, k_max))
    if "window" in inspect.signature(mean_trajectory).parameters:
        def mean():
            return mean_trajectory(cfg.q0, cfg.v0, cfg.potential, cfg.bath, sig2,
                                   cfg.settings["response_window"], tol, k_max)
    else:  # checkouts before the windowed mean take the grid and no window
        def mean():
            return mean_trajectory(cfg.q0, cfg.v0, cfg.potential, cfg.bath, grid,
                                   sigma2=sig2, tol=tol, k_max=k_max)
    seconds[f"mean_trajectory n={grid.n}"] = best_of(mean)
    solved, susc_sol = solve_susceptibility(susc, tol, k_max)
    layers = {
        f"variance_spectrum n={fg.n}":
            lambda: variance_spectrum(sig2, fg, plateau_tol=plateau_tol),
        f"psi_operator n={fg.n}": lambda: psi_operator(chi, susc),
        f"solve_susceptibility n={fg.n}":
            lambda: solve_susceptibility(susc, tol, k_max),
        f"response_from_susceptibility {fg.n}x{grid.n}":
            lambda: response_from_susceptibility(solved, grid, edge_tol=edge_tol),
    }
    peaks = {}
    for name, fn in layers.items():
        seconds[name] = best_of(fn)
        peaks[name] = peak_mb(fn)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        name = f"write_csv {fg.n}x{len(table)}"
        for key, cols in ((name, table), (f"{name} subnormal", subnormals)):
            seconds[key] = best_of(lambda: write_csv(path, ["a", "b", "c", "d"], cols))
        peaks[name] = peak_mb(lambda: write_csv(path, ["a", "b", "c", "d"], table))
    seconds[f"variance n={grid.n} classical"] = best_of(
        lambda: variance(grid, cfg.bath, cfg.potential, quad=cfg.quad))
    seconds[f"variance n={grid.n} nu=1"] = best_of(
        lambda: variance(grid, quantum, cfg.potential, quad=quantum_quad))
    seconds[f"sample_noise {N_PATHS}x{grid.n}"] = best_of(
        lambda: sample_noise(grid, cfg.bath, N_PATHS, MC_SEED))
    seconds[f"integrate_qcle {N_PATHS}x{grid.n}"] = best_of(
        lambda: integrate_qcle(noise, cfg.potential, q0=cfg.q0, v0=cfg.v0))
    seconds[f"estimate_response {N_PATHS}x{grid.n}"] = best_of(
        lambda: estimate_response(cfg.potential, noise, cfg.settings["f0_kick"],
                                  cfg.settings["thermal_v0"]))
    if hasattr(mc, "estimate_mc"):  # checkouts before the one pass lack it
        seconds[f"estimate_mc {N_PATHS}x{grid.n}"] = best_of(
            lambda: mc.estimate_mc(noise, cfg.potential, cfg.q0, cfg.v0,
                                   cfg.settings["f0_kick"],
                                   cfg.settings["thermal_v0"]))
    with tempfile.TemporaryDirectory() as tmp:
        peaks[f"qcle mc {PRESET}"] = peak_mb(lambda: cli_main(
            ["mc", "--config", str(config), "--out", str(Path(tmp) / "mc")]))

    print(json.dumps({
        "checkout": str(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "best_of": REPEATS,
        "seconds": {k: round(v, 5) for k, v in seconds.items()},
        "applications": {f"mean_trajectory n={grid.n}": mean()[1].k - 1,
                         f"solve_susceptibility n={fg.n}": susc_sol.k - 1},
        "tracemalloc_peak_mb": peaks,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
