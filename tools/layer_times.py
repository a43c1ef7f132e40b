"""Wall time of each Python-bound layer at fixed sizes, for one checkout.

    python3 tools/layer_times.py

Imports qcle from the `src/` of the checkout holding this script, on one
thread, and times each layer below as the best of 5 calls in this process:

- `integrate_duffing` on `configs/bistable.json` at dt_sub 2e-3 (the
  preset's) and 5e-4 (the quantum-response workload's);
- `solve_response_windowed` and `mean_trajectory` on the preset's time
  grid and variance, at its response_window, djm_tol and djm_k_max (and
  its q0, v0 for the mean);
- `integrate_duffing` at dt_sub 5e-4 and `solve_response_windowed` on the
  quantum-response workload's time grid (t_max 15, 3001 nodes), with the
  preset's potential and the nu = 1 bath and quadrature of `variance`;
- `variance_spectrum` of the preset's variance, `psi_operator` and
  `solve_susceptibility` (at the preset's djm_tol and djm_k_max) on that
  preset's 32001-node frequency grid, and `response_from_susceptibility`
  of the solved chi on its time grid;
- `write_csv` of a 32001 x 4 table of the preset's frequency kernels
  (omega, chi_tilde, noise_psd), which is mirrored, so it formats its
  omega >= 0 half once; of the same columns with omega shifted by one node,
  which is not, so every row takes the plain path; and of a 32001 x 4 table
  of subnormals, which all take the `%` fallback;
- `variance` on the preset's time grid, classical and at nu = 1 (with the
  quantum-response workload's quadrature: omega_max 300, rtol 0.1);
- `sample_noise` and `integrate_qcle` at 2000 paths x 1501 nodes, and
  `estimate_mc` of the same noise, the one pass of `qcle mc` that steps the
  preset's moments ensemble and its kick pair (the preset's quartic
  potential, f0_kick and thermal v0) as one batch; `estimate_response` is
  not timed apart, as it is that pass;
- the block reducer of that pass alone, apart from the step loop:
  `_NodeMoments` over the preset's 1501 nodes, fed BLOCK_ROWS-row blocks
  of a (BLOCK_ROWS + 1, 3, 2000) ring of normals as the pass feeds it, the
  ensemble's row with its fourth moment and the pair's differences without;
- `sample_noise` and `estimate_mc` at 2000 paths x 601 nodes (dt 0.005,
  the preset's bath) in the tilted double well (eta = -1, alpha = 1,
  epsilon = 0.2), the grid of the benchmark's tilted MC configs.

Prints one JSON line: the checkout, the versions, the seconds per layer,
the operator applications of `mean_trajectory` and `solve_susceptibility`
and, from one more untimed call each, the `tracemalloc` peaks in MB of the
four frequency-grid layers, of `write_csv` on the kernels table and on its
shifted twin, and of a whole `qcle mc` run on the preset.
Each checkout is timed with its own copy of the tool, which calls that
checkout's API; compare two by running each copy, one after the other:

    python3 /path/to/parent/tools/layer_times.py
    python3 tools/layer_times.py
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

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
QUANTUM_GRID = (15.0, 3001)  # t_max, n
TILTED_GRID = (3.0, 601)
TILTED = {"eta": -1.0, "alpha": 1.0, "epsilon": 0.2}


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


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    config = root / "configs" / f"{PRESET}.json"
    if not (root / "src" / "qcle" / "__init__.py").is_file() or not config.is_file():
        print(f"no src/qcle or configs/{PRESET}.json under {root}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    import numpy as np

    from qcle import TimeGrid, kernels
    from qcle.cli import main as cli_main
    from qcle.cli import parse_config, write_csv
    from qcle.mc import (BLOCK_ROWS, _NodeMoments, estimate_mc, integrate_qcle,
                         sample_noise)
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
    response = ResponseProblem(cfg.potential, cfg.bath, sig2)
    plateau_tol, edge_tol = cfg.settings["plateau_tol"], cfg.settings["edge_tol"]
    spec2 = variance_spectrum(sig2, fg, plateau_tol=plateau_tol)
    susc = SusceptibilityProblem(cfg.potential, cfg.bath, spec2)
    chi = phi_omega(susc)
    chit = kernels.chi_tilde(fg.omegas, cfg.bath.gamma, cfg.potential.eta)
    table = [fg.omegas, chit.real, chit.imag,
             kernels.noise_psd(fg.omegas, cfg.bath.gamma, cfg.bath.temp, cfg.bath.nu)]
    shifted = [fg.omegas + fg.d_omega, *table[1:]]
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
    def mean():
        return mean_trajectory(cfg.q0, cfg.v0, cfg.potential, cfg.bath, sig2,
                               cfg.settings["response_window"], tol, k_max)
    seconds[f"mean_trajectory n={grid.n}"] = best_of(mean)
    quantum_grid = TimeGrid(*QUANTUM_GRID)
    quantum_response = ResponseProblem(
        cfg.potential, quantum,
        variance(quantum_grid, quantum, cfg.potential, quad=quantum_quad))
    name = f"n={quantum_grid.n} nu=1"
    seconds[f"integrate_duffing dt_sub=0.0005 {name}"] = best_of(
        lambda: integrate_duffing(quantum_response, dt_sub=5e-4))
    seconds[f"solve_response_windowed {name}"] = best_of(
        lambda: solve_response_windowed(quantum_response,
                                        cfg.settings["response_window"], tol, k_max))
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
        for key, cols in ((name, table), (f"{name} shifted", shifted),
                          (f"{name} subnormal", subnormals)):
            seconds[key] = best_of(lambda: write_csv(path, ["a", "b", "c", "d"], cols))
        for key, cols in ((name, table), (f"{name} shifted", shifted)):
            peaks[key] = peak_mb(lambda: write_csv(path, ["a", "b", "c", "d"], cols))
    seconds[f"variance n={grid.n} classical"] = best_of(
        lambda: variance(grid, cfg.bath, cfg.potential, quad=cfg.quad))
    seconds[f"variance n={grid.n} nu=1"] = best_of(
        lambda: variance(grid, quantum, cfg.potential, quad=quantum_quad))
    seconds[f"sample_noise {N_PATHS}x{grid.n}"] = best_of(
        lambda: sample_noise(grid, cfg.bath, N_PATHS, MC_SEED))
    seconds[f"integrate_qcle {N_PATHS}x{grid.n}"] = best_of(
        lambda: integrate_qcle(noise, cfg.potential, q0=cfg.q0, v0=cfg.v0))
    seconds[f"estimate_mc {N_PATHS}x{grid.n}"] = best_of(
        lambda: estimate_mc(noise, cfg.potential, cfg.q0, cfg.v0,
                            cfg.settings["f0_kick"], cfg.settings["thermal_v0"]))
    ring = np.random.default_rng(MC_SEED).standard_normal((BLOCK_ROWS + 1, 3, N_PATHS))

    def reduce_blocks():
        moments = _NodeMoments(grid.n, None, fourth=True)
        pair = _NodeMoments(grid.n, None, fourth=False)
        for j0 in range(0, grid.n, BLOCK_ROWS):
            rows = ring[:min(BLOCK_ROWS, grid.n - j0)]
            moments.add(j0, rows[:, 0])
            pair.add(j0, rows[:, -1] - rows[:, -2])
    seconds[f"_NodeMoments ring {N_PATHS}x{grid.n}"] = best_of(reduce_blocks)
    tilted_grid = TimeGrid(*TILTED_GRID)
    tilted = replace(cfg.potential, **TILTED)
    tilted_noise = sample_noise(tilted_grid, cfg.bath, N_PATHS, MC_SEED)
    seconds[f"sample_noise {N_PATHS}x{tilted_grid.n} tilted"] = best_of(
        lambda: sample_noise(tilted_grid, cfg.bath, N_PATHS, MC_SEED))
    seconds[f"estimate_mc {N_PATHS}x{tilted_grid.n} tilted"] = best_of(
        lambda: estimate_mc(tilted_noise, tilted, cfg.q0, cfg.v0,
                            cfg.settings["f0_kick"], cfg.settings["thermal_v0"]))
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
    sys.exit(main())
