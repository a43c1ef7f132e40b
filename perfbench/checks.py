"""Output checks for one solve, at the acceptance criteria's tolerances.

Each check reads the CSVs and manifests a solve wrote (one output directory
per subcommand) and raises CheckError naming the first violated condition.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

ROUTE_TOL = 1e-3       # criterion 3: sup |R_time - R_freq|, route disagreement
RESIDUAL_TOL = 1e-2    # criterion 4: ODE residuals
PLATEAU_RTOL = 1e-3    # sigma2 plateau against equipartition T/eta
VARIANCE_FLOOR = -1e-10
MC_MEAN_Z = 5.0        # harmonic MC mean, in standard errors
MC_RESPONSE_SE = 3.0   # criterion 7: r_hat within 3 se + 1e-10 of chi_v
MC_RESPONSE_FLOOR = 1e-10


class CheckError(AssertionError):
    """A solve's outputs violate a stated tolerance."""


def _require(ok, message: str):
    if not ok:
        raise CheckError(message)


def read_csv(path: Path) -> dict[str, np.ndarray]:
    """Columns of a qcle CSV by header name; non-finite values are refused."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    data = np.array(body, dtype=float).reshape(len(body), len(header))
    _require(np.all(np.isfinite(data)), f"{path.name}: non-finite values")
    return {name: data[:, i] for i, name in enumerate(header)}


def _manifest(out: Path, sub: str) -> dict:
    return json.loads((out / sub / "manifest.json").read_text())["diagnostics"]


def csv_digests(out: Path) -> dict[str, str]:
    """sha256 of every CSV under a solve's output directory."""
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*.csv"))}


def _check_response(out: Path):
    diag = _manifest(out, "response")
    _require(diag["windows_converged"] and all(diag["windows_converged"]),
             "response: a window did not converge")
    _require(diag["route_disagreement"] <= ROUTE_TOL,
             f"response: route disagreement {diag['route_disagreement']:.3e}")
    for key in ("ode_residual_recursion", "ode_residual_integrator"):
        _require(diag[key] <= RESIDUAL_TOL, f"response: {key} {diag[key]:.3e}")
    r = read_csv(out / "response" / "response.csv")
    gap = float(np.max(np.abs(r["r_recursion"] - r["r_integrator"])))
    _require(gap <= ROUTE_TOL, f"response.csv: routes differ by {gap:.3e}")
    return r


def check_classical_chain(cfg: dict, out: Path):
    for name in ("kernels_time.csv", "kernels_freq.csv"):
        read_csv(out / "kernels" / name)
    mom = _manifest(out, "moments")
    _require(mom["mean_converged"], "moments: mean recursion not converged")
    sus = _manifest(out, "susceptibility")
    _require(sus["converged"], "susceptibility: recursion not converged")
    r_time = _check_response(out)["r_recursion"]
    r_freq = read_csv(out / "susceptibility" / "response_reconstructed.csv")["r"]
    read_csv(out / "susceptibility" / "susceptibility.csv")
    gap = float(np.max(np.abs(r_time - r_freq)))
    _require(gap <= ROUTE_TOL, f"|R_time - R_freq| = {gap:.3e}")

    (_, weight, _), = mom["sigma2_singular"]
    expected = cfg["bath"]["temp"] / cfg["potential"]["eta"]
    plateau = weight / (2.0 * math.pi)
    _require(abs(plateau - expected) <= PLATEAU_RTOL * expected,
             f"sigma2 plateau {plateau:.6g} vs T/eta {expected:.6g}")
    moments = read_csv(out / "moments" / "moments.csv")
    read_csv(out / "moments" / "variance_spectrum.csv")
    sig2 = moments["variance"]
    _require(sig2[0] == 0.0, f"sigma2(0) = {sig2[0]:.3e}")
    _require(np.min(sig2) >= VARIANCE_FLOOR, f"min sigma2 = {np.min(sig2):.3e}")


def check_quantum_response(cfg: dict, out: Path):
    _check_response(out)


def harmonic_kernels(t: np.ndarray, gamma: float, eta: float):
    """(chi_q, chi_v) of qdd + gamma qd + eta q = 0 in closed form."""
    z = np.sqrt(complex(gamma * gamma - 4.0 * eta)) * t / 2.0
    zs = np.where(z == 0, 1.0, z)
    sinhc = np.where(np.abs(z) < 1e-4, 1.0 + z * z / 6.0, np.sinh(zs) / zs)
    decay = np.exp(-gamma * t / 2.0)
    chi_v = np.real(t * decay * sinhc)
    chi_q = np.real(decay * (np.cosh(z) + gamma * t / 2.0 * sinhc))
    return chi_q, chi_v


def check_mc_ensemble(cfg: dict, out: Path):
    _require(_manifest(out, "mc")["n_excluded"] == 0, "mc: excluded paths")
    mom = read_csv(out / "mc" / "mc_moments.csv")
    resp = read_csv(out / "mc" / "mc_response.csv")
    pot = cfg["potential"]
    if pot["alpha"] != 0.0 or pot["epsilon"] != 0.0:
        return
    t = mom["t"]
    chi_q, chi_v = harmonic_kernels(t, cfg["bath"]["gamma"], pot["eta"])
    init = cfg["initial"]
    mean = chi_q * init["q0"] + chi_v * init["v0"]
    z = np.abs(mom["mean"][1:] - mean[1:]) / mom["stderr_mean"][1:]
    _require(np.max(z) <= MC_MEAN_Z, f"mc mean off by {np.max(z):.2f} se")
    excess = np.abs(resp["r_hat"] - chi_v) \
        - (MC_RESPONSE_SE * resp["stderr"] + MC_RESPONSE_FLOOR)
    _require(np.max(excess) <= 0.0, f"mc r_hat off chi_v by {np.max(excess):.3e}")


CHECKS = {
    "classical-chain": check_classical_chain,
    "quantum-response": check_quantum_response,
    "mc-ensemble": check_mc_ensemble,
}
