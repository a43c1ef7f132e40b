"""Acceptance suite: the library's exit criteria as callable checks.

Each criterion returns a CriterionResult; run_acceptance prints one
PASS/FAIL line per criterion. The CLI `validate` subcommand and the pytest
acceptance module both run exactly these functions.

Criterion 6's first clause is stated with a tolerance the adopted spectral
density cannot meet: (pi*omega/nu)^2/3 = 3.29e-6 at omega = 10, nu = 1e4,
against a 1e-6 relative bound. It is evaluated faithfully and reported as
FAIL; see README and the test suite for the analysis.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import kernels
from .djm import djm_solve
from ._numutil import cumtrapz
from .grids import FreqGrid, Spectrum, TimeGrid
from .mc import estimate_mc, estimate_response, sample_noise
from .moments import variance, variance_spectrum
from .params import BathParams, PotentialParams, parabolic
from .response import (ResponseProblem, integrate_duffing, ode_residual,
                       solve_response_windowed, zero_sigma2)
from .susceptibility import (SusceptibilityProblem, _inverse_transform,
                             response_from_susceptibility, solve_susceptibility)

MC_SEED = 20260809
CASE3_SEED = 314159


@dataclass
class CriterionResult:
    cid: int
    description: str
    passed: bool
    detail: str
    elapsed: float


def _result(cid: int, description: str, passed: bool, detail: str,
            t0: float, runtime_bound: Optional[float] = None) -> CriterionResult:
    elapsed = time.perf_counter() - t0
    if runtime_bound is not None and elapsed > runtime_bound:
        passed = False
        detail += f"; runtime {elapsed:.1f}s exceeded bound {runtime_bound:.0f}s"
    return CriterionResult(cid, description, bool(passed), detail, elapsed)


@functools.cache
def _case3_parts() -> dict:
    """Nonlinear route-equivalence pipeline, shared by criteria 3 and 9."""
    pot = PotentialParams(eta=1.0, alpha=0.3, epsilon=0.0, f0=0.1)
    bath = BathParams(gamma=1.0, temp=0.5, nu=1e4)
    grid = TimeGrid(15.0, 1501)
    sig2 = variance(grid, bath, pot)
    prob = ResponseProblem(pot, bath, sig2, grid)
    r_t, windows = solve_response_windowed(prob, window=2.5, tol=1e-9, k_max=60)
    fgrid = FreqGrid(1000.0, 40001)
    s2spec = variance_spectrum(sig2, fgrid)
    sprob = SusceptibilityProblem(pot, bath, s2spec, fgrid)
    chi, chi_sol = solve_susceptibility(sprob, tol=1e-9, k_max=40)
    return {"pot": pot, "bath": bath, "grid": grid, "sigma2": sig2,
            "problem": prob, "r_time": r_t, "windows": windows,
            "sigma2_spec": s2spec, "chi": chi, "chi_sol": chi_sol}


@functools.cache
def _ho_susceptibilities() -> list:
    """(gamma, chi, solution) of the harmonic susceptibility recursion for
    each friction, shared by criteria 1 and 9."""
    grid = FreqGrid(10.0, 2001)
    s2 = Spectrum(grid, np.zeros(grid.zero_index + 1))
    out = []
    for gamma in (0.5, 1.0, 2.0):
        bath = BathParams(gamma=gamma, temp=1.0, nu=1e4)
        prob = SusceptibilityProblem(parabolic(), bath, s2, grid)
        out.append((gamma, *solve_susceptibility(prob, tol=1e-10, k_max=25)))
    return out


def criterion_1() -> CriterionResult:
    """HO susceptibility identity: chi(w) = chi_tilde(w) for alpha = eps = 0."""
    t0 = time.perf_counter()
    worst = 0.0
    for gamma, chi, sol in _ho_susceptibilities():
        err = float(np.max(np.abs(chi.full() - kernels.chi_tilde(
            chi.grid.omegas, gamma, 1.0))))
        worst = max(worst, err)
        if not sol.converged:
            return _result(1, "HO susceptibility identity", False,
                           f"recursion not converged at gamma={gamma}", t0, 10.0)
    return _result(1, "HO susceptibility identity", worst < 1e-6,
                   f"sup error {worst:.2e} over omega in [-10,10], "
                   "gamma in {0.5, 1, 2} (tol 1e-6)", t0, 10.0)


def criterion_2() -> CriterionResult:
    """HO response identity: both time-domain routes return chi_v."""
    t0 = time.perf_counter()
    grid = TimeGrid(10.0, 10001)
    pot = parabolic()
    bath = BathParams(gamma=1.0, temp=1.0, nu=1e4)
    prob = ResponseProblem(pot, bath, zero_sigma2(grid), grid)
    exact = kernels.chi_v(grid.times, bath.gamma, pot.eta)
    r_djm, (sol,) = solve_response_windowed(prob, window=grid.t_max, tol=1e-7,
                                            k_max=80)
    err_djm = float(np.max(np.abs(r_djm.values - exact)))
    r_ode = integrate_duffing(prob, dt_sub=1e-4)
    err_ode = float(np.max(np.abs(r_ode.values - exact)))
    ok = sol.converged and err_djm < 1e-4 and err_ode < 1e-4
    return _result(2, "HO response identity (both routes)", ok,
                   f"recursion err {err_djm:.2e}, integrator err {err_ode:.2e} "
                   f"(tol 1e-4), converged={sol.converged}", t0, 30.0)


def criterion_3() -> CriterionResult:
    """Nonlinear route equivalence: time-domain R vs inverse-transformed chi."""
    t0 = time.perf_counter()
    parts = _case3_parts()
    if not all(s.converged for s in parts["windows"]):
        return _result(3, "nonlinear route equivalence", False,
                       "time-domain recursion did not converge", t0, 120.0)
    if not parts["chi_sol"].converged:
        return _result(3, "nonlinear route equivalence", False,
                       "frequency-domain recursion did not converge", t0, 120.0)
    rec = response_from_susceptibility(parts["chi"], parts["grid"])
    err = float(np.max(np.abs(rec.values - parts["r_time"].values)))
    return _result(3, "nonlinear route equivalence", err < 1e-3,
                   f"sup |R_time - R_freq| = {err:.2e} (tol 1e-3)", t0, 120.0)


def criterion_4() -> CriterionResult:
    """ODE residual < 1e-2 at dt = 1e-3 for every converged response."""
    t0 = time.perf_counter()
    details = []
    ok = True
    # harmonic case
    grid = TimeGrid(10.0, 10001)
    pot = parabolic()
    bath = BathParams(gamma=1.0, temp=1.0, nu=1e4)
    prob = ResponseProblem(pot, bath, zero_sigma2(grid), grid)
    r_djm, (sol,) = solve_response_windowed(prob, window=grid.t_max, tol=1e-7,
                                            k_max=80)
    if sol.converged:
        res = ode_residual(r_djm, prob)
        ok &= res < 1e-2
        details.append(f"HO recursion {res:.1e}")
    res_ode = ode_residual(integrate_duffing(prob, dt_sub=1e-3), prob)
    ok &= res_ode < 1e-2
    details.append(f"HO integrator {res_ode:.1e}")
    # nonlinear case at dt = 1e-3
    pot3 = PotentialParams(eta=1.0, alpha=0.3, epsilon=0.0, f0=0.1)
    bath3 = BathParams(gamma=1.0, temp=0.5, nu=1e4)
    grid3 = TimeGrid(12.0, 12001)
    sig2 = variance(grid3, bath3, pot3)
    prob3 = ResponseProblem(pot3, bath3, sig2, grid3)
    r3, wins = solve_response_windowed(prob3, window=2.5, tol=1e-9, k_max=60)
    if all(s.converged for s in wins):
        res3 = ode_residual(r3, prob3)
        ok &= res3 < 1e-2
        details.append(f"nonlinear recursion {res3:.1e}")
    else:
        ok = False
        details.append("nonlinear recursion not converged")
    return _result(4, "ODE residual of converged responses", ok,
                   "; ".join(details) + " (tol 1e-2)", t0)


def criterion_5() -> CriterionResult:
    """Recursion benchmark u = 1 + int_0^t u -> e^t, with telescoping."""
    t0 = time.perf_counter()
    grid = TimeGrid(1.0, 1001)
    dt = grid.dt

    iterates, images = [], []  # S_0 .. S_{k-2}, the iterates B sees, and B(S_m)

    def apply_b(u):
        iterates.append(u)
        images.append(cumtrapz(u, dt))
        return images[-1]

    f = np.ones(grid.n)
    sol = djm_solve(f, apply_b, tol=1e-9, k_max=15)
    err = float(np.max(np.abs(sol.partial_sum - np.exp(grid.times))))
    # telescoping: S_m = u_0+...+u_m, u_0 = f, u_{j+1} = B(S_j) - B(S_{j-1})
    iterates.append(sol.partial_sum)
    u = [f] + [b - a for a, b in zip([0.0] + images, images)]
    tele = max(float(np.max(np.abs(s - total)))
               for s, total in zip(iterates, np.cumsum(u, axis=0)))
    n_terms = sol.k
    ok = sol.converged and err < 1e-6 and n_terms <= 15 and tele < 1e-12
    return _result(5, "recursion benchmark e^t", ok,
                   f"sup err {err:.2e} (tol 1e-6) in {n_terms} terms (<=15), "
                   f"telescoping {tele:.1e} (tol 1e-12)", t0)


def criterion_6() -> CriterionResult:
    """Classical-limit bath checks.

    Clause (a) is arithmetically unattainable as stated: at nu = 1e4 the
    relative deviation of the spectral density from 2*gamma*T at omega = 10
    is (pi*omega/nu)^2/3 = 3.29e-6 > 1e-6. Evaluated faithfully; expected
    to FAIL.
    """
    t0 = time.perf_counter()
    omega = np.linspace(-10.0, 10.0, 4001)
    gamma, temp, nu = 1.3, 0.7, 1e4
    rel = np.max(np.abs(kernels.noise_psd(omega, gamma, temp, nu)
                        / (2.0 * gamma * temp) - 1.0))
    clause_a = rel <= 1e-6
    v_hi, _ = kernels.xi_q0_corr(1.0, 1.0, 1.0, 2.0, 1.0, tol=1e-10)
    v_lo, _ = kernels.xi_q0_corr(1.0, 1.0, 1.0, 2.0, 1.0, tol=1e-6)
    clause_b = abs(v_hi - v_lo) <= 1e-6
    note_a = "ok" if clause_a else \
        "UNATTAINABLE AS STATED: (pi*10/1e4)^2/3 = 3.29e-6"
    detail = (f"psd classical deviation {rel:.3e} vs stated tol 1e-6 "
              f"({note_a}); Matsubara self-consistency "
              f"{abs(v_hi - v_lo):.2e} ({'ok' if clause_b else 'fail'})")
    return _result(6, "classical-limit bath", clause_a and clause_b, detail, t0)


def criterion_7() -> CriterionResult:
    """Monte Carlo oracle against the harmonic closed forms."""
    t0 = time.perf_counter()
    pot = parabolic()
    bath = BathParams(gamma=1.0, temp=1.0, nu=1e4)
    grid = TimeGrid(15.0, 1501)
    q0, v0 = 1.0, 0.5
    noise = sample_noise(grid, bath, 10_000, seed=MC_SEED)
    mc = estimate_mc(noise, pot, q0=q0, v0=v0, f0_kick=0.1)
    est = mc.moments
    th_mean = (kernels.chi_q(grid.times, bath.gamma, pot.eta) * q0
               + kernels.chi_v(grid.times, bath.gamma, pot.eta) * v0)
    z_mean = np.max(np.abs(est.mean.values[1:] - th_mean[1:])
                    / est.stderr_mean.values[1:])
    z_var = abs(est.variance.values[-1] - bath.temp / pot.eta) \
        / est.stderr_variance.values[-1]
    r_hat, r_se = mc.r_hat, mc.stderr_r_hat
    # common random numbers make the alpha = 0 difference deterministic, so
    # the standard error degenerates to 0; allow float roundoff on top
    resp_viol = np.max(np.abs(r_hat.values - kernels.chi_v(grid.times, 1.0, 1.0))
                       - (3.0 * r_se.values + 1e-10))
    ok = z_mean < 3.0 and z_var < 3.0 and resp_viol < 0 and not mc.excluded.any()
    return _result(7, "Monte Carlo oracle (harmonic)", bool(ok),
                   f"mean max|z| {z_mean:.2f}, equil var z {z_var:.2f} (<3), "
                   f"response margin {resp_viol:.1e} (3 se + 1e-10 roundoff floor)",
                   t0, 300.0)


def criterion_8() -> CriterionResult:
    """Nonlinear MC cross-check of the recursion response."""
    t0 = time.perf_counter()
    pot = PotentialParams(eta=1.0, alpha=0.3, epsilon=0.0, f0=0.1)
    bath = BathParams(gamma=1.0, temp=0.02, nu=1e4)
    grid = TimeGrid(12.0, 2401)
    sig2 = variance(grid, bath, pot)
    prob = ResponseProblem(pot, bath, sig2, grid)
    r_t, wins = solve_response_windowed(prob, window=2.0, tol=1e-10, k_max=60)
    if not all(s.converged for s in wins):
        return _result(8, "nonlinear MC cross-check", False,
                       "time-domain recursion not converged", t0, 600.0)
    noise = sample_noise(grid, bath, 1500, seed=CASE3_SEED)
    r_hat, r_se = estimate_response(pot, noise, f0_kick=pot.f0, thermal_v0=True)
    # 2e-5 discretization allowance: under common random numbers the standard
    # error vanishes at early nodes where only the (second-order, dt = 5e-3)
    # integrator mismatch remains
    margin = float(np.max(np.abs(r_hat.values - r_t.values)
                          - (4.0 * r_se.values + 2e-5)))
    return _result(8, "nonlinear MC cross-check", margin < 0,
                   f"worst margin {margin:.2e} against 4 se + 2e-5 "
                   "discretization allowance", t0, 600.0)


def criterion_9() -> CriterionResult:
    """Symmetry, causality, variance positivity across acceptance runs."""
    t0 = time.perf_counter()
    details = []
    ok = True
    # Hermitian symmetry (exact) of the HO and nonlinear spectra on every
    # node, as written to the CSVs
    parts = _case3_parts()
    fulls = [chi.full() for _, chi, _ in _ho_susceptibilities()]
    fulls += [parts["chi"].full(), parts["sigma2_spec"].full()]
    herm = all(np.array_equal(f, np.conj(f[::-1])) for f in fulls)
    ok &= herm
    details.append(f"Hermitian symmetry exact: {herm}")
    # causality of the reconstructed response
    t_neg = np.linspace(-5.0, -0.5, 181)
    g1 = FreqGrid(1000.0, 40001)
    chi_ho = Spectrum(g1, kernels.chi_tilde(g1.omegas[g1.zero_index:], 1.0, 1.0))
    worst_causal = max(float(np.max(np.abs(_inverse_transform(chi, t_neg, 1e-3))))
                       for chi in (parts["chi"], chi_ho))
    ok &= worst_causal < 1e-3
    details.append(f"causality sup |R(t<0)| = {worst_causal:.1e} (tol 1e-3)")
    # variance positivity and zero start on the acceptance parameter sets
    sig3 = parts["sigma2"].values
    bath8 = BathParams(gamma=1.0, temp=0.02, nu=1e4)
    sig8 = variance(TimeGrid(12.0, 1201), bath8,
                    PotentialParams(1.0, 0.3, 0.0, 0.1)).values
    vmin = min(float(np.min(sig3)), float(np.min(sig8)))
    ok &= vmin >= -1e-10
    ok &= sig3[0] == 0.0 and sig8[0] == 0.0
    details.append(f"variance min {vmin:.1e} (>= -1e-10), sigma2(0) = 0 exact")
    return _result(9, "symmetry/causality suite", bool(ok), "; ".join(details), t0)


CRITERIA: dict[int, Callable[[], CriterionResult]] = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9,
}

KNOWN_UNATTAINABLE = {6}


def run_acceptance(ids: Optional[list[int]] = None) -> list[CriterionResult]:
    """Run the selected criteria (all by default), printing one line each."""
    ids = sorted(ids) if ids else sorted(CRITERIA)
    results = []
    for cid in ids:
        if cid not in CRITERIA:
            raise ValueError(f"unknown criterion {cid}")
        res = CRITERIA[cid]()
        results.append(res)
        status = "PASS" if res.passed else "FAIL"
        print(f"[criterion {res.cid}] {status} ({res.elapsed:.1f}s) "
              f"{res.description}: {res.detail}")
    return results
