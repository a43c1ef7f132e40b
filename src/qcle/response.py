"""Time-domain response function: Volterra/Banach route and a direct
Runge-Kutta integrator used as an independent cross-check.

The response obeys

    Rdd + gamma Rd + (eta + 3 alpha sigma^2(t)) R + alpha f0^2 R^3 + eps/f0 = 0,
    R(0) = 0, Rd(0) = 1,

the impulse being encoded entirely in the initial slope. Double integration
gives the fixed-point form R = f + B(R) with

    f(t)    = t - (eps/(2 f0)) t^2
    B(R)(t) = -int_0^t { gamma R(y)
                         + (t-y) [ (eta + 3 alpha sigma^2(y)) R(y)
                                   + alpha f0^2 R(y)^3 ] } dy.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._numutil import cumtrapz, square
from .djm import DjmSolution, djm_solve
from .grids import SampledSignal, TimeGrid
from .params import BathParams, PotentialParams


# substeps whose Duffing coefficients are held as Python floats at once
COEFF_BLOCK = 4096


class StepInstabilityError(RuntimeError):
    """Explicit integration blew up; retry with a smaller dt_sub."""


@dataclass(frozen=True)
class ResponseProblem:
    potential: PotentialParams
    bath: BathParams
    sigma2: SampledSignal
    grid: TimeGrid

    def __post_init__(self):
        if self.sigma2.grid != self.grid:
            raise ValueError("sigma2 must be sampled on the response grid")


def zero_sigma2(grid: TimeGrid) -> SampledSignal:
    """Convenience zero-variance signal (T -> 0 regime)."""
    return SampledSignal(grid, np.zeros(grid.n))


def volterra_f(grid: TimeGrid, epsilon: float, f0: float) -> SampledSignal:
    """Inhomogeneity f(t) = t - (eps/(2 f0)) t^2 encoding R(0)=0, Rd(0)=1 and
    the constant tilt forcing."""
    if f0 == 0:
        raise ValueError("f0 must be nonzero")
    t = grid.times
    return SampledSignal(grid, t - (epsilon / (2.0 * f0)) * t * t)


def volterra_b(r: SampledSignal, problem: ResponseProblem) -> SampledSignal:
    """Volterra operator B(R) by trapezoid quadrature on the grid."""
    if r.grid != problem.grid:
        raise ValueError("signal grid does not match problem grid")
    vals = _volterra_b_values(r.values, problem.grid.times, problem.sigma2.values,
                              problem)
    return SampledSignal(problem.grid, vals)


def _restoring(r: np.ndarray, sig: np.ndarray, pot: PotentialParams) -> np.ndarray:
    """w(y) = (eta + 3 alpha sigma^2(y)) R(y) + alpha f0^2 R(y)^3."""
    return (pot.eta + 3.0 * pot.alpha * sig) * r + pot.alpha * square(pot.f0) * r**3


def _volterra_b_values(r: np.ndarray, tau: np.ndarray, sig: np.ndarray,
                       problem: ResponseProblem) -> np.ndarray:
    """B(R) over a window of nodes with local times tau (tau[0] = 0) and
    sigma^2 values sig, without the history before the window."""
    dt = problem.grid.dt
    w = _restoring(r, sig, problem.potential)
    return -(problem.bath.gamma * cumtrapz(r, dt) + tau * cumtrapz(w, dt)
             - cumtrapz(tau * w, dt))


def solve_response_djm(problem: ResponseProblem, tol: float = 1e-8,
                       k_max: int = 25) -> tuple[SampledSignal, DjmSolution]:
    """Solve the Volterra form by the Banach recursion over the whole grid:
    the windowed solver with a single window.

    Returns the accumulated response and the recursion diagnostics; callers
    must check solution.converged (k_max exhaustion is not an exception).
    """
    r, (sol,) = solve_response_windowed(problem, window=problem.grid.t_max,
                                        tol=tol, k_max=k_max)
    return r, sol


def solve_response_windowed(problem: ResponseProblem, window: float,
                            tol: float = 1e-8, k_max: int = 60,
                            ) -> tuple[SampledSignal, list[DjmSolution]]:
    """Banach recursion with horizon continuation.

    On long horizons a single recursion overshoots before the factorial
    decay sets in and the cubic term amplifies the overshoot beyond recovery.
    The kernel gamma + (t-y)(...) is affine in t, so the history integral
    over [0, T1] folds into an affine-in-t inhomogeneity and the recursion
    restarts on [T1, T2] with identical discrete algebra: the converged
    result satisfies the same global fixed-point identity R = f + B(R) on
    the grid, node for node.

    The recursion stops at the first window that does not converge; that
    window holds its last partial sum and later windows hold zeros.
    """
    grid = problem.grid
    dt = grid.dt
    t = grid.times
    pot, bath = problem.potential, problem.bath
    sig = problem.sigma2.values
    n_win = max(2, int(round(window / dt)))
    f_glob = volterra_f(grid, pot.epsilon, pot.f0).values

    out = np.zeros(grid.n)
    sols: list[DjmSolution] = []
    start = 0
    gam_hist = 0.0   # gamma * int_0^{T1} R
    w0_hist = 0.0    # int_0^{T1} w
    w1_hist = 0.0    # int_0^{T1} (T1 - y) w(y) dy
    while start < grid.n - 1:
        stop = min(start + n_win, grid.n - 1)
        sl = slice(start, stop + 1)
        tau = t[sl] - t[start]
        apply_b = functools.partial(_volterra_b_values, tau=tau, sig=sig[sl],
                                    problem=problem)
        f_loc = f_glob[sl] - gam_hist - w1_hist - tau * w0_hist
        sol = djm_solve(f_loc, apply_b, tol=tol, k_max=k_max)
        sols.append(sol)
        r_loc = sol.partial_sum
        out[sl] = r_loc
        if not sol.converged:
            break
        # fold this window into the history integrals; the shift identity
        # int_0^{T1}(T2-y)w = w1 + (T2-T1) w0 keeps everything incremental
        w_loc = _restoring(r_loc, sig[sl], pot)
        span = t[stop] - t[start]
        w1_hist += span * w0_hist + float(np.trapezoid((t[stop] - t[sl]) * w_loc, dx=dt))
        w0_hist += float(np.trapezoid(w_loc, dx=dt))
        gam_hist += bath.gamma * float(np.trapezoid(r_loc, dx=dt))
        start = stop
    return SampledSignal(grid, out), sols


def _substeps_per_step(dt: float, dt_sub: float) -> float:
    """integrate_duffing's substeps per grid step, at least 1; a float, as a
    tiny dt_sub gives inf."""
    return max(1.0, float(np.ceil(dt / dt_sub - 1e-12)))


def _linear_coefficients(problem: ResponseProblem, n_sub: int, h: float):
    """-(eta + 3 alpha sigma^2) at the start, midpoint and end of every
    substep, as float triples, with sigma^2 interpolated linearly between
    grid nodes; converted COEFF_BLOCK substeps at a time, so a long run holds
    no list of all of them."""
    grid, pot = problem.grid, problem.potential
    t_nodes, sig = grid.times, problem.sigma2.values
    offsets = np.arange(n_sub) * h
    rows = max(1, COEFF_BLOCK // n_sub)

    def block(j0: int):
        steps = np.arange(j0, min(j0 + rows, grid.n - 1))
        t_sub = (steps[:, None] * grid.dt + offsets[None, :]).ravel()
        return zip(*[(-(pot.eta + 3.0 * pot.alpha * np.interp(ts, t_nodes, sig))
                      ).tolist() for ts in (t_sub, t_sub + h / 2.0, t_sub + h)])

    return itertools.chain.from_iterable(map(block, range(0, grid.n - 1, rows)))


def integrate_duffing(problem: ResponseProblem, dt_sub: float,
                      blowup_guard: float = 1e8) -> SampledSignal:
    """Classic fourth-order Runge-Kutta integration of the response ODE,
    with sigma^2 interpolated linearly between grid nodes and the result
    resampled onto the grid.

    The loop runs on plain Python floats: numpy gives the linear
    coefficients (_linear_coefficients), and each stage's velocity
    v + c h k, which is also its position slope, is computed once. Every
    operation is the IEEE one a loop over numpy scalars makes, so the bits
    are the same. A float ** 3 past the float range, where numpy gives inf,
    raises OverflowError; that ends the integration at the same grid step
    as the non-finite value would.
    """
    grid = problem.grid
    dt = grid.dt
    if dt_sub > dt * (1 + 1e-12):
        raise ValueError("dt_sub must not exceed the grid spacing")
    n_sub = int(_substeps_per_step(dt, dt_sub))
    h = dt / n_sub
    pot = problem.potential
    ng = -problem.bath.gamma
    tilt = pot.epsilon / pot.f0
    af2 = pot.alpha * square(pot.f0)
    coeffs = _linear_coefficients(problem, n_sub, h)

    hh, h6 = 0.5 * h, h / 6.0
    out = [0.0]
    r, v = 0.0, 1.0
    for j in range(grid.n - 1):
        try:
            for ca, cm, cb in itertools.islice(coeffs, n_sub):
                k1v = ng * v + (ca * r - af2 * r**3 - tilt)
                k2r = v + hh * k1v
                rr = r + hh * v
                k2v = ng * k2r + (cm * rr - af2 * rr**3 - tilt)
                k3r = v + hh * k2v
                rr = r + hh * k2r
                k3v = ng * k3r + (cm * rr - af2 * rr**3 - tilt)
                k4r = v + h * k3v
                rr = r + h * k3r
                k4v = ng * k4r + (cb * rr - af2 * rr**3 - tilt)
                r += h6 * (v + 2.0 * k2r + 2.0 * k3r + k4r)
                v += h6 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        except OverflowError:  # r**3 past the float range
            r = math.inf
        if not (abs(r) < blowup_guard and abs(v) < blowup_guard):
            raise StepInstabilityError(
                f"integration blew up near t = {grid.times[j + 1]:.3g}; "
                "reduce dt_sub"
            )
        out.append(r)
    return SampledSignal(grid, np.array(out))


def ode_residual(r: SampledSignal, problem: ResponseProblem) -> float:
    """Sup norm of the response-ODE residual on interior nodes (centered
    differences); the t = 0 node carries the delta source and is excluded."""
    if r.grid != problem.grid:
        raise ValueError("signal grid does not match problem grid")
    dt = problem.grid.dt
    vals = r.values
    pot, bath = problem.potential, problem.bath
    rdd = (vals[2:] - 2.0 * vals[1:-1] + vals[:-2]) / dt**2
    rd = (vals[2:] - vals[:-2]) / (2.0 * dt)
    rr = vals[1:-1]
    sig = problem.sigma2.values[1:-1]
    res = rdd + bath.gamma * rd + (pot.eta + 3.0 * pot.alpha * sig) * rr \
        + pot.alpha * square(pot.f0) * rr**3 + pot.epsilon / pot.f0
    return float(np.max(np.abs(res)))
