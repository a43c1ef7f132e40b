"""Time-domain response function: the Volterra/Banach route on the harmonic
kernel, and a direct Runge-Kutta integrator used as an independent
cross-check.

The response obeys

    Rdd + gamma Rd + eta R + N(R) + eps/f0 = 0,   R(0) = 0, Rd(0) = 1,
    N(R) = 3 alpha sigma^2(t) R + alpha f0^2 R^3,

the impulse being encoded entirely in the initial slope. The harmonic
oscillator's impulse response chi_v solves the linear part, which leaves the
fixed-point form R = f + B(R) with

    f(t)    = chi_v(t) - (eps/f0) int_0^t chi_v(s) ds
    B(R)(t) = -int_0^t chi_v(t-y) N(R(y)) dy.

It is the mean trajectory's equation (moments.mean_trajectory) for
(q0, v0) = (0, f0), divided by f0; both are solved by one march,
moments._solve_closure, window by window.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from ._numutil import cumtrapz, square
# djm_solve is unused here, but perfbench/tracing.py rebinds this name
from .djm import DjmSolution, djm_solve  # noqa: F401
from .grids import SampledSignal, TimeGrid
from .moments import _solve_closure
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


def solve_response_windowed(problem: ResponseProblem, window: float,
                            tol: float = 1e-8, k_max: int = 60,
                            ) -> tuple[SampledSignal, list[DjmSolution]]:
    """Banach recursion with horizon continuation: moments._solve_closure at
    c = f0^2, one recursion per window of length `window`, up to the first
    window that does not converge."""
    grid = problem.grid
    pot = problem.potential
    cv = kernels.chi_v(grid.times, problem.bath.gamma, pot.eta)
    f = cv - (pot.epsilon / pot.f0) * cumtrapz(cv, grid.dt)
    out, sols = _solve_closure(f, cv, problem.sigma2.values, square(pot.f0),
                               pot.alpha, grid, window, tol, k_max)
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
