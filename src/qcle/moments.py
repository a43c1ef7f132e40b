"""Conditional-PDF moments: mean trajectory, variance and their spectra.

The variance noise term is a trapezoid sum over the noise spectral density,

    <phi_q(t)^2> = (1/pi) int_0^W S(w) |Lambda(t,w)|^2 dw,
    Lambda(t,w)  = int_0^t chi_v(s) e^{-iws} ds,

which is the double time quadrature of the velocity-noise covariance routed
through the spectral density. Lambda has rank 2 in (t, w):

    Lambda = e^{-iwt} [u(w) chi_v(t) + b(w) e^{s_- t}] - b(w),
    u = 1/(s_+ - iw),  b = -1/((s_+ - iw)(s_- - iw)),

with s_+/- the roots of kernels.effective_roots. The weighted sum of
|Lambda|^2 therefore reduces to three scalar moments of (u, b) and two
Fourier sums of the weights on the time grid, one chirp-z convolution
(_numutil.phase_stepped_sum): O(n_t + n_w) memory, no (n_t, n_w) matrix and
no Python loop over either grid. It is the same trapezoid sum, reordered, so
it agrees with the direct matrix evaluation to about 1e-12 relative; s_+ -
s_- = w0 exactly, so no 1/w0 cancellation remains near critical damping.

For quantum nu the strict Ohmic integrand decays only like 1/w, so the
cutoff W acts as a physical UV regulator; in the classical regime the result
is cutoff-insensitive and the convergence check below verifies that.

The preparation cross term is a Matsubara sum whose terms each split into a
part growing with the roots s_+/- and a part decaying like e^{-nu_n t}; the
growing parts sum to one exact scalar per root and the decaying part is
summed over blocks of nodes (_preparation_cross_term), with no truncation
bias and no (n_t, N) temporaries.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import kernels
from ._numutil import (cumtrapz, e1m, linear_convolve, phase_stepped_sum,
                       square, trapezoid_weights, volterra_conv)
from .djm import ConvergenceError, DjmSolution, default_norm, djm_solve
from .grids import FreqGrid, SampledSignal, Spectrum, TimeGrid
from .params import BathParams, PotentialParams


# trailing share of the time grid averaged into the plateau estimate
PLATEAU_FRAC = 0.1
# the preparation term drops decaying Matsubara terms below e^{-DECAY_CUT}
DECAY_CUT = 40.0
# tolerance of the kernels.xi_q0_weights list of the preparation term
TAIL_TOL = 1e-12
# largest temporary of the blocked decaying sum, in elements
BLOCK_ELEMENTS = 1 << 15
# powers of 1/n in the tail of the growing Matsubara weights
TAIL_ORDER = 16
_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0)  # B_2..B_10


class QuadratureError(RuntimeError):
    """Estimated quadrature error exceeded the requested tolerance."""

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


class PlateauError(ValueError):
    """No late-time plateau detected; the caller should extend t_max."""


@dataclass(frozen=True)
class SpectralQuadrature:
    """Frequency quadrature for noise covariances: trapezoid on [0, omega_max]
    with n nodes. The result is compared against the half-range evaluation
    and rejected if they differ by more than rtol (relative to the result
    scale); rtol = inf accepts any estimate."""

    omega_max: float = 300.0
    n: int = 6001
    rtol: float = 1e-3

    def __post_init__(self):
        if not self.omega_max > 0 or self.n < 9:
            raise ValueError("need omega_max > 0 and n >= 9")
        if not self.rtol > 0:
            raise ValueError("rtol must be positive")

    @property
    def d_omega(self) -> float:
        return self.omega_max / (self.n - 1)

    def check_horizon(self, t_max: float):
        """Raise ValueError unless the nodes resolve the horizon t_max."""
        if 2.0 * np.pi / self.d_omega < 2.0 * t_max:
            raise ValueError(
                "frequency spacing too coarse for this horizon: need "
                "2*pi/d_omega >= 2*t_max; increase quad.n"
            )


def _window_power(grid: TimeGrid, gamma: float, eta: float, omega: np.ndarray,
                  c: np.ndarray) -> np.ndarray:
    """sum_k c[r, k] |Lambda(t, w_k)|^2 for every row r of the weights c.

    Lambda = e^{-iwt} [u chi_v(t) + b e^{s_- t}] - b has rank 2 in (t, w),
    so the weighted sum is three scalar moments of (u, b) combined with
    O(n_t) vectors, plus two Fourier sums over the weights on the uniform
    nodes omega (one chirp-z call). Nodes with |s_+ - iw| t_max < 1, where u
    and b outgrow Lambda (eta ~ 0 near w = 0, or a horizon shorter than
    2/gamma), are summed from Lambda's direct form
    t (e1m(-(s_+ - iw) t) - e1m(-(s_- - iw) t))/w0.
    """
    t = grid.times
    sp, sm, w0 = kernels.effective_roots(gamma, eta)
    a = sp - 1j * omega
    near = np.abs(a) * grid.t_max < 1.0
    out = np.zeros((c.shape[0], grid.n))
    for k in np.flatnonzero(near):
        # int_0^t e^{zs} ds = t e1m(-zt)
        z_m = sm - 1j * omega[k]
        lam = t * (e1m(-a[k] * t) - e1m(-z_m * t)) / w0
        out += c[:, k, None] * np.abs(lam) ** 2
    c = np.where(near, 0.0, c)
    u = 1.0 / np.where(near, 1.0, a)
    b = -u / (sm - 1j * omega)
    ub = u * np.conj(b)
    bb = np.abs(b) ** 2
    m_uu = c @ (np.abs(u) ** 2)
    m_bb = c @ bb
    m_ub = c @ ub
    f_ub, f_bb = np.split(phase_stepped_sum(np.vstack([c * ub, c * bb]), omega[0],
                                            omega[1] - omega[0], t, -1), 2)
    x = kernels.chi_v(t, gamma, eta)
    e = np.exp(sm * t)
    out += (m_uu[:, None] * x**2 + m_bb[:, None] * (np.abs(e) ** 2 + 1.0)
            + 2.0 * x * np.real(m_ub[:, None] * np.conj(e))
            - 2.0 * np.real(x * f_ub + e * f_bb))
    return out


def _power_tails(a: float, m: np.ndarray) -> np.ndarray:
    """sum_{n >= a} n^{-m} for each m >= 2 by Euler-Maclaurin through B_10.

    At a >= 33 the relative error is below 4e-16 for m <= 6 and grows to
    2e-12 at m = 17, where _growing_tail weights it by 16^{2-m}.
    """
    out = a ** (1.0 - m) / (m - 1.0) + 0.5 * a ** -m
    f = m * a ** (-m - 1.0) / 2.0  # poch(m, 2j-1) a^{-m-2j+1} / (2j)!
    for j, b2j in enumerate(_BERNOULLI, 1):
        out += b2j * f
        f *= (m + 2 * j - 1) * (m + 2 * j) / (a * a * (2 * j + 1) * (2 * j + 2))
    return out


def _growing_tail(bath: BathParams, eta: float, roots: np.ndarray,
                  m: int) -> np.ndarray:
    """sum_{n > m} c_n/(nu_n + s) for each root s, with nu_n = n nu.

    c_n/(nu_n + s) = (2 gamma T/nu^2) n^-2 / ((1 + a/n + b/n^2)(1 + s/(nu n)))
    with a = gamma/nu, b = eta/nu^2; its powers of 1/n shrink by
    max|s_+-|/(nu n) <= 1/16 for m >= 16 max|s_+-|/nu, and each power
    sums to a Hurwitz zeta tail.
    """
    nu = bath.nu
    a, b = bath.gamma / nu, eta / square(nu)
    p = np.zeros(TAIL_ORDER)
    p[0], p[1] = 1.0, -a
    for k in range(2, TAIL_ORDER):
        p[k] = -a * p[k - 1] - b * p[k - 2]
    q = np.empty((roots.size, TAIL_ORDER), dtype=complex)
    q[:, 0] = 1.0
    for k in range(1, TAIL_ORDER):
        q[:, k] = p[k] - roots / nu * q[:, k - 1]
    zeta = _power_tails(m + 1.0, np.arange(2.0, TAIL_ORDER + 2))
    return 2.0 * bath.gamma * bath.temp / square(nu) * (q @ zeta)


def _decaying_sum(t: np.ndarray, nun: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum_n a_n e^{-nu_n t_i} at t_i > 0 (0 at t_0 = 0), nun ascending.

    Nodes go in blocks [j, 2j); a block keeps the prefix of terms with
    nu_n t_j < DECAY_CUT, which is about DECAY_CUT/(nu dt) terms for j
    nodes, so the work is about DECAY_CUT/(nu dt) log2(n_t) exponentials.
    Every temporary holds at most BLOCK_ELEMENTS of them.
    """
    out = np.zeros(t.size)
    j = 1
    while j < t.size:
        k = int(np.searchsorted(nun, DECAY_CUT / t[j]))
        rows = max(1, BLOCK_ELEMENTS // max(k, 1))
        for r in range(j, min(2 * j, t.size), rows):
            stop = min(r + rows, 2 * j, t.size)
            for c in range(0, k, BLOCK_ELEMENTS):
                cols = slice(c, min(c + BLOCK_ELEMENTS, k))
                out[r:stop] += np.exp(-np.outer(t[r:stop], nun[cols])) @ a[cols]
        j *= 2
    return out


def _preparation_cross_term(grid: TimeGrid, bath: BathParams,
                            eta: float) -> np.ndarray:
    """2 int_0^t chi_q(y) <phi_v(y) q0> dy, <phi_v(y) q0> = -sum_n c_n E_n(y).

    E_n = (s_+ g_+ - s_- g_-)/w0 with g_s(y) = (e^{sy} - e^{-nu_n y})/(nu_n
    + s), summed over n in two parts:

    - growing: (s_+ e^{s_+ y} C_+ - s_- e^{s_- y} C_-)/w0 with one scalar
      per root, C_s = sum_n c_n/(nu_n + s), every term included: the
      first ones explicitly, the rest through _growing_tail;
    - decaying: d(y) = sum_n c_n nu_n e^{-nu_n y}/((nu_n + s_+)(nu_n + s_-)),
      real, over prefixes of the kernels.xi_q0_weights list
      (_decaying_sum), whose truncation error at y >= dt is below
      TAIL_TOL/nu_N.

    Terms with |nu_n + s_+-| t_max < 1, where both parts outgrow g_s (an
    overdamped root near a Matsubara frequency), keep the per-term form
    g_s = e^{sy} y e1m((nu_n + s) y). E_n(0) = 0 exactly. Raises
    MatsubaraTruncationError, before allocating anything, when the explicit
    terms would be more than kernels.MAX_MATSUBARA_TERMS.
    """
    t = grid.times
    sp, sm, w0 = kernels.effective_roots(bath.gamma, eta)
    roots = np.array([sp, sm], dtype=complex)
    # explicit terms: every near one, and enough for the tail to converge;
    # counted in floats, so a huge or non-finite count fails the cap
    m = 16.0 * np.ceil((np.max(np.abs(roots)) + 1.0 / grid.t_max) / bath.nu)
    if not m <= kernels.MAX_MATSUBARA_TERMS:
        raise kernels.MatsubaraTruncationError(
            f"the Matsubara preparation term needs {m:.3g} explicit terms, "
            f"more than {kernels.MAX_MATSUBARA_TERMS}, for roots of modulus "
            f"{np.max(np.abs(roots)):.3g} at nu = {bath.nu!r}; decrease "
            "bath.gamma or |potential.eta|, or increase nu")
    m = max(32, int(m))
    nun, cn = kernels.xi_q0_weights(bath.gamma, bath.temp, bath.nu, eta,
                                    t_min=grid.dt, tol=TAIL_TOL)
    nu_m = bath.nu * np.arange(1.0, m + 1)
    c_m = kernels.xi_q0_coefficients(nu_m, bath.gamma, bath.temp, eta)
    near = np.any(np.abs(nu_m[:, None] + roots) * grid.t_max < 1.0, axis=1)
    far = ~near
    c_s = np.array([np.sum(c_m[far] / (nu_m[far] + s)) for s in roots])
    c_s += _growing_tail(bath, eta, roots, m)
    e_s = np.exp(np.outer(t, roots))
    p = np.real(e_s @ (roots * c_s * [1.0, -1.0]) / w0)
    a = cn * nun / np.real((nun + sp) * (nun + sm))
    near_n = np.flatnonzero(near)
    a[near_n[near_n < a.size]] = 0.0
    p -= _decaying_sum(t, nun, a)
    if near.any():
        tc, nus = t[:, None], nu_m[near]
        g_p = e_s[:, :1] * tc * e1m((nus + sp) * tc)
        g_m = e_s[:, 1:] * tc * e1m((nus + sm) * tc)
        p += np.real((sp * g_p - sm * g_m) / w0 @ c_m[near])
    p[0] = 0.0
    # <phi_v(y) q0> = -p(y)
    integrand = -2.0 * kernels.chi_q(t, bath.gamma, eta) * p
    return cumtrapz(integrand, grid.dt)


def variance(grid: TimeGrid, bath: BathParams, potential: PotentialParams,
             quad: SpectralQuadrature = SpectralQuadrature()) -> SampledSignal:
    """Conditional variance sigma^2(t) on the grid.

    sigma^2 = T chi_v^2 + <phi_q^2> + preparation cross term; it depends on
    (gamma, T, nu, eta) only.
    """
    t = grid.times
    gamma, temp, eta = bath.gamma, bath.temp, potential.eta
    quad.check_horizon(grid.t_max)
    base = temp * kernels.chi_v(t, gamma, eta) ** 2

    w = np.linspace(0.0, quad.omega_max, quad.n)
    # the full range and the half range [0, omega_max/2] on the same nodes,
    # end weight halved
    k_half = (quad.n - 1) // 2
    wt = np.zeros((2, quad.n))
    wt[0] = trapezoid_weights(quad.n, quad.d_omega)
    wt[1, :k_half + 1] = trapezoid_weights(k_half + 1, quad.d_omega)
    s_w = kernels.noise_psd(w, gamma, temp, bath.nu)
    noise = _window_power(grid, gamma, eta, w, wt * s_w / np.pi)
    scale = max(float(np.max(np.abs(base + noise[0]))), 1e-30)
    est = float(np.max(np.abs(noise[0] - noise[1]))) / scale
    if est > quad.rtol:
        raise QuadratureError(
            "variance quadrature is cutoff-sensitive "
            f"(relative estimate {est:.3e}); quantum-nu UV log growth: widen "
            "tolerances.quad_omega_max, or accept the cutoff as a physical "
            "regulator with a larger tolerances.quad_rtol",
            est,
        )
    sig2 = base + noise[0] + _preparation_cross_term(grid, bath, eta)
    sig2[0] = 0.0
    return SampledSignal(grid, sig2)


def estimate_plateau(signal: SampledSignal) -> float:
    """Mean of the trailing PLATEAU_FRAC of the signal (late-time plateau
    estimate)."""
    k = max(2, int(round(PLATEAU_FRAC * signal.grid.n)))
    return float(np.mean(signal.values[-k:]))


def variance_spectrum(sigma2: SampledSignal, grid: FreqGrid,
                      plateau_tol: float = 1e-4) -> Spectrum:
    """Split sigma^2 into plateau + transient and transform.

    Returns the Fourier transform of the evenly-extended transient as the
    regular part plus the Dirac weight 2*pi*sigma2_eq at omega = 0. Requires
    the signal to have reached its plateau.
    """
    vals = sigma2.values
    t = sigma2.grid.times
    n = sigma2.grid.n
    sig_eq = estimate_plateau(sigma2)
    i90 = int(round(0.9 * (n - 1)))
    drift = abs(vals[-1] - vals[i90])
    scale = max(abs(sig_eq), float(np.max(np.abs(vals))), 1e-12)
    if drift > plateau_tol * scale:
        raise PlateauError(
            f"no plateau: |sigma2(t_max) - sigma2(0.9 t_max)| = {drift:.3e} "
            "exceeds tolerance; increase t_max"
        )
    transient = vals - sig_eq
    wt = trapezoid_weights(n, sigma2.grid.dt)
    # even extension: FT = 2 * int_0^tmax transient(t) cos(w t) dt, real,
    # evaluated on the w >= 0 half that a Spectrum stores
    half = grid.omegas[grid.zero_index:]
    acc = phase_stepped_sum(transient * wt, 0.0, sigma2.grid.dt, half, +1)
    return Spectrum(grid, 2.0 * np.real(acc), 2.0 * np.pi * sig_eq)


def _closure_force(u: np.ndarray, sig: np.ndarray, c: float) -> np.ndarray:
    """c u^3 + 3 u sigma^2: the cubic force <q^3> = G^3 + 3 G sigma^2 of the
    Gaussian closure for the mean G (c = 1), and for the response R = G/f0
    of the kick v0 = f0 (c = f0^2)."""
    return c * u**3 + 3.0 * u * sig


def _closure_b(u: np.ndarray, cv: np.ndarray, sig: np.ndarray, c: float,
              alpha: float, dt: float) -> np.ndarray:
    """The nonlinear Volterra operator of the mean and of the response,
    B(u) = -alpha int_0^t chi_v(t-y) (c u^3 + 3 u sigma^2)(y) dy, by the
    trapezoid rule on the nodes of u."""
    return -alpha * volterra_conv(cv, _closure_force(u, sig, c), dt)


def _solve_closure(f: np.ndarray, cv: np.ndarray, sig: np.ndarray, c: float,
                   alpha: float, grid: TimeGrid, window: float, tol: float,
                   k_max: int) -> tuple[np.ndarray, list[DjmSolution]]:
    """Solve u = f + B(u), B = _closure_b, marching the horizon in windows
    of length `window` (one window when it is at least t_max), each solved
    by its own recursion.

    The earlier windows enter a window's equation as one fixed history
    vector: the trapezoid sum of chi_v(t-y) (c u^3 + 3 u sigma^2)(y) over
    y <= T1, the window's start, with half weights at 0 and T1. The window's
    own operator adds the sum over [T1, t] with half weights at T1 and t, so
    the converged result satisfies the global trapezoid identity
    u = f + B(u), node for node. The march stops at the first window that
    does not converge; that window holds its last partial sum and later
    windows hold zeros.
    """
    dt = grid.dt
    # a window of at least t_max is one window
    n_win = max(2, int(round(min(window, grid.t_max) / dt)))
    out = np.zeros(grid.n)
    sols: list[DjmSolution] = []
    start = 0
    while start < grid.n - 1:
        stop = min(start + n_win, grid.n - 1)
        sl = slice(start, stop + 1)
        f_loc = f[sl]
        if start:
            force = _closure_force(out[:start + 1], sig[:start + 1], c)
            f_loc = f_loc - alpha * linear_convolve(
                cv[:stop + 1], force * trapezoid_weights(start + 1, dt))[sl]
        apply_b = functools.partial(_closure_b, cv=cv[:stop - start + 1],
                                    sig=sig[sl], c=c, alpha=alpha, dt=dt)
        sol = djm_solve(f_loc, apply_b, tol=tol, k_max=k_max)
        sols.append(sol)
        out[sl] = sol.partial_sum
        if not sol.converged:
            break
        start = stop
    return out, sols


def mean_trajectory(q0: float, v0: float, potential: PotentialParams,
                    bath: BathParams, sigma2: SampledSignal, window: float,
                    tol: float = 1e-10, k_max: int = 80,
                    ) -> tuple[SampledSignal, DjmSolution]:
    """Self-consistent mean G(t) on the grid of sigma2, with the Gaussian
    closure <q^3> = G^3 + 3 G sigma^2:

    G = chi_q q0 + chi_v v0 - int_0^t [eps chi_v(y) + alpha chi_v(t-y) H(y)] dy,
    marched in windows of length `window` as the response is (_solve_closure
    at c = 1). The record holds the norm of f, then the increment norm of
    every operator application, window after window. Raises ConvergenceError
    when a window's recursion does not reach tol.
    """
    grid = sigma2.grid
    t = grid.times
    gamma, eta = bath.gamma, potential.eta
    cv = kernels.chi_v(t, gamma, eta)
    f = kernels.chi_q(t, gamma, eta) * q0 + cv * v0
    if potential.epsilon != 0.0:
        f = f - potential.epsilon * cumtrapz(cv, grid.dt)
    values, sols = _solve_closure(f, cv, sigma2.values, 1.0, potential.alpha,
                                  grid, window, tol, k_max)
    norms = [default_norm(f)]
    norms += [x for s in sols for x in s.term_norms[1:]]
    if not sols[-1].converged:
        raise ConvergenceError(
            f"mean-trajectory recursion not converged after {len(norms) - 1} "
            f"operator applications (last term norm {norms[-1]:.3e})", norms)
    return SampledSignal(grid, values), DjmSolution(values, norms, True)
