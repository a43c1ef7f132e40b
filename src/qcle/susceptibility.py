"""Frequency-domain susceptibility: fixed-point equation, transforms and the
time-domain reconstruction.

Transform convention, fixed globally: F{g}(w) = int g(t) e^{iwt} dt, so
products map to (1/2pi) convolutions, F{delta(t)} = 1 and F{1} = 2 pi
delta(w). Transforming the response ODE under this convention gives

    chi(w) = phi(w) + psi(w, [chi]),
    phi(w) = chi_tilde(w) - 2 pi (eps/f0) chi_tilde(0) delta(w),
    psi(w) = -chi_tilde(w) (1/2pi) int dw' chi(w - w')
               [ 3 alpha sigma2_F(w') + (alpha f0^2/2pi)
                 int dw'' chi(w'') chi(w' - w'') ].

The variance plateau sigma_eq puts the Dirac 2 pi sigma_eq delta(w) into
sigma2_F, and its part of psi is exactly the pointwise product
-chi_tilde(w) 3 alpha sigma_eq chi(w). solve_susceptibility moves it to the
left-hand side, which gives the same fixed point as chi = phi_eff +
psi_eff[chi]: phi and psi of the harmonic susceptibility shifted by the
Gaussian closure,

    chi_tilde_eff(w) = 1/(eta + 3 alpha sigma_eq - w^2 - i gamma w),

with the tilt weight -2 pi (eps/f0) chi_tilde_eff(0), and psi_eff keeping
only the transient part of sigma2_F and the cubic f0^2 term. Each
application then contracts by the transient and the cubic term alone, not
by about 3 alpha sigma_eq/eta as well. phi_omega and psi_operator keep the
definitions above.

Every Dirac component sits at w = 0 and is carried symbolically as one
weight (Spectrum.dirac) and convolved exactly. Every spectrum transforms a
real function of time and is Hermitian, so a Spectrum holds its w >= 0 half
only: regular parts are convolved as zero-padded grid sums of their halves
(hfft and ihfft; equal to the direct sums to roundoff), and the inverse
transform is twice the real part of one chirp-z sum over the half
(_numutil.phase_stepped_sum).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
# linear_convolve is unused here, but perfbench/tracing.py rebinds this name
from ._numutil import (hermitian_convolve, linear_convolve,  # noqa: F401
                       hermitian_transform, phase_stepped_sum, square,
                       trapezoid_weights)
from .djm import DjmSolution, djm_solve
from .grids import FreqGrid, SampledSignal, Spectrum, TimeGrid
from .params import BathParams, PotentialParams


class EdgeToleranceError(ValueError):
    """Spectrum/signal has not decayed at the grid edge; widen the grid."""


@dataclass(frozen=True)
class SusceptibilityProblem:
    """The susceptibility equation, on the frequency grid of sigma2_spec."""

    potential: PotentialParams
    bath: BathParams
    sigma2_spec: Spectrum

    @property
    def grid(self) -> FreqGrid:
        return self.sigma2_spec.grid

    @functools.cached_property
    def chi_tilde_half(self) -> np.ndarray:
        """chi_tilde on the w >= 0 nodes, shared by phi_omega and every
        psi_operator application."""
        omegas = self.grid.omegas[self.grid.zero_index:]
        return kernels.chi_tilde(omegas, self.bath.gamma, self.potential.eta)


def phi_omega(problem: SusceptibilityProblem) -> Spectrum:
    """Inhomogeneity: chi_tilde on the grid plus the tilt Dirac weight
    -2 pi (eps/f0) chi_tilde(0) at w = 0 when eps != 0."""
    pot = problem.potential
    chit = problem.chi_tilde_half  # ValueError at eta = 0: chi_tilde(0) is singular
    dirac = 0.0
    if pot.epsilon != 0:
        dirac = -2.0 * np.pi * (pot.epsilon / pot.f0) / pot.eta
    return Spectrum(problem.grid, chit, dirac)


def _convolve_spectra(a: Spectrum, b: Spectrum, fa: np.ndarray) -> Spectrum:
    """(a * b)(w) = int a(w - w') b(w') dw' on the grid, given fa =
    hermitian_transform(a.half), which hermitian_convolve uses up unless b
    is a.

    regular*regular by grid summation (zero padding outside); a Dirac at
    w = 0 adds its weight times the other regular part, and two Diracs give
    one at w = 0 with the product weight, taken in numpy so that an overflow
    raises under the caller's errstate. psi_operator checks the grids.
    """
    reg = hermitian_convolve(a.half, b.half, fa) * a.grid.d_omega
    # adding a zero weight would still turn a -0.0 of reg into +0.0
    if a.dirac:
        reg += a.dirac * b.half
    if b.dirac:
        reg += b.dirac * a.half
    return Spectrum(a.grid, reg, np.float64(a.dirac) * b.dirac)


def psi_operator(chi: Spectrum, problem: SusceptibilityProblem) -> Spectrum:
    """Nonlinear frequency-domain operator (zero when alpha = 0).

    chi's half is transformed once per application and that transform
    serves both convolutions: chi * chi squares it, and chi * bracket,
    taken last, multiplies it in place. Two forward and two inverse
    transforms in all.
    """
    if chi.grid != problem.grid:
        raise ValueError("chi must live on the problem grid")
    pot = problem.potential
    two_pi = 2.0 * np.pi
    f02 = square(pot.f0)
    fchi = hermitian_transform(chi.half)
    chi2 = _convolve_spectra(chi, chi, fchi)
    bracket_reg = pot.alpha * (3.0 * problem.sigma2_spec.half
                               + (f02 / two_pi) * chi2.half)
    bracket_dirac = (pot.alpha * 3.0 * problem.sigma2_spec.dirac
                     + pot.alpha * (f02 / two_pi) * chi2.dirac)
    outer = _convolve_spectra(
        chi, Spectrum(problem.grid, bracket_reg, bracket_dirac), fchi)
    del fchi  # used up by the outer convolution
    chit = problem.chi_tilde_half
    reg = -(1.0 / two_pi) * chit * outer.half
    dirac = -(1.0 / two_pi) * chit[0].real * outer.dirac
    return Spectrum(problem.grid, reg, dirac)


def solve_susceptibility(problem: SusceptibilityProblem, tol: float = 1e-8,
                         k_max: int = 25) -> tuple[Spectrum, DjmSolution]:
    """Banach recursion on the split chi = phi_eff + psi_eff[chi]: f =
    phi_omega and B = psi_operator of the problem with eta + 3 alpha sigma_eq
    in place of eta and no sigma^2 Dirac, sigma_eq = sigma2_spec.dirac/2pi.

    Raises ValueError when eta + 3 alpha sigma_eq <= 0, where chi_tilde_eff
    is singular at w = 0 or not the transform of a decaying response.
    """
    pot, sigma2_spec = problem.potential, problem.sigma2_spec
    eta_eff = pot.eta + 3.0 * pot.alpha * (sigma2_spec.dirac / (2.0 * np.pi))
    if not eta_eff > 0:
        raise ValueError(
            f"eta + 3 alpha sigma_eq = {eta_eff!r} must be > 0 for the "
            "susceptibility recursion")
    split = SusceptibilityProblem(replace(pot, eta=eta_eff), problem.bath,
                                  replace(sigma2_spec, dirac=0.0))

    def apply_b(chi: Spectrum) -> Spectrum:
        return psi_operator(chi, split)

    sol = djm_solve(phi_omega(split), apply_b, tol=tol, k_max=k_max)
    return sol.partial_sum, sol


def unsplit_residual(chi: Spectrum, problem: SusceptibilityProblem) -> float:
    """sup|chi - phi - psi[chi]| under the paper's operator, one application.

    Node for node it is chi_tilde/chi_tilde_eff times the residual of the
    split equation that solve_susceptibility iterates, a factor of
    (eta + 3 alpha sigma_eq)/eta at w = 0, so it reads large where
    3 alpha sigma_eq dwarfs eta.
    """
    return (chi - phi_omega(problem) - psi_operator(chi, problem)).sup_norm()


def _inverse_transform(chi: Spectrum, times: np.ndarray,
                       edge_tol: float) -> np.ndarray:
    """(1/2pi) int chi(w) e^{-iwt} dw at uniformly spaced times, real since
    chi is Hermitian: twice the real part of the trapezoid rule over the
    w >= 0 half, summed by chirp-z (its end weight dw/2 at w = 0 counts that
    node once), plus the exact Dirac contribution.

    The regular part must have decayed at the grid edges (precondition).
    """
    edge = abs(chi.half[-1])
    if edge > edge_tol:
        raise EdgeToleranceError(
            f"|chi| = {edge:.3e} at the grid edge exceeds {edge_tol:.1e}; "
            "the frequency grid is too narrow"
        )
    t = np.asarray(times, dtype=float)
    d_omega = chi.grid.d_omega
    wt = trapezoid_weights(chi.half.size, d_omega)
    acc = phase_stepped_sum(chi.half * wt, 0.0, d_omega, t, -1)
    return (2.0 * acc.real + chi.dirac) / (2.0 * np.pi)


def response_from_susceptibility(chi: Spectrum, tgrid: TimeGrid,
                                 edge_tol: float = 1e-3) -> SampledSignal:
    """Inverse transform R(t) on the time grid."""
    return SampledSignal(tgrid, _inverse_transform(chi, tgrid.times, edge_tol))
