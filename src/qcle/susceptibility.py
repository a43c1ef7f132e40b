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

Every Dirac component sits at w = 0 and is carried symbolically as one
weight (Spectrum.dirac) and convolved exactly. Every spectrum transforms a
real function of time and is Hermitian, which psi_operator requires: regular
parts are convolved as zero-padded grid sums of their w >= 0 halves (hfft and
ihfft; equal to the direct sums to roundoff) and mirrored, and the inverse
transform is one chirp-z sum (_numutil.phase_stepped_sum).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
# linear_convolve is unused here, but perfbench/tracing.py rebinds this name
from ._numutil import (hermitian_convolve, linear_convolve,  # noqa: F401
                       phase_stepped_sum, square, trapezoid_weights)
from .djm import DjmSolution, djm_solve
from .grids import FreqGrid, SampledSignal, Spectrum, TimeGrid
from .params import BathParams, PotentialParams


class EdgeToleranceError(ValueError):
    """Spectrum/signal has not decayed at the grid edge; widen the grid."""


@dataclass(frozen=True)
class SusceptibilityProblem:
    potential: PotentialParams
    bath: BathParams
    sigma2_spec: Spectrum
    grid: FreqGrid

    def __post_init__(self):
        if self.sigma2_spec.grid != self.grid:
            raise ValueError("sigma2 spectrum must live on the problem grid")
        if not self.sigma2_spec.is_hermitian():
            raise ValueError("sigma2 spectrum must be Hermitian")


def phi_omega(problem: SusceptibilityProblem) -> Spectrum:
    """Inhomogeneity: chi_tilde on the grid plus the tilt Dirac weight
    -2 pi (eps/f0) chi_tilde(0) at w = 0 when eps != 0."""
    pot, bath = problem.potential, problem.bath
    if pot.eta == 0 and pot.epsilon != 0:
        raise ValueError("chi_tilde(0) singular for eta = 0: tilt term undefined")
    reg = kernels.chi_tilde(problem.grid.omegas, bath.gamma, pot.eta)
    dirac = 0j
    if pot.epsilon != 0:
        dirac = complex(-2.0 * np.pi * (pot.epsilon / pot.f0) / pot.eta)
    return Spectrum(problem.grid, reg, dirac).hermitian_symmetrized()


def _convolve_spectra(a: Spectrum, b: Spectrum) -> Spectrum:
    """(a * b)(w) = int a(w - w') b(w') dw' on the grid, a and b Hermitian.

    regular*regular by grid summation (zero padding outside); a Dirac at
    w = 0 adds its weight times the other regular part, and two Diracs give
    one at w = 0 with the product weight, taken in numpy so that an overflow
    raises under the caller's errstate.
    """
    if a.grid != b.grid:
        raise ValueError("spectra live on different grids")
    grid = a.grid
    a_half, b_half = a.values[grid.zero_index:], b.values[grid.zero_index:]
    reg = hermitian_convolve(a_half, b_half) * grid.d_omega
    # adding a zero weight would still turn a -0.0 of reg into +0.0
    if a.dirac:
        reg += a.dirac * b_half
    if b.dirac:
        reg += b.dirac * a_half
    return Spectrum.from_half(grid, reg, np.complex128(a.dirac) * b.dirac)


def psi_operator(chi: Spectrum, problem: SusceptibilityProblem) -> Spectrum:
    """Nonlinear frequency-domain operator (zero when alpha = 0). chi must
    be Hermitian; the output is Hermitian by construction."""
    if chi.grid != problem.grid:
        raise ValueError("chi must live on the problem grid")
    if not chi.is_hermitian():
        raise ValueError("chi must be Hermitian: chi(-w) = conj(chi(w))")
    pot, grid = problem.potential, problem.grid
    two_pi = 2.0 * np.pi
    f02 = square(pot.f0)
    chi2 = _convolve_spectra(chi, chi)
    bracket_reg = pot.alpha * (3.0 * problem.sigma2_spec.values
                               + (f02 / two_pi) * chi2.values)
    bracket_dirac = (pot.alpha * 3.0 * problem.sigma2_spec.dirac
                     + pot.alpha * (f02 / two_pi) * chi2.dirac)
    bracket = Spectrum(grid, bracket_reg, bracket_dirac)
    outer = _convolve_spectra(chi, bracket)
    chit = kernels.chi_tilde(grid.omegas, problem.bath.gamma, pot.eta)
    reg = -(1.0 / two_pi) * chit * outer.values
    dirac = -(1.0 / two_pi) * chit[grid.zero_index] * outer.dirac
    return Spectrum(grid, reg, dirac)


def solve_susceptibility(problem: SusceptibilityProblem, tol: float = 1e-8,
                         k_max: int = 25) -> tuple[Spectrum, DjmSolution]:
    """Banach recursion with f = phi_omega and B = psi_operator."""
    f = phi_omega(problem)

    def apply_b(chi: Spectrum) -> Spectrum:
        return psi_operator(chi, problem)

    sol = djm_solve(f, apply_b, tol=tol, k_max=k_max)
    return sol.partial_sum, sol


def _inverse_transform(chi: Spectrum, times: np.ndarray,
                       edge_tol: float) -> np.ndarray:
    """(1/2pi) int chi(w) e^{-iwt} dw at uniformly spaced times (complex):
    the trapezoid rule of the regular part, summed by chirp-z, plus the exact
    Dirac contribution.

    The regular part must have decayed at the grid edges (precondition).
    """
    grid = chi.grid
    edge = max(abs(chi.values[0]), abs(chi.values[-1]))
    if edge > edge_tol:
        raise EdgeToleranceError(
            f"|chi| = {edge:.3e} at the grid edge exceeds {edge_tol:.1e}; "
            "the frequency grid is too narrow"
        )
    t = np.asarray(times, dtype=float)
    wt = trapezoid_weights(grid.n, grid.d_omega)
    acc = phase_stepped_sum(chi.values * wt, -grid.omega_max, grid.d_omega, t, -1)
    acc += chi.dirac
    return acc / (2.0 * np.pi)


def response_from_susceptibility(chi: Spectrum, tgrid: TimeGrid,
                                 edge_tol: float = 1e-3,
                                 ) -> tuple[SampledSignal, float]:
    """Inverse transform R(t) on the time grid and, as a diagnostic, the
    largest imaginary residue over the nodes."""
    acc = _inverse_transform(chi, tgrid.times, edge_tol)
    return SampledSignal(tgrid, acc.real), float(np.max(np.abs(acc.imag)))
