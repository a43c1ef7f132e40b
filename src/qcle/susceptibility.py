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

Dirac components are carried symbolically and convolved exactly; regular
parts are convolved by grid summation with zero padding (computed via FFT,
equal to the direct sums to roundoff). Every operation re-enforces exact
Hermitian symmetry of its output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from ._numutil import linear_convolve, phase_stepped_sum, trapezoid_weights
from .djm import DjmSolution, FunctionalProblem, djm_solve
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


def phi_omega(problem: SusceptibilityProblem) -> Spectrum:
    """Inhomogeneity: chi_tilde on the grid plus the tilt Dirac component
    (0, -2 pi (eps/f0) chi_tilde(0)) when eps != 0."""
    pot, bath = problem.potential, problem.bath
    if pot.eta == 0 and pot.epsilon != 0:
        raise ValueError("chi_tilde(0) singular for eta = 0: tilt term undefined")
    reg = kernels.chi_tilde(problem.grid.omegas, bath.gamma, pot.eta)
    singular: dict[int, complex] = {}
    if pot.epsilon != 0:
        weight = -2.0 * np.pi * (pot.epsilon / pot.f0) / pot.eta
        singular[problem.grid.zero_index] = complex(weight)
    return Spectrum(problem.grid, reg, singular).hermitian_symmetrized()


def _convolve_spectra(a: Spectrum, b: Spectrum) -> Spectrum:
    """(a * b)(w) = int a(w - w') b(w') dw' truncated to the grid.

    regular*regular by grid summation (zero padding outside), Dirac parts
    convolved exactly: a Dirac (w0, w) shifts the other factor by w0; two
    Diracs combine into one at the summed location.
    """
    if a.grid != b.grid:
        raise ValueError("spectra live on different grids")
    grid = a.grid
    n, z = grid.n, grid.zero_index
    dw = grid.d_omega
    full = linear_convolve(a.values, b.values) * dw
    reg = full[z: z + n].copy()

    def shift_into(target: np.ndarray, vals: np.ndarray, idx: int, weight: complex):
        # add weight * vals shifted so node j of vals lands at j + (idx - z)
        off = idx - z
        if off == 0:
            target += weight * vals
        elif off > 0:
            target[off:] += weight * vals[:n - off]
        else:
            target[:off] += weight * vals[-off:]

    for i, w in a.singular.items():
        shift_into(reg, b.values, i, w)
    for i, w in b.singular.items():
        shift_into(reg, a.values, i, w)
    singular: dict[int, complex] = {}
    for i, wa in a.singular.items():
        for j, wb in b.singular.items():
            k = i + j - z
            if not 0 <= k < n:
                raise ValueError("Dirac convolution left the frequency grid")
            singular[k] = singular.get(k, 0.0) + wa * wb
    return Spectrum(grid, reg, singular)


def psi_operator(chi: Spectrum, problem: SusceptibilityProblem) -> Spectrum:
    """Nonlinear frequency-domain operator (zero when alpha = 0)."""
    if chi.grid != problem.grid:
        raise ValueError("chi must live on the problem grid")
    pot = problem.potential
    grid = problem.grid
    two_pi = 2.0 * np.pi
    chi2 = _convolve_spectra(chi, chi)
    bracket_reg = pot.alpha * (3.0 * problem.sigma2_spec.values
                               + (pot.f0**2 / two_pi) * chi2.values)
    bracket_sing = {i: pot.alpha * 3.0 * w
                    for i, w in problem.sigma2_spec.singular.items()}
    for i, w in chi2.singular.items():
        bracket_sing[i] = bracket_sing.get(i, 0.0) + pot.alpha * (pot.f0**2 / two_pi) * w
    bracket = Spectrum(grid, bracket_reg, bracket_sing)
    outer = _convolve_spectra(chi, bracket)
    chit = kernels.chi_tilde(grid.omegas, problem.bath.gamma, pot.eta)
    reg = -(1.0 / two_pi) * chit * outer.values
    singular = {i: -(1.0 / two_pi) * chit[i] * w for i, w in outer.singular.items()}
    return Spectrum(grid, reg, singular).hermitian_symmetrized()


def solve_susceptibility(problem: SusceptibilityProblem, tol: float = 1e-8,
                         k_max: int = 25) -> tuple[Spectrum, DjmSolution]:
    """Banach recursion with f = phi_omega and B = psi_operator."""
    f = phi_omega(problem)

    def apply_b(chi: Spectrum) -> Spectrum:
        return psi_operator(chi, problem)

    sol = djm_solve(FunctionalProblem(f, apply_b), tol=tol, k_max=k_max)
    return sol.partial_sum.hermitian_symmetrized(), sol


class ReconstructedResponse(NamedTuple):
    signal: SampledSignal
    imag_residual: float


def _inverse_transform(chi: Spectrum, times: np.ndarray,
                       edge_tol: float) -> np.ndarray:
    """(1/2pi) int chi(w) e^{-iwt} dw at the given times (complex): grid
    quadrature of the regular part plus the exact Dirac contributions.

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
    om = grid.omegas
    for i, w in chi.singular.items():
        acc += w * np.exp(-1j * om[i] * t)
    return acc / (2.0 * np.pi)


def response_from_susceptibility(chi: Spectrum, tgrid: TimeGrid,
                                 edge_tol: float = 1e-3,
                                 ) -> ReconstructedResponse:
    """Inverse transform R(t) on the time grid; the largest imaginary residue
    over the nodes is returned as a diagnostic."""
    acc = _inverse_transform(chi, tgrid.times, edge_tol)
    imag_residual = float(np.max(np.abs(acc.imag)))
    return ReconstructedResponse(SampledSignal(tgrid, acc.real), imag_residual)


def fourier_forward(signal: SampledSignal, grid: FreqGrid,
                    edge_tol: float = 1e-3) -> Spectrum:
    """One-sided transform chi(w) = int_0^tmax R(t) e^{iwt} dt by trapezoid
    quadrature; the signal must have decayed at t_max.

    When the grids align (d_omega * dt = 2*pi/N for integer N >= n_t) the
    identical sums are evaluated by a zero-padded FFT.
    """
    tail = abs(signal.values[-1])
    if tail > edge_tol:
        raise EdgeToleranceError(
            f"|signal(t_max)| = {tail:.3e} exceeds {edge_tol:.1e}: undetected "
            "decay; extend t_max or split off the plateau first"
        )
    dt = signal.grid.dt
    wt = trapezoid_weights(signal.grid.n, dt)
    weighted = signal.values * wt
    n_align = 2.0 * np.pi / (grid.d_omega * dt)
    n_int = int(round(n_align))
    if abs(n_align - n_int) < 1e-6 and n_int >= signal.grid.n:
        buf = np.zeros(n_int, dtype=complex)
        buf[: signal.grid.n] = weighted
        big = np.fft.ifft(buf) * n_int  # big[l] = sum_j v_j e^{2 pi i jl/N}
        idx = (np.arange(grid.n) - grid.zero_index) % n_int
        vals = big[idx]
    else:
        vals = phase_stepped_sum(weighted, 0.0, dt, grid.omegas, +1)
    return Spectrum(grid, vals).hermitian_symmetrized()
