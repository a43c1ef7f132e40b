"""Frequency-domain susceptibility machinery."""

import numpy as np
import pytest

from qcle import (BathParams, EdgeToleranceError, FreqGrid, PotentialParams,
                  Spectrum, SusceptibilityProblem, TimeGrid, chi_tilde, chi_v,
                  phi_omega, psi_operator, response_from_susceptibility,
                  solve_susceptibility)
from qcle import kernels
from qcle._numutil import linear_convolve
from qcle.params import parabolic
from qcle.susceptibility import _inverse_transform

BATH = BathParams(gamma=1.0, temp=1.0, nu=1e4)


def _zero_sigma_spec(grid):
    return Spectrum(grid, np.zeros(grid.n, dtype=complex))


def test_phi_omega_harmonic():
    grid = FreqGrid(10.0, 401)
    prob = SusceptibilityProblem(parabolic(), BATH, _zero_sigma_spec(grid), grid)
    phi = phi_omega(prob)
    assert np.array_equal(phi.values, chi_tilde(grid.omegas, 1.0, 1.0))
    assert phi.dirac == 0
    assert phi.is_hermitian()


def test_phi_omega_tilt_weight():
    grid = FreqGrid(10.0, 401)
    pot = PotentialParams(eta=1.0, alpha=0.0, epsilon=0.25, f0=0.25)
    prob = SusceptibilityProblem(pot, BATH, _zero_sigma_spec(grid), grid)
    phi = phi_omega(prob)
    assert phi.dirac == pytest.approx(-2.0 * np.pi)  # eps = f0, chi_tilde(0) = 1


def test_phi_omega_kappa_zero_guard():
    grid = FreqGrid(10.0, 401)
    pot = PotentialParams(eta=0.0, alpha=0.5, epsilon=0.1, f0=0.1)
    prob = SusceptibilityProblem(pot, BATH, _zero_sigma_spec(grid), grid)
    with pytest.raises(ValueError):
        phi_omega(prob)


def test_psi_vanishes_for_alpha_zero():
    grid = FreqGrid(10.0, 401)
    prob = SusceptibilityProblem(parabolic(), BATH, _zero_sigma_spec(grid), grid)
    chi = phi_omega(prob)
    psi = psi_operator(chi, prob)
    assert np.max(np.abs(psi.values)) == 0.0
    assert psi.dirac == 0


def test_psi_delta_algebra():
    # chi a pure Dirac at 0, sigma2 spectrum a pure Dirac (0, 2 pi s_eq):
    # psi is a pure Dirac with weight -chi_tilde(0) w (3 a s_eq + a f0^2 w^2/(4 pi^2))
    grid = FreqGrid(10.0, 401)
    alpha, f0, s_eq, w = 0.4, 0.8, 0.9, 1.7
    pot = PotentialParams(eta=1.0, alpha=alpha, epsilon=0.0, f0=f0)
    s2 = Spectrum(grid, np.zeros(grid.n, dtype=complex), 2.0 * np.pi * s_eq)
    prob = SusceptibilityProblem(pot, BATH, s2, grid)
    chi = Spectrum(grid, np.zeros(grid.n, dtype=complex), w)
    psi = psi_operator(chi, prob)
    assert np.max(np.abs(psi.values)) == 0.0
    expected = -1.0 * w * (3 * alpha * s_eq + alpha * f0**2 * w**2 / (4 * np.pi**2))
    assert psi.dirac == pytest.approx(expected, rel=1e-12)


def _convolve_unshared(a, b):
    """Reference: one spectral convolution of the full grids through the
    complex route of linear_convolve."""
    grid = a.grid
    n, z = grid.n, grid.zero_index
    full = linear_convolve(a.values, b.values) * grid.d_omega
    reg = full[z: z + n].copy()
    if a.dirac:
        reg += a.dirac * b.values
    if b.dirac:
        reg += b.dirac * a.values
    return Spectrum(grid, reg, a.dirac * b.dirac)


def _psi_unshared(chi, problem):
    """Reference: psi_operator through full complex convolutions, projected
    onto Hermitian symmetry."""
    pot, grid = problem.potential, problem.grid
    two_pi = 2.0 * np.pi
    chi2 = _convolve_unshared(chi, chi)
    bracket = Spectrum(
        grid,
        pot.alpha * (3.0 * problem.sigma2_spec.values
                     + (pot.f0**2 / two_pi) * chi2.values),
        pot.alpha * 3.0 * problem.sigma2_spec.dirac
        + pot.alpha * (pot.f0**2 / two_pi) * chi2.dirac)
    outer = _convolve_unshared(chi, bracket)
    chit = kernels.chi_tilde(grid.omegas, problem.bath.gamma, pot.eta)
    reg = -(1.0 / two_pi) * chit * outer.values
    dirac = -(1.0 / two_pi) * chit[grid.zero_index] * outer.dirac
    return Spectrum(grid, reg, dirac).hermitian_symmetrized()


@pytest.mark.parametrize("epsilon", [0.0, 0.1], ids=["untilted", "tilted"])
@pytest.mark.parametrize("s_dirac", [0.0, 2.0 * np.pi * 0.3],
                         ids=["no_sigma_dirac", "sigma_dirac"])
def test_psi_matches_complex_route(epsilon, s_dirac):
    # convolving through the w >= 0 halves changes the sums by roundoff only
    grid = FreqGrid(40.0, 2001)
    w = grid.omegas
    s2 = Spectrum(grid, 1.0 / (1.0 + w * w) + 1j * w / (1.0 + w * w) ** 2,
                  s_dirac)
    pot = PotentialParams(eta=-1.0, alpha=0.5, epsilon=epsilon, f0=0.3)
    prob = SusceptibilityProblem(pot, BATH, s2, grid)
    chi = phi_omega(prob)
    assert (chi.dirac != 0) == (epsilon != 0)
    for _ in range(2):  # phi, then a first iterate with a wider spectrum
        ours, ref = psi_operator(chi, prob), _psi_unshared(chi, prob)
        scale = np.max(np.abs(ref.values))
        assert np.max(np.abs(ours.values - ref.values)) <= 1e-14 * scale
        assert ours.dirac == ref.dirac
        assert ours.is_hermitian()
        chi = chi + ours


def test_psi_requires_hermitian_chi():
    grid = FreqGrid(40.0, 1601)
    pot = PotentialParams(eta=1.0, alpha=0.3, epsilon=0.0, f0=0.4)
    prob = SusceptibilityProblem(pot, BATH, _zero_sigma_spec(grid), grid)
    values = phi_omega(prob).values.copy()
    values[grid.zero_index + 7] += 1e-3j
    with pytest.raises(ValueError, match="Hermitian"):
        psi_operator(Spectrum(grid, values), prob)


def test_problem_requires_hermitian_sigma2_spectrum():
    grid = FreqGrid(10.0, 401)
    sym = 1.0 / (1.0 + grid.omegas**2)
    with pytest.raises(ValueError, match="Hermitian"):
        SusceptibilityProblem(parabolic(), BATH,
                              Spectrum(grid, sym + 1e-3j * (grid.omegas > 0)), grid)
    with pytest.raises(ValueError, match="Hermitian"):
        SusceptibilityProblem(parabolic(), BATH, Spectrum(grid, sym, 1.0 + 0.5j), grid)


def test_psi_time_domain_oracle():
    # forward transform of the time-domain operator on R(t) = e^{-t} sin t
    # with constant sigma2: F{3 a s R + a f0^2 R^3} must equal psi/(-chi_tilde)
    alpha, f0, s_const = 0.4, 0.8, 0.7
    pot = PotentialParams(eta=1.0, alpha=alpha, epsilon=0.0, f0=f0)
    grid = FreqGrid(200.0, 8001)
    s2 = Spectrum(grid, np.zeros(grid.n, dtype=complex), 2.0 * np.pi * s_const)
    prob = SusceptibilityProblem(pot, BATH, s2, grid)
    chi_r = Spectrum(grid, 1.0 / ((1.0 - 1j * grid.omegas) ** 2 + 1.0))
    psi = psi_operator(chi_r, prob)

    t = np.linspace(0.0, 30.0, 60001)
    dt = t[1] - t[0]
    wts = np.full(t.size, dt)
    wts[0] = wts[-1] = dt / 2
    r = np.exp(-t) * np.sin(t)
    g = (3 * alpha * s_const * r + alpha * f0**2 * r**3) * wts
    mask = np.abs(grid.omegas) <= 20.0
    om = grid.omegas[mask]
    f_time = np.array([np.sum(g * np.exp(1j * w * t)) for w in om])
    lhs = psi.values[mask] / (-chi_tilde(om, BATH.gamma, pot.eta))
    assert np.max(np.abs(lhs - f_time)) < 1e-3


def test_solve_ho_single_term():
    grid = FreqGrid(10.0, 2001)
    prob = SusceptibilityProblem(parabolic(), BATH, _zero_sigma_spec(grid), grid)
    chi, sol = solve_susceptibility(prob, tol=1e-10, k_max=25)
    assert sol.converged
    assert np.max(np.abs(chi.values - chi_tilde(grid.omegas, 1.0, 1.0))) == 0.0
    assert chi.is_hermitian()


@pytest.mark.parametrize("epsilon", [0.0, 0.05])
def test_solution_is_the_hermitian_partial_sum(epsilon):
    # every partial sum is f + B(S) of two projected spectra, so projecting
    # it again would change no byte
    grid = FreqGrid(50.0, 2001)
    pot = PotentialParams(eta=1.0, alpha=0.3, epsilon=epsilon, f0=0.1)
    sigma2 = Spectrum(grid, 0.2 / (1.0 + grid.omegas**2), 2.0 * np.pi * 0.4)
    prob = SusceptibilityProblem(pot, BATH, sigma2, grid)
    chi, sol = solve_susceptibility(prob, tol=1e-10, k_max=40)
    assert sol.converged and sol.k > 2
    assert chi is sol.partial_sum
    sym = chi.hermitian_symmetrized()
    assert chi.values.tobytes() == sym.values.tobytes()
    assert repr(chi.dirac) == repr(sym.dirac)


def test_reconstruction_ho_closed_form_pair():
    fg = FreqGrid(5000.0, 100001)
    chi = Spectrum(fg, chi_tilde(fg.omegas, 1.0, 1.0)).hermitian_symmetrized()
    tg = TimeGrid(10.0, 501)
    rec, imag_resid = response_from_susceptibility(chi, tg)
    assert np.max(np.abs(rec.values - chi_v(tg.times, 1.0, 1.0))) < 1e-4
    assert imag_resid < 1e-10


def test_reconstruction_singular_only():
    fg = FreqGrid(50.0, 2001)
    c = 0.37
    chi = Spectrum(fg, np.zeros(fg.n, dtype=complex), 2.0 * np.pi * c)
    rec, _ = response_from_susceptibility(chi, TimeGrid(5.0, 101))
    assert np.max(np.abs(rec.values - c)) < 1e-12


def test_reconstruction_edge_guard():
    fg = FreqGrid(3.0, 301)
    chi = Spectrum(fg, chi_tilde(fg.omegas, 1.0, 1.0))
    with pytest.raises(EdgeToleranceError):
        response_from_susceptibility(chi, TimeGrid(5.0, 101), edge_tol=1e-3)


def test_causality_of_ho_spectrum():
    fg = FreqGrid(1000.0, 40001)
    chi = Spectrum(fg, chi_tilde(fg.omegas, 1.0, 1.0)).hermitian_symmetrized()
    t_neg = np.linspace(-8.0, -0.5, 151)
    assert np.max(np.abs(_inverse_transform(chi, t_neg, 1e-3).real)) < 1e-3


def test_chi_tilde_imaginary_part_sign():
    # odd in omega; positive for omega > 0 under the e^{+i w t} convention
    om = np.linspace(0.1, 10.0, 100)
    vals = chi_tilde(om, 1.0, 1.0)
    assert np.all(vals.imag > 0)
    assert np.array_equal(chi_tilde(-om, 1.0, 1.0).imag, -vals.imag)


def test_hermitian_preserved_by_operations():
    grid = FreqGrid(40.0, 1601)
    pot = PotentialParams(eta=1.0, alpha=0.3, epsilon=0.2, f0=0.4)
    s2 = Spectrum(grid, (1.0 / (1.0 + grid.omegas**2)).astype(complex),
                  2.0 * np.pi * 0.8)
    prob = SusceptibilityProblem(pot, BATH, s2, grid)
    phi = phi_omega(prob)
    assert phi.is_hermitian()
    psi = psi_operator(phi, prob)
    assert psi.is_hermitian()
    assert (phi + psi).is_hermitian()
    assert (phi - psi).is_hermitian()


def test_grid_mismatch_rejected():
    g1 = FreqGrid(10.0, 401)
    g2 = FreqGrid(10.0, 801)
    prob = SusceptibilityProblem(parabolic(), BATH, _zero_sigma_spec(g1), g1)
    with pytest.raises(ValueError):
        psi_operator(Spectrum(g2, np.zeros(g2.n, dtype=complex)), prob)
    with pytest.raises(ValueError):
        SusceptibilityProblem(parabolic(), BATH, _zero_sigma_spec(g2), g1)
