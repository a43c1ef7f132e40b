"""Frequency-domain susceptibility machinery."""

import numpy as np
import pytest

from qcle import (BathParams, EdgeToleranceError, FreqGrid, PotentialParams,
                  Spectrum, SusceptibilityProblem, TimeGrid, chi_tilde, chi_v,
                  phi_omega, psi_operator, response_from_susceptibility,
                  solve_susceptibility)
from qcle import kernels
from qcle._numutil import hermitian_convolve, hermitian_transform
from qcle.params import parabolic
from qcle.susceptibility import _inverse_transform

BATH = BathParams(gamma=1.0, temp=1.0, nu=1e4)


def _zero_sigma_spec(grid):
    return Spectrum(grid, np.zeros(grid.zero_index + 1))


def _half(grid):
    return grid.omegas[grid.zero_index:]


def test_phi_omega_harmonic():
    grid = FreqGrid(10.0, 401)
    prob = SusceptibilityProblem(parabolic(), BATH, _zero_sigma_spec(grid))
    phi = phi_omega(prob)
    assert np.array_equal(phi.full(), chi_tilde(grid.omegas, 1.0, 1.0))
    assert phi.dirac == 0


def test_phi_omega_tilt_weight():
    grid = FreqGrid(10.0, 401)
    pot = PotentialParams(eta=1.0, alpha=0.0, epsilon=0.25, f0=0.25)
    prob = SusceptibilityProblem(pot, BATH, _zero_sigma_spec(grid))
    phi = phi_omega(prob)
    assert phi.dirac == pytest.approx(-2.0 * np.pi)  # eps = f0, chi_tilde(0) = 1


def test_phi_omega_kappa_zero_guard():
    grid = FreqGrid(10.0, 401)
    pot = PotentialParams(eta=0.0, alpha=0.5, epsilon=0.1, f0=0.1)
    prob = SusceptibilityProblem(pot, BATH, _zero_sigma_spec(grid))
    with pytest.raises(ValueError):
        phi_omega(prob)


def test_psi_vanishes_for_alpha_zero():
    grid = FreqGrid(10.0, 401)
    prob = SusceptibilityProblem(parabolic(), BATH, _zero_sigma_spec(grid))
    chi = phi_omega(prob)
    psi = psi_operator(chi, prob)
    assert np.max(np.abs(psi.half)) == 0.0
    assert psi.dirac == 0


def test_psi_delta_algebra():
    # chi a pure Dirac at 0, sigma2 spectrum a pure Dirac (0, 2 pi s_eq):
    # psi is a pure Dirac with weight -chi_tilde(0) w (3 a s_eq + a f0^2 w^2/(4 pi^2))
    grid = FreqGrid(10.0, 401)
    alpha, f0, s_eq, w = 0.4, 0.8, 0.9, 1.7
    pot = PotentialParams(eta=1.0, alpha=alpha, epsilon=0.0, f0=f0)
    s2 = Spectrum(grid, np.zeros(grid.zero_index + 1), 2.0 * np.pi * s_eq)
    prob = SusceptibilityProblem(pot, BATH, s2)
    chi = Spectrum(grid, np.zeros(grid.zero_index + 1), w)
    psi = psi_operator(chi, prob)
    assert np.max(np.abs(psi.half)) == 0.0
    expected = -1.0 * w * (3 * alpha * s_eq + alpha * f0**2 * w**2 / (4 * np.pi**2))
    assert psi.dirac == pytest.approx(expected, rel=1e-12)


def _convolve_unshared(a, b, grid):
    """Reference: one spectral convolution of two full-grid (values, Dirac
    weight) pairs, the regular parts by np.convolve's direct sum."""
    (fa, wa), (fb, wb) = a, b
    z = grid.zero_index
    reg = np.convolve(fa, fb)[z: z + grid.n] * grid.d_omega
    if wa:
        reg += wa * fb
    if wb:
        reg += wb * fa
    return reg, wa * wb


def _psi_unshared(chi, problem):
    """Reference: psi_operator on every node of the grid, fed chi.full(),
    through full complex convolutions; returns (values, Dirac weight)."""
    pot, grid = problem.potential, problem.grid
    two_pi = 2.0 * np.pi
    c = (chi.full(), chi.dirac)
    chi2, w2 = _convolve_unshared(c, c, grid)
    bracket = (pot.alpha * (3.0 * problem.sigma2_spec.full()
                            + (pot.f0**2 / two_pi) * chi2),
               pot.alpha * 3.0 * problem.sigma2_spec.dirac
               + pot.alpha * (pot.f0**2 / two_pi) * w2)
    outer, w_outer = _convolve_unshared(c, bracket, grid)
    chit = kernels.chi_tilde(grid.omegas, problem.bath.gamma, pot.eta)
    return (-(1.0 / two_pi) * chit * outer,
            -(1.0 / two_pi) * chit[grid.zero_index] * w_outer)


@pytest.mark.parametrize("epsilon", [0.0, 0.1], ids=["untilted", "tilted"])
@pytest.mark.parametrize("s_dirac", [0.0, 2.0 * np.pi * 0.3],
                         ids=["no_sigma_dirac", "sigma_dirac"])
def test_psi_matches_complex_route(epsilon, s_dirac):
    # convolving through the w >= 0 halves changes the sums by roundoff only
    grid = FreqGrid(40.0, 2001)
    w = _half(grid)
    s2 = Spectrum(grid, 1.0 / (1.0 + w * w) + 1j * w / (1.0 + w * w) ** 2,
                  s_dirac)
    pot = PotentialParams(eta=-1.0, alpha=0.5, epsilon=epsilon, f0=0.3)
    prob = SusceptibilityProblem(pot, BATH, s2)
    chi = phi_omega(prob)
    assert (chi.dirac != 0) == (epsilon != 0)
    for _ in range(2):  # phi, then a first iterate with a wider spectrum
        ours = psi_operator(chi, prob)
        ref, ref_dirac = _psi_unshared(chi, prob)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(ours.full() - ref)) <= 1e-14 * scale
        assert ours.dirac == ref_dirac
        chi = chi + ours


def _convolve_spectra_afresh(a, b):
    """Reference: susceptibility._convolve_spectra with hermitian_convolve
    transforming a's half itself."""
    reg = hermitian_convolve(a.half, b.half, hermitian_transform(a.half))
    reg *= a.grid.d_omega
    if a.dirac:
        reg += a.dirac * b.half
    if b.dirac:
        reg += b.dirac * a.half
    return Spectrum(a.grid, reg, np.float64(a.dirac) * b.dirac)


def _psi_two_convolutions(chi, problem):
    """Reference: psi_operator with each convolution transforming chi's
    half afresh."""
    pot = problem.potential
    two_pi = 2.0 * np.pi
    f02 = pot.f0**2
    chi2 = _convolve_spectra_afresh(chi, chi)
    bracket = Spectrum(problem.grid,
                       pot.alpha * (3.0 * problem.sigma2_spec.half
                                    + (f02 / two_pi) * chi2.half),
                       pot.alpha * 3.0 * problem.sigma2_spec.dirac
                       + pot.alpha * (f02 / two_pi) * chi2.dirac)
    outer = _convolve_spectra_afresh(chi, bracket)
    chit = problem.chi_tilde_half
    return Spectrum(problem.grid, -(1.0 / two_pi) * chit * outer.half,
                    -(1.0 / two_pi) * chit[0].real * outer.dirac)


@pytest.mark.parametrize("dirac", [0.0, 0.1], ids=["no_dirac", "dirac"])
def test_psi_transforms_chi_once(monkeypatch, dirac):
    # one hfft of chi's half serves chi * chi and chi * bracket (the parent
    # took it once per convolution: 3 hfft per application), with the bits
    # of the two separate convolutions
    grid = FreqGrid(40.0, 2001)
    w = _half(grid)
    s2 = Spectrum(grid, 1.0 / (1.0 + w * w) + 1j * w / (1.0 + w * w) ** 2,
                  2.0 * np.pi * 0.3 if dirac else 0.0)
    pot = PotentialParams(eta=1.0, alpha=0.5, epsilon=dirac, f0=0.3)
    prob = SusceptibilityProblem(pot, BATH, s2)
    chi = phi_omega(prob)
    chi = chi + psi_operator(chi, prob)
    assert (chi.dirac != 0) == bool(dirac)
    calls = []
    hfft = np.fft.hfft
    monkeypatch.setattr(np.fft, "hfft", lambda *a, **k: calls.append(1) or hfft(*a, **k))
    psi = psi_operator(chi, prob)
    assert len(calls) == 2
    ref = _psi_two_convolutions(chi, prob)
    assert np.array_equal(psi.half.view(np.uint64), ref.half.view(np.uint64))
    assert np.float64(psi.dirac).view(np.uint64) == np.float64(ref.dirac).view(np.uint64)


def test_psi_time_domain_oracle():
    # forward transform of the time-domain operator on R(t) = e^{-t} sin t
    # with constant sigma2: F{3 a s R + a f0^2 R^3} must equal psi/(-chi_tilde)
    alpha, f0, s_const = 0.4, 0.8, 0.7
    pot = PotentialParams(eta=1.0, alpha=alpha, epsilon=0.0, f0=f0)
    grid = FreqGrid(200.0, 8001)
    s2 = Spectrum(grid, np.zeros(grid.zero_index + 1), 2.0 * np.pi * s_const)
    prob = SusceptibilityProblem(pot, BATH, s2)
    chi_r = Spectrum(grid, 1.0 / ((1.0 - 1j * _half(grid)) ** 2 + 1.0))
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
    lhs = psi.full()[mask] / (-chi_tilde(om, BATH.gamma, pot.eta))
    assert np.max(np.abs(lhs - f_time)) < 1e-3


def test_solve_ho_single_term():
    grid = FreqGrid(10.0, 2001)
    prob = SusceptibilityProblem(parabolic(), BATH, _zero_sigma_spec(grid))
    chi, sol = solve_susceptibility(prob, tol=1e-10, k_max=25)
    assert sol.converged
    assert np.max(np.abs(chi.full() - chi_tilde(grid.omegas, 1.0, 1.0))) == 0.0


def test_split_keeps_the_harmonic_bits():
    # at alpha = 0 the plateau shifts nothing: the split solves the problem's
    # own phi, in one application that adds an exact zero
    grid = FreqGrid(50.0, 2001)
    sigma2 = Spectrum(grid, 0.2 / (1.0 + _half(grid)**2), 2.0 * np.pi * 0.4)
    pot = PotentialParams(eta=1.0, alpha=0.0, epsilon=0.05, f0=0.1)
    prob = SusceptibilityProblem(pot, BATH, sigma2)
    chi, sol = solve_susceptibility(prob, tol=1e-10, k_max=25)
    phi = phi_omega(prob)
    assert sol.converged and sol.k == 2
    assert np.array_equal(chi.half, phi.half) and chi.dirac == phi.dirac


@pytest.mark.parametrize("excess", [0.0, 0.5], ids=["zero", "negative"])
def test_split_rejects_a_nonpositive_shifted_eta(monkeypatch, excess):
    # a negative plateau weight drives eta + 3 alpha sigma_eq to 0 or below:
    # chi_tilde_eff is then singular at w = 0 or no decaying response's
    # transform, and the solve refuses before the recursion starts
    grid = FreqGrid(10.0, 401)
    alpha, dirac = 0.5, -2.0 * np.pi * 0.8
    eta = -3.0 * alpha * (dirac / (2.0 * np.pi)) - excess
    pot = PotentialParams(eta=eta, alpha=alpha, epsilon=0.0, f0=0.1)
    prob = SusceptibilityProblem(
        pot, BATH, Spectrum(grid, np.zeros(grid.zero_index + 1), dirac))

    def no_recursion(*args, **kwargs):
        raise AssertionError("the recursion started")

    monkeypatch.setattr("qcle.susceptibility.djm_solve", no_recursion)
    with pytest.raises(ValueError, match="eta \\+ 3 alpha sigma_eq"):
        solve_susceptibility(prob, tol=1e-10, k_max=25)


@pytest.mark.parametrize("epsilon", [0.0, 0.05])
def test_solution_is_the_hermitian_partial_sum(epsilon):
    # the partial sum itself is the solution, a fixed point of
    # chi = phi + psi[chi] to the recursion's tolerance, and it is Hermitian
    # by its type: no projection is needed or possible
    grid = FreqGrid(50.0, 2001)
    pot = PotentialParams(eta=1.0, alpha=0.3, epsilon=epsilon, f0=0.1)
    sigma2 = Spectrum(grid, 0.2 / (1.0 + _half(grid)**2), 2.0 * np.pi * 0.4)
    prob = SusceptibilityProblem(pot, BATH, sigma2)
    chi, sol = solve_susceptibility(prob, tol=1e-10, k_max=40)
    assert sol.converged and sol.k > 2
    assert chi is sol.partial_sum
    assert (chi - phi_omega(prob) - psi_operator(chi, prob)).sup_norm() < 1e-10
    full = chi.full()
    assert np.array_equal(full, np.conj(full[::-1]))
    assert type(chi.dirac) is float


@pytest.mark.parametrize("dirac", [0.0, 2.0 * np.pi * 0.3],
                         ids=["no_dirac", "dirac"])
def test_inverse_transform_matches_full_grid_direct_sum(dirac):
    # twice the real part of the sum over the half is the trapezoid rule
    # over every node, where the end weight dw/2 at w = 0 counts that node once
    fg = FreqGrid(400.0, 16001)
    chi = Spectrum(fg, chi_tilde(_half(fg), 1.0, 1.0), dirac)
    t = np.linspace(-2.0, 15.0, 171)
    wt = np.full(fg.n, fg.d_omega)
    wt[0] = wt[-1] = fg.d_omega / 2.0
    direct = (np.exp(-1j * np.outer(t, fg.omegas)) @ (chi.full() * wt)
              + dirac) / (2.0 * np.pi)
    got = _inverse_transform(chi, t, 1e-3)
    assert got.dtype == float
    assert np.max(np.abs(got - direct)) <= 1e-13 * np.max(np.abs(direct))


def test_reconstruction_ho_closed_form_pair():
    fg = FreqGrid(5000.0, 100001)
    chi = Spectrum(fg, chi_tilde(_half(fg), 1.0, 1.0))
    tg = TimeGrid(10.0, 501)
    rec = response_from_susceptibility(chi, tg)
    assert np.max(np.abs(rec.values - chi_v(tg.times, 1.0, 1.0))) < 1e-4


def test_reconstruction_singular_only():
    fg = FreqGrid(50.0, 2001)
    c = 0.37
    chi = Spectrum(fg, np.zeros(fg.zero_index + 1), 2.0 * np.pi * c)
    rec = response_from_susceptibility(chi, TimeGrid(5.0, 101))
    assert np.max(np.abs(rec.values - c)) < 1e-12


def test_reconstruction_edge_guard():
    fg = FreqGrid(3.0, 301)
    chi = Spectrum(fg, chi_tilde(_half(fg), 1.0, 1.0))
    with pytest.raises(EdgeToleranceError):
        response_from_susceptibility(chi, TimeGrid(5.0, 101), edge_tol=1e-3)


def test_causality_of_ho_spectrum():
    fg = FreqGrid(1000.0, 40001)
    chi = Spectrum(fg, chi_tilde(_half(fg), 1.0, 1.0))
    t_neg = np.linspace(-8.0, -0.5, 151)
    assert np.max(np.abs(_inverse_transform(chi, t_neg, 1e-3))) < 1e-3


def test_chi_tilde_imaginary_part_sign():
    # odd in omega; positive for omega > 0 under the e^{+i w t} convention
    om = np.linspace(0.1, 10.0, 100)
    vals = chi_tilde(om, 1.0, 1.0)
    assert np.all(vals.imag > 0)
    assert np.array_equal(chi_tilde(-om, 1.0, 1.0).imag, -vals.imag)


def test_grid_mismatch_rejected():
    g1 = FreqGrid(10.0, 401)
    g2 = FreqGrid(10.0, 801)
    prob = SusceptibilityProblem(parabolic(), BATH, _zero_sigma_spec(g1))
    with pytest.raises(ValueError):
        psi_operator(Spectrum(g2, np.zeros(g2.zero_index + 1)), prob)
