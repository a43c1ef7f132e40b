"""Closed-form kernels and bath correlation functions."""

import numpy as np
import pytest

from qcle import (chi_q, chi_tilde, chi_v, chi_v_dot, noise_correlation,
                  noise_psd, omega0, xi_q0_corr)
from qcle.kernels import xi_q0_weights


def test_omega0_cases():
    assert omega0(2.0, 1.0) == 0.0
    assert omega0(3.0, 2.0) == 1.0
    assert omega0(1.0, 1.0) == pytest.approx(1j * np.sqrt(3.0))


def test_chi_v_at_zero_and_slope():
    assert chi_v(0.0, 1.3, 0.7) == 0.0
    h = 1e-7
    slope = (chi_v(h, 1.3, 0.7) - chi_v(0.0, 1.3, 0.7)) / h
    assert slope == pytest.approx(1.0, abs=1e-6)
    assert chi_v_dot(0.0, 1.3, 0.7) == pytest.approx(1.0)


def test_chi_v_critical_damping_limit():
    # gamma^2 = 4 eta: chi_v = t e^{-gamma t/2}; also continuous across it
    assert chi_v(1.0, 2.0, 1.0) == pytest.approx(np.exp(-1.0), rel=1e-12)
    for sign in (+1.0, -1.0):
        eta = (4.0 - sign * 1e-8) / 4.0
        assert chi_v(1.0, 2.0, eta) == pytest.approx(np.exp(-1.0), abs=1e-6)
        assert chi_q(1.0, 2.0, eta) == pytest.approx(chi_q(1.0, 2.0, 1.0), abs=1e-6)


def test_chi_q_at_zero_and_decay():
    assert chi_q(0.0, 0.8, 1.2) == 1.0
    t = np.array([40.0, 60.0])
    assert np.all(np.abs(chi_q(t, 0.8, 1.2)) < 1e-6)


@pytest.mark.parametrize("gamma,eta", [(1.0, 1.0), (0.5, 2.0), (3.0, 1.0),
                                       (2.0, 1.000001), (1.0, -1.0)])
def test_chi_identity(gamma, eta):
    # chi_q = chi_v_dot + gamma chi_v at every node
    t = np.linspace(0.0, 5.0, 501)
    lhs = chi_q(t, gamma, eta)
    rhs = chi_v_dot(t, gamma, eta) + gamma * chi_v(t, gamma, eta)
    assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_chi_v_solves_damped_oscillator():
    # finite-difference residual of chi_v'' + gamma chi_v' + eta chi_v = 0
    gamma, eta = 1.0, 1.0
    t = np.arange(0.0, 5.0, 1e-3)
    cv = chi_v(t, gamma, eta)
    dd = (cv[2:] - 2 * cv[1:-1] + cv[:-2]) / 1e-6
    d1 = (cv[2:] - cv[:-2]) / 2e-3
    res = dd + gamma * d1 + eta * cv[1:-1]
    assert np.max(np.abs(res)) < 1e-4


def test_chi_v_rejects_negative_time():
    with pytest.raises(ValueError):
        chi_v(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        chi_q(np.array([0.0, -1.0]), 1.0, 1.0)


def test_chi_tilde_values():
    assert chi_tilde(0.0, 1.0, 1.0) == pytest.approx(1.0)
    assert chi_tilde(1.0, 1.0, 1.0) == pytest.approx(1j)


def test_chi_tilde_hermitian_on_symmetric_grid():
    from qcle import FreqGrid
    om = FreqGrid(8.0, 321).omegas  # exactly negation-symmetric by construction
    vals = chi_tilde(om, 0.7, 1.3)
    assert np.array_equal(vals, np.conj(vals[::-1]))


def test_chi_tilde_singular_guard():
    with pytest.raises(ValueError):
        chi_tilde(np.array([-1.0, 0.0, 1.0]), 1.0, 0.0)


def test_chi_tilde_matches_transform_of_chi_v():
    # quadrature oracle: one-sided FT of chi_v over a long grid
    gamma, eta = 1.0, 1.0
    t = np.linspace(0.0, 40.0, 80001)
    dt = t[1] - t[0]
    w = np.full(t.size, dt)
    w[0] = w[-1] = dt / 2
    cv = chi_v(t, gamma, eta) * w
    for om in (-3.0, -0.5, 0.0, 1.0, 4.0):
        quad = np.sum(cv * np.exp(1j * om * t))
        assert abs(quad - chi_tilde(om, gamma, eta)) < 1e-4


def test_noise_psd_limits_and_symmetry():
    gamma, temp = 1.3, 0.7
    assert noise_psd(0.0, gamma, temp, 2.0) == pytest.approx(2 * gamma * temp)
    # classical limit at moderate frequency
    assert noise_psd(1.0, gamma, temp, 1e4) == pytest.approx(
        2 * gamma * temp, rel=1e-6)
    rng = np.random.default_rng(7)
    for _ in range(1000):
        om = rng.uniform(-50, 50)
        g = rng.uniform(0.1, 5.0)
        tt = rng.uniform(0.01, 5.0)
        nu = rng.uniform(0.1, 100.0)
        s = noise_psd(om, g, tt, nu)
        assert s >= 0.0
        assert s == noise_psd(-om, g, tt, nu)


def test_noise_psd_small_argument_series():
    # x coth x = 1 + x^2/3 - x^4/45 + ..., x = pi w/nu; the x^4 term is
    # below 3e-18 here
    gamma, temp, nu = 0.7, 1.3, 2.0
    x = np.array([0.0, 1e-12, 1e-8, 1e-6, 1e-4])
    s = noise_psd(x * nu / np.pi, gamma, temp, nu)
    np.testing.assert_allclose(s, 2 * gamma * temp * (1 + x * x / 3), rtol=1e-15,
                               atol=0)


def test_noise_psd_inverse_transform_matches_correlation():
    # regular part of the inverse FT vs the closed form at tau = 1, nu = 5:
    # subtract the linear UV asymptote whose finite-part inverse is
    # -2 gamma T/(nu tau^2), quadrature the exponentially decaying remainder
    gamma, temp, nu, tau = 1.0, 1.0, 5.0, 1.0
    w = np.linspace(0.0, 80.0, 400001)
    s_lin = 2 * np.pi * gamma * temp / nu * w
    rem = noise_psd(w, gamma, temp, nu) - s_lin
    c_quad = np.trapezoid(rem * np.cos(w * tau), w) / np.pi \
        - 2 * gamma * temp / (nu * tau**2)
    c_exact = noise_correlation(tau, gamma, temp, nu)
    assert abs(c_quad - c_exact) / abs(c_exact) < 1e-3


def test_noise_correlation_closed_form():
    # frozen: -(1/2)*2*sinh(1)^-2, checked against mpmath to 20 digits
    val = noise_correlation(1.0, 1.0, 1.0, 2.0)
    assert val == pytest.approx(-0.7240616609663105, rel=1e-12)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    ref = float(-(mp.mpf(1) / 2) * 2 / mp.sinh(1) ** 2)
    assert val == pytest.approx(ref, rel=1e-14)


def test_noise_correlation_even_and_decaying():
    assert noise_correlation(0.3, 1.0, 1.0, 2.0) == \
        noise_correlation(-0.3, 1.0, 1.0, 2.0)
    assert noise_correlation(0.5, 1.0, 1.0, 2.0) < 0
    assert abs(noise_correlation(500.0, 1.0, 1.0, 2.0)) < 1e-300


def test_noise_correlation_coincidence_guard():
    with pytest.raises(ValueError, match="noise_psd"):
        noise_correlation(1e-12, 1.0, 1.0, 2.0)


def test_xi_q0_negative_and_bounded_tail():
    val, n = xi_q0_corr(0.5, 1.0, 1.0, 2.0, 1.0, tol=1e-10)
    assert val < 0
    assert n >= 1
    # tail bound at t = 10, nu = 2: geometric bound with the leading term
    # dominant, |value| <= c1 e^{-20}/(1 - e^{-20}) with
    # c1 = 2 gamma T nu/(nu^2 + gamma nu + eta)
    gamma = temp = eta = 1.0
    nu = 2.0
    val10, _ = xi_q0_corr(10.0, gamma, temp, nu, eta, tol=1e-14)
    c1 = 2 * gamma * temp * nu / (nu**2 + gamma * nu + eta)
    bound = c1 * np.exp(-20.0) / (1 - np.exp(-20.0))
    assert abs(val10) <= bound


def test_xi_q0_tolerance_self_consistency():
    a, _ = xi_q0_corr(1.0, 1.0, 1.0, 2.0, 1.0, tol=1e-6)
    b, _ = xi_q0_corr(1.0, 1.0, 1.0, 2.0, 1.0, tol=1e-10)
    assert abs(a - b) < 1e-6


def test_xi_q0_extended_precision_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    gamma, temp, nu, eta, t = 1.0, 1.0, 2.0, 1.0, 0.5
    total = mp.mpf(0)
    for n in range(1, 4000):
        nun = n * nu
        total -= 2 * gamma * temp * nun / (nun**2 + gamma * nun + eta) \
            * mp.e**(-nun * t)
    val, _ = xi_q0_corr(t, gamma, temp, nu, eta, tol=1e-12)
    assert val == pytest.approx(float(total), rel=1e-10)


def test_xi_q0_monotone_toward_zero():
    ts = np.linspace(0.05, 6.0, 80)
    vals = [xi_q0_corr(t, 1.0, 1.0, 2.0, 1.0, tol=1e-12)[0] for t in ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0


def _scanned_nun(gamma, temp, nu, eta, t_min, tol, n_scan=1 << 17):
    """Matsubara frequencies by a linear scan of the tail bound over n_scan
    terms: every term up to the last one whose bound is >= tol, at least one."""
    nun = np.arange(1.0, n_scan + 1) * nu
    q = np.exp(-nu * t_min)
    keep = np.flatnonzero(2.0 * gamma * temp / nun * np.exp(-nun * t_min)
                          / (1.0 - q) >= tol)
    assert keep.size == 0 or keep[-1] < n_scan - 1
    return nun[:keep[-1] + 1 if keep.size else 1]


def test_xi_q0_weights_match_linear_scan():
    # the bisection keeps exactly the terms a scan of the bound keeps, also
    # when tol is the bound of the last kept term
    rng = np.random.default_rng(8)
    for _ in range(100):
        gamma, temp = 10.0 ** rng.uniform(-1, 0.5, 2)
        nu, t_min = 10.0 ** rng.uniform(-0.3, 3), 10.0 ** rng.uniform(-3, -0.3)
        eta = rng.uniform(-2.0, 5.0)
        tol = 10.0 ** rng.uniform(-14, -4)
        last = _scanned_nun(gamma, temp, nu, eta, t_min, tol)[-1]
        at_last = 2.0 * gamma * temp / last * np.exp(-last * t_min) \
            / (1.0 - np.exp(-nu * t_min))
        for tol_case in (tol, at_last):
            nun, _ = xi_q0_weights(gamma, temp, nu, eta, t_min, tol_case)
            assert np.array_equal(
                nun, _scanned_nun(gamma, temp, nu, eta, t_min, tol_case))


def test_xi_q0_domain_error():
    with pytest.raises(ValueError):
        xi_q0_corr(0.0, 1.0, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        xi_q0_corr(-1.0, 1.0, 1.0, 2.0, 1.0)
