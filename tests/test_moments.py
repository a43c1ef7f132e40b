"""Conditional mean, variance and their spectra."""

import dataclasses
import functools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from qcle import (BathParams, FreqGrid, PotentialParams, QuadratureError,
                  SampledSignal, SpectralQuadrature, SusceptibilityProblem,
                  TimeGrid, chi_q, chi_v, chi_v_dot, djm_solve, mean_trajectory,
                  solve_susceptibility, variance, variance_spectrum, zero_sigma2)
from qcle._numutil import cumtrapz, e1m, trapezoid_weights
from qcle.kernels import effective_roots, noise_psd, xi_q0_coefficients
from qcle.moments import (PlateauError, _closure_b, _growing_tail,
                          _preparation_cross_term, estimate_plateau)
from qcle.params import parabolic

CLASSICAL = BathParams(gamma=1.0, temp=1.0, nu=1e4)


def _e1(x: np.ndarray) -> np.ndarray:
    """(e^x - 1)/x, complex-safe, series branch near 0."""
    x = np.asarray(x, dtype=complex)
    out = np.empty_like(x)
    small = np.abs(x) < 1e-6
    xs = x[small]
    out[small] = 1.0 + xs / 2.0 * (1.0 + xs / 3.0)
    xb = x[~small]
    out[~small] = (np.exp(xb) - 1.0) / xb
    return out


def _chi_v_window(t: np.ndarray, omega: np.ndarray, gamma: float,
                  eta: float) -> np.ndarray:
    """Lambda(t, w) = int_0^t chi_v(s) e^{-iws} ds as an (n_t, n_w) matrix."""
    sp, sm, w0 = effective_roots(gamma, eta)
    t = t[:, None]
    g_p = t * _e1((sp - 1j * omega) * t)
    g_m = t * _e1((sm - 1j * omega) * t)
    return (g_p - g_m) / w0


def _oracle_variance(grid, bath, eta, quad, include_preparation=True):
    """Reference for variance(): the trapezoid sum over the full (n_t, n_w)
    matrix of |Lambda|^2, in chunks of frequency columns. Returns sigma^2 and
    the relative half-range estimate that the convergence check compares
    against quad.rtol."""
    t = grid.times
    gamma, temp = bath.gamma, bath.temp
    base = temp * chi_v(t, gamma, eta) ** 2
    w = np.linspace(0.0, quad.omega_max, quad.n)
    s_w = noise_psd(w, gamma, temp, bath.nu)
    wt = trapezoid_weights(quad.n, quad.d_omega)
    k_half = (quad.n - 1) // 2
    noise = np.zeros(grid.n)
    noise_halfrange = np.zeros(grid.n)
    chunk = max(1, int(4e6 // max(grid.n, 1)))
    for start in range(0, quad.n, chunk):
        sl = slice(start, min(start + chunk, quad.n))
        lam = _chi_v_window(t, w[sl], gamma, eta)
        f = (np.abs(lam) ** 2) * (s_w[sl] * wt[sl]) / np.pi
        noise += f.sum(axis=1)
        if start <= k_half:
            stop = min(sl.stop, k_half + 1)
            noise_halfrange += f[:, : stop - start].sum(axis=1)
    # correct the half-range end weight and compare against the full range
    lam_end = _chi_v_window(t, w[k_half:k_half + 1], gamma, eta)[:, 0]
    noise_halfrange -= (np.abs(lam_end) ** 2) * s_w[k_half] * (quad.d_omega / 2.0) / np.pi
    scale = max(float(np.max(np.abs(base + noise))), 1e-30)
    est = float(np.max(np.abs(noise - noise_halfrange))) / scale
    sig2 = base + noise
    if include_preparation:
        sig2 = sig2 + _preparation_cross_term(grid, bath, eta)
    sig2[0] = 0.0
    return sig2, est


def _chi_v_dot_window(t: np.ndarray, omega: np.ndarray, gamma: float,
                      eta: float) -> np.ndarray:
    """A(t, w) = int_0^t chi_v_dot(t-u) e^{-iwu} du as an (n_t, n_w) matrix."""
    sp, sm, w0 = effective_roots(gamma, eta)
    tc = t[:, None]
    phase = np.exp(-1j * omega * tc)
    a_p = sp * tc * _e1((sp + 1j * omega) * tc)
    a_m = sm * tc * _e1((sm + 1j * omega) * tc)
    return phase * (a_p - a_m) / w0


PHI_V_QUAD = SpectralQuadrature(omega_max=3000.0, n=60001, rtol=1e-3)


def phi_v_cov(z: float, y: float, bath: BathParams, potential_eta: float,
              quad: SpectralQuadrature = PHI_V_QUAD) -> float:
    """Velocity-noise covariance <phi_v(z) phi_v(y)>, symmetric in (z, y).

    Evaluated spectrally, (1/pi) int_0^W S(w) Re[A(z,w) conj(A(y,w))] dw,
    with the O(1/W) window-edge tail removed by Richardson extrapolation in
    1/W (the chi_v_dot window has a unit edge, so the integrand decays only
    like S(w)/w^2).
    """
    if z < 0 or y < 0:
        raise ValueError("phi_v_cov needs z, y >= 0")
    if z == 0 or y == 0:
        return 0.0
    w = np.linspace(0.0, quad.omega_max, quad.n)
    s_w = noise_psd(w, bath.gamma, bath.temp, bath.nu)
    az = _chi_v_dot_window(np.array([z]), w, bath.gamma, potential_eta)[0]
    ay = _chi_v_dot_window(np.array([y]), w, bath.gamma, potential_eta)[0]
    f = s_w * np.real(az * np.conj(ay)) / np.pi
    wt = trapezoid_weights(quad.n, quad.d_omega)
    total = float(np.sum(wt * f))
    k_half = (quad.n - 1) // 2
    wt_rng = trapezoid_weights(k_half + 1, quad.d_omega)
    total_halfrange = float(np.sum(wt_rng * f[: k_half + 1]))
    value = 2.0 * total - total_halfrange  # cancel the c/W tail
    half_n = (quad.n - 1) // 2 + 1
    wt_res = trapezoid_weights(half_n, 2 * quad.d_omega)
    total_halfres = float(np.sum(wt_res * f[::2]))
    est = max(0.5 * abs(value - total), abs(total - total_halfres))
    if est > quad.rtol * max(1.0, abs(value)):
        raise QuadratureError(
            "noise-covariance quadrature did not converge "
            f"(estimate {est:.3e}); for quantum nu the integrand is "
            "UV-log-sensitive: widen omega_max or accept the cutoff with "
            "rtol = inf",
            est,
        )
    return value


def test_phi_v_cov_zero_edge_and_symmetry():
    assert phi_v_cov(0.0, 0.7, CLASSICAL, 1.0) == 0.0
    assert phi_v_cov(0.7, 0.0, CLASSICAL, 1.0) == 0.0
    a = phi_v_cov(1.0, 0.5, CLASSICAL, 1.0)
    b = phi_v_cov(0.5, 1.0, CLASSICAL, 1.0)
    assert abs(a - b) < 1e-9
    with pytest.raises(ValueError):
        phi_v_cov(-0.1, 0.5, CLASSICAL, 1.0)


def test_phi_v_cov_white_noise_oracle():
    # classical limit: 2 gamma T int_0^1 chi_v_dot(s)^2 ds by dense trapezoid
    s = np.linspace(0.0, 1.0, 20001)
    oracle = 2.0 * CLASSICAL.gamma * CLASSICAL.temp * np.trapezoid(
        chi_v_dot(s, CLASSICAL.gamma, 1.0) ** 2, s)
    val = phi_v_cov(1.0, 1.0, CLASSICAL, 1.0)
    assert abs(val - oracle) / oracle < 1e-3


def test_phi_v_cov_quantum_uv_sensitivity_reported():
    with pytest.raises(QuadratureError):
        phi_v_cov(1.0, 1.0, BathParams(1.0, 1.0, 5.0), 1.0)
    # an explicit cutoff with an infinite tolerance is the documented escape hatch
    quad = SpectralQuadrature(omega_max=300.0, n=12001, rtol=math.inf)
    val = phi_v_cov(1.0, 1.0, BathParams(1.0, 1.0, 5.0), 1.0, quad=quad)
    assert np.isfinite(val)


@pytest.fixture(scope="module")
def classical_sigma2():
    grid = TimeGrid(15.0, 1501)
    return grid, variance(grid, CLASSICAL, parabolic())


def test_variance_zero_start_and_positivity(classical_sigma2):
    grid, sig = classical_sigma2
    assert sig.values[0] == 0.0
    assert np.min(sig.values) >= -1e-10


def test_variance_equipartition(classical_sigma2):
    grid, sig = classical_sigma2
    # classical HO plateau T/eta within 2 percent
    assert abs(sig.values[-1] - 1.0) < 0.02
    assert estimate_plateau(sig) == pytest.approx(1.0, abs=0.02)


def test_variance_independent_of_unused_parameters(classical_sigma2):
    grid, sig = classical_sigma2
    other = variance(grid, CLASSICAL,
                     PotentialParams(eta=1.0, alpha=0.0, epsilon=0.7, f0=2.5))
    assert np.array_equal(sig.values, other.values)


def test_variance_aliasing_guard():
    grid = TimeGrid(500.0, 501)
    with pytest.raises(ValueError, match="horizon"):
        variance(grid, CLASSICAL, parabolic())


def test_variance_quantum_uv_check():
    grid = TimeGrid(10.0, 501)
    with pytest.raises(QuadratureError):
        variance(grid, BathParams(1.0, 0.5, 2.0), parabolic())


ORACLE_CASES = {
    # name: (bath, eta, quadrature rtol)
    "underdamped": (CLASSICAL, 1.0, 1e-3),
    "critical": (BathParams(gamma=2.0, temp=1.0, nu=1e4), 1.0, 1e-3),
    "overdamped": (BathParams(gamma=3.0, temp=0.5, nu=1e4), 1.0, 1e-3),
    "eta_negative": (BathParams(gamma=1.5, temp=0.3, nu=1e4), -1.0, 1e-3),
    "eta_zero": (BathParams(gamma=1.5, temp=0.3, nu=1e4), 0.0, 1e-3),
    "quantum": (BathParams(gamma=1.0, temp=1.0, nu=3.0), 1.0, math.inf),
}


@pytest.mark.parametrize("include_preparation", [True, False])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_variance_matches_matrix_quadrature(case, include_preparation):
    bath, eta, rtol = ORACLE_CASES[case]
    grid = TimeGrid(15.0, 301)
    quad = SpectralQuadrature(n=2001, rtol=rtol)
    oracle, _ = _oracle_variance(grid, bath, eta, quad, include_preparation)
    pot = PotentialParams(eta=eta, alpha=0.2)
    sig = variance(grid, bath, pot, quad=quad).values
    if not include_preparation:
        sig = sig - _preparation_cross_term(grid, bath, eta)
    # the widened critical roots enter the two forms differently at O(1e-10)
    tol = 1e-10 if case == "critical" else 1e-13
    assert np.max(np.abs(sig - oracle)) <= tol * np.max(np.abs(oracle))


@pytest.mark.parametrize("bath, grid", [
    (CLASSICAL, TimeGrid(15.0, 301)),
    (BathParams(1.0, 0.5, 2.0), TimeGrid(10.0, 501)),
    (BathParams(1.0, 1.0, 5.0), TimeGrid(10.0, 201)),
    (BathParams(2.0, 1.0, 20.0), TimeGrid(10.0, 201)),
], ids=["classical", "nu2", "nu5", "nu20"])
def test_quadrature_error_parity_with_oracle(bath, grid):
    quad = SpectralQuadrature()
    _, est = _oracle_variance(grid, bath, 1.0, quad, include_preparation=False)
    if est <= quad.rtol:
        variance(grid, bath, parabolic(), quad=quad)
    else:
        with pytest.raises(QuadratureError):
            variance(grid, bath, parabolic(), quad=quad)
    # a tolerance nothing meets exposes the estimate itself
    with pytest.raises(QuadratureError) as err:
        variance(grid, bath, parabolic(), quad=SpectralQuadrature(rtol=1e-12))
    assert err.value.estimate == pytest.approx(est, rel=1e-9)


def test_variance_memory_stays_linear():
    # criterion 4's size; an (n_t, n_w) complex matrix would take 1.2 GB
    grid = TimeGrid(12.0, 12001)
    tracemalloc.start()
    try:
        variance(grid, CLASSICAL, parabolic(), quad=SpectralQuadrature(n=6001))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_susceptibility_memory_does_not_grow_with_the_recursion():
    # the recursion keeps its running sum, not every term: 20 more operator
    # applications on 8001 nodes would hold 20 more 64 kB spectra. At
    # f0 = 0.1 the split recursion reaches its fixed point exactly (a zero
    # increment) after 11 applications; the cubic term of f0 = 1 keeps its
    # increments at roundoff, above tol = 1e-300, for all 24
    bath = BathParams(gamma=1.0, temp=0.5, nu=1e4)
    pot = PotentialParams(eta=1.0, alpha=0.3, epsilon=0.0, f0=1.0)
    fg = FreqGrid(400.0, 8001)
    spec = variance_spectrum(variance(TimeGrid(15.0, 1501), bath, pot), fg)
    prob = SusceptibilityProblem(pot, bath, spec, fg)
    peaks = []
    for k_max in (4, 24):
        tracemalloc.start()
        try:
            _, sol = solve_susceptibility(prob, tol=1e-300, k_max=k_max)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert sol.k == k_max + 1
    assert peaks[1] - peaks[0] < 0.5e6


def _per_term_preparation(grid, bath, eta, n_terms):
    """The preparation cross term summed per Matsubara term over its first
    n_terms terms, E_n(y) = (s_+ g_+ - s_- g_-)/w0 with g_s(y) = e^{sy} y
    e1m((nu_n + s) y) at every node. Its dropped tail is about
    chi_v_dot(y) 2 gamma T/(nu^2 n_terms) in <phi_v(y) q0>."""
    t = grid.times
    sp, sm, w0 = effective_roots(bath.gamma, eta)
    nun = bath.nu * np.arange(1.0, n_terms + 1)
    cn = xi_q0_coefficients(nun, bath.gamma, bath.temp, eta)
    p = np.zeros(grid.n)
    e_p = np.exp(sp * t)[:, None]
    e_m = np.exp(sm * t)[:, None]
    tc = t[:, None]
    for start in range(0, nun.size, 512):
        nus = nun[start:start + 512][None, :]
        cs = cn[start:start + 512][None, :]
        g_p = e_p * tc * e1m((nus + sp) * tc)
        g_m = e_m * tc * e1m((nus + sm) * tc)
        p += np.real(np.sum(cs * (sp * g_p - sm * g_m) / w0, axis=1))
    return cumtrapz(-2.0 * chi_q(t, bath.gamma, eta) * p, grid.dt)


# -s_- of gamma = 3, eta = 1 is 2.618; nu_2 sits 0.02 above it, inside the
# 1/t_max = 1/6 of the per-term guard
_S_MINUS_OVERDAMPED = (3.0 + np.sqrt(5.0)) / 2.0
PREPARATION_CASES = {
    # name: (bath, eta)
    "underdamped": (BathParams(gamma=1.0, temp=0.5, nu=2.0), 1.0),
    "critical": (BathParams(gamma=2.0, temp=0.5, nu=2.0), 1.0),
    "overdamped_near_pole": (
        BathParams(gamma=3.0, temp=0.5, nu=_S_MINUS_OVERDAMPED / 2.0 + 0.01), 1.0),
    "eta_zero": (BathParams(gamma=1.5, temp=0.3, nu=2.0), 0.0),
    "eta_negative": (BathParams(gamma=1.0, temp=0.5, nu=2.0), -0.5),
}


@pytest.mark.parametrize("case", sorted(PREPARATION_CASES))
def test_preparation_term_matches_per_term_sum(case):
    # the per-term sum at N, 2N and 4N terms, Richardson-extrapolated in 1/N:
    # its tail 2 gamma T/(nu^2 N) (2e-4 to 4e-4 of max|P| at N = 4000) and
    # the 1/N^2 part go, leaving O(1/N^3), at most 3e-10 of max|P| here
    bath, eta = PREPARATION_CASES[case]
    grid = TimeGrid(6.0, 121)
    p1, p2, p4 = (_per_term_preparation(grid, bath, eta, 1000 * k)
                  for k in (1, 2, 4))
    oracle = (8.0 * p4 - 6.0 * p2 + p1) / 3.0
    got = _preparation_cross_term(grid, bath, eta)
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(got - oracle)) <= 1e-9 * scale
    # the truncated sum alone is off by its tail
    assert np.max(np.abs(got - p4)) > 1e-6 * scale


def _mp_growing_tail(bath, eta, s, m):
    """sum_{n > m} c_n/(nu_n + s) in mpmath: partial fractions over the
    poles z of n/((n - z1)(n - z2)(n - z3)), then
    sum_{n > m} sum_k A_k/(n - z_k) = -sum_k A_k psi(m + 1 - z_k)."""
    gamma, temp, nu = (mpmath.mpf(x) for x in (bath.gamma, bath.temp, bath.nu))
    disc = mpmath.sqrt(mpmath.mpc(gamma**2 - 4 * mpmath.mpf(eta)))
    zs = [(-gamma + disc) / (2 * nu), (-gamma - disc) / (2 * nu),
          -mpmath.mpmathify(s) / nu]
    total = 0
    for k, zk in enumerate(zs):
        a_k = zk / mpmath.fprod(zk - zj for j, zj in enumerate(zs) if j != k)
        total -= a_k * mpmath.psi(0, m + 1 - zk)
    return 2 * gamma * temp / nu**2 * total


@pytest.mark.parametrize("bath, eta", [
    (BathParams(gamma=1.0, temp=0.5, nu=2.0), 1.0),
    (BathParams(gamma=3.0, temp=0.5, nu=0.3), 1.0),
    (BathParams(gamma=1.0, temp=0.5, nu=0.1), -0.5),
    (BathParams(gamma=1.0, temp=1.0, nu=1e4), 1.0),
], ids=["underdamped", "overdamped", "eta_negative", "classical"])
def test_growing_tail_against_mpmath(bath, eta):
    # at the smallest tail start the preparation term uses, 32 or
    # 16 max|s|/nu, where the poles -s/nu and s_+-/nu come nearest
    sp, sm, _ = effective_roots(bath.gamma, eta)
    roots = np.array([sp, sm], dtype=complex)
    m = max(32, int(np.ceil(16.0 * np.max(np.abs(roots)) / bath.nu)))
    got = _growing_tail(bath, eta, roots, m)
    with mpmath.workdps(40):
        for g, s in zip(got, roots):
            ref = _mp_growing_tail(bath, eta, complex(s), m)
            assert float(abs(mpmath.mpmathify(complex(g)) - ref) / abs(ref)) <= 1e-15


def test_preparation_term_memory():
    # the quantum-response size, where a per-term sum over (n_t, 512) complex
    # chunks peaks at 199 MB
    grid = TimeGrid(15.0, 3001)
    bath = BathParams(gamma=1.0, temp=0.5, nu=1.0)
    quad = SpectralQuadrature(omega_max=300.0, rtol=0.1)
    tracemalloc.start()
    try:
        variance(grid, bath, parabolic(), quad=quad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_mean_alpha_zero_reduction():
    grid = TimeGrid(8.0, 801)
    g, _ = mean_trajectory(0.7, -0.4, parabolic(), CLASSICAL, zero_sigma2(grid), 2.5)
    exact = 0.7 * chi_q(grid.times, 1.0, 1.0) - 0.4 * chi_v(grid.times, 1.0, 1.0)
    assert np.array_equal(g.values, exact)  # recursion ends after the linear term


def test_mean_linearity_in_initial_conditions():
    grid = TimeGrid(8.0, 401)
    a, _ = mean_trajectory(0.3, 0.2, parabolic(), CLASSICAL, zero_sigma2(grid), 2.5)
    b, _ = mean_trajectory(0.6, 0.4, parabolic(), CLASSICAL, zero_sigma2(grid), 2.5)
    assert np.max(np.abs(b.values - 2.0 * a.values)) < 1e-9


def test_mean_tilt_plateau():
    # alpha = 0, eps != 0, q0 = v0 = 0: G(inf) = -eps/eta
    grid = TimeGrid(25.0, 1001)
    pot = PotentialParams(eta=1.0, alpha=0.0, epsilon=0.5, f0=0.1)
    g, _ = mean_trajectory(0.0, 0.0, pot, CLASSICAL, zero_sigma2(grid), 2.5)
    assert g.values[-1] == pytest.approx(-0.5, abs=1e-4)


def _mean_rk4(grid, q0, v0, pot, gamma, sig2, sub=10):
    """Classic RK4 of G'' + gamma G' + (eta + 3 alpha sigma^2) G + alpha G^3
    + eps = 0, G(0) = q0, G'(0) = v0, at sub steps per grid step, with
    sigma^2 interpolated linearly between grid nodes; G on the grid."""
    h = grid.dt / sub
    half_steps = np.arange(2 * (grid.n - 1) * sub + 1) * (h / 2)
    lin = (pot.eta + 3.0 * pot.alpha * np.interp(half_steps, grid.times, sig2)
           ).tolist()

    def acc(q, v, c):
        return -gamma * v - c * q - pot.alpha * q**3 - pot.epsilon

    q, v = q0, v0
    out = [q]
    for j in range((grid.n - 1) * sub):
        ca, cm, cb = lin[2 * j:2 * j + 3]
        k1q, k1v = v, acc(q, v, ca)
        k2q, k2v = v + h / 2 * k1v, acc(q + h / 2 * k1q, v + h / 2 * k1v, cm)
        k3q, k3v = v + h / 2 * k2v, acc(q + h / 2 * k2q, v + h / 2 * k2v, cm)
        k4q, k4v = v + h * k3v, acc(q + h * k3q, v + h * k3v, cb)
        q += h / 6 * (k1q + 2 * k2q + 2 * k3q + k4q)
        v += h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        if (j + 1) % sub == 0:
            out.append(q)
    return np.array(out)


def test_mean_deterministic_duffing_oracle():
    # T -> 0: independent RK4 integration of qdd = -gamma qd - eta q - alpha q^3
    grid = TimeGrid(15.0, 1501)
    pot = PotentialParams(eta=1.0, alpha=0.2, epsilon=0.0, f0=0.1)
    bath = BathParams(gamma=1.0, temp=1e-18, nu=1e4)
    g, sol = mean_trajectory(1.0, 0.0, pot, bath, zero_sigma2(grid), 2.5,
                             tol=1e-11, k_max=100)
    assert sol.converged
    oracle = _mean_rk4(grid, 1.0, 0.0, pot, 1.0, np.zeros(grid.n))
    assert np.max(np.abs(g.values - oracle)) < 1e-3


# configs/bistable.json: its grid, potential, bath and (q0, v0)
BISTABLE_GRID = TimeGrid(15.0, 1501)
BISTABLE_POT = PotentialParams(eta=1.0, alpha=0.3, epsilon=0.0, f0=0.1)
BISTABLE_BATH = BathParams(gamma=1.0, temp=0.5, nu=1e4)


@pytest.mark.parametrize("q0,alpha,gamma,temp", [
    (3.0, 0.3, 1.0, 0.5), (1.0, 1.0, 1.0, 0.5), (1.0, 0.3, 1.0, 2.0),
    (1.0, 0.5, 2.0, 1.0)], ids=["q0_3", "alpha_1", "temp_2", "blowup"])
def test_windowed_mean_converges_where_one_window_overflowed(q0, alpha, gamma,
                                                            temp):
    # on the bistable preset, one unwindowed recursion raised
    # NonFiniteTermError on these; in windows of the preset's 2.5 the mean
    # converges and agrees with the mean's ODE integrated by RK4
    grid = BISTABLE_GRID
    pot = dataclasses.replace(BISTABLE_POT, alpha=alpha)
    bath = dataclasses.replace(BISTABLE_BATH, gamma=gamma, temp=temp)
    sig2 = variance(grid, bath, pot)
    g, sol = mean_trajectory(q0, 0.0, pot, bath, sig2, 2.5, tol=1e-9, k_max=60)
    assert sol.converged is True
    oracle = _mean_rk4(grid, q0, 0.0, pot, gamma, sig2.values)
    assert np.max(np.abs(g.values - oracle)) < 1e-4


def test_mean_in_one_window_is_one_recursion():
    # a window of at least t_max gives bit for bit the one djm_solve on
    # _closure_b that the mean ran before it was windowed
    grid = BISTABLE_GRID
    pot, bath = BISTABLE_POT, BISTABLE_BATH
    sig2 = variance(grid, bath, pot)
    t = grid.times
    cv = chi_v(t, 1.0, 1.0)
    f = chi_q(t, 1.0, 1.0)
    apply_b = functools.partial(_closure_b, cv=cv, sig=sig2.values, c=1.0,
                                alpha=pot.alpha, dt=grid.dt)
    ref = djm_solve(f, apply_b, tol=1e-9, k_max=60)
    for window in (grid.t_max, 1e308):
        g, sol = mean_trajectory(1.0, 0.0, pot, bath, sig2, window, tol=1e-9,
                                 k_max=60)
        assert np.array_equal(g.values, ref.partial_sum)
        assert sol.term_norms == ref.term_norms


def test_mean_term_norms_count_every_window(monkeypatch):
    # the one record holds the norm of f, then every window's increments
    grid = BISTABLE_GRID
    sig2 = variance(grid, BISTABLE_BATH, BISTABLE_POT)
    windows = []

    def recording(*args, **kwargs):
        windows.append(djm_solve(*args, **kwargs))
        return windows[-1]

    monkeypatch.setattr("qcle.moments.djm_solve", recording)
    g, sol = mean_trajectory(1.0, 0.0, BISTABLE_POT, BISTABLE_BATH, sig2, 2.5,
                             tol=1e-9, k_max=60)
    assert len(windows) == 6 and all(w.converged for w in windows)
    assert len(sol.term_norms) - 1 == sum(w.k - 1 for w in windows)
    assert sol.term_norms == [float(np.max(np.abs(chi_q(grid.times, 1.0, 1.0))))] \
        + [x for w in windows for x in w.term_norms[1:]]
    assert np.array_equal(sol.partial_sum, g.values)


def test_mean_eq18_literal_via_zero_v0():
    # dropping the v0 term is just v0 = 0
    grid = TimeGrid(5.0, 301)
    full, _ = mean_trajectory(0.8, 0.0, parabolic(), CLASSICAL, zero_sigma2(grid),
                              2.5)
    assert np.array_equal(full.values, 0.8 * chi_q(grid.times, 1.0, 1.0))


def test_variance_spectrum_constant_is_pure_singular():
    grid = TimeGrid(10.0, 501)
    sig = SampledSignal(grid, np.full(grid.n, 0.8))
    fg = FreqGrid(20.0, 801)
    spec = variance_spectrum(sig, fg)
    # the plateau mean carries one ulp of summation noise
    assert np.max(np.abs(spec.half)) < 1e-14
    assert spec.dirac == pytest.approx(2.0 * np.pi * 0.8, rel=1e-13)


def test_variance_spectrum_exponential_transient():
    grid = TimeGrid(20.0, 4001)
    sig = SampledSignal(grid, np.exp(-grid.times))
    fg = FreqGrid(30.0, 1201)
    spec = variance_spectrum(sig, fg, plateau_tol=1e-3)
    exact = 2.0 / (1.0 + fg.omegas**2)
    assert np.max(np.abs(spec.full() - exact)) < 1e-4
    assert np.isfinite(spec.half[0])


def test_variance_spectrum_round_trip(classical_sigma2):
    grid, sig = classical_sigma2
    fg = FreqGrid(200.0, 8001)
    spec = variance_spectrum(sig, fg)
    # inverse transform at t = 0 recovers sigma2(0) = 0
    total = np.trapezoid(spec.full().real, dx=fg.d_omega) / (2 * np.pi)
    total += spec.dirac / (2 * np.pi)
    assert abs(total - sig.values[0]) < 1e-3


def test_variance_spectrum_plateau_error():
    grid = TimeGrid(3.0, 301)
    sig = SampledSignal(grid, np.exp(-0.1 * grid.times))
    with pytest.raises(PlateauError, match="t_max"):
        variance_spectrum(sig, FreqGrid(10.0, 401))
