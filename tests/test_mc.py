"""Monte Carlo oracle: sampler statistics and pathwise integration."""

import tracemalloc

import numpy as np
import pytest

import qcle.mc
from qcle import (BathParams, PotentialParams, SpectralQuadrature, TimeGrid,
                  chi_q, chi_v, estimate_mc, estimate_moments, estimate_response,
                  integrate_qcle, noise_psd, sample_noise, variance)
from qcle.mc import (BLOCK_ROWS, MAX_PATH_SAMPLES, MAX_SYNTHESIS_LENGTH,
                     NOISE_BLOCK_SAMPLES, Ensemble, NoiseEnsemble,
                     PathSamplesError, SurvivorsError,
                     SynthesisLengthError, _propagator_constants,
                     _synthesis_length, thermal_velocities)
from qcle.moments import _preparation_cross_term
from qcle.params import parabolic

CLASSICAL = BathParams(gamma=1.0, temp=1.0, nu=1e4)
QUANTUM = BathParams(gamma=1.0, temp=0.5, nu=5.0)


def _lag_products(x, m):
    return (x[:, : x.shape[1] - m] * x[:, m:]).mean(axis=1)


def test_seed_determinism():
    grid = TimeGrid(2.0, 201)
    a = sample_noise(grid, CLASSICAL, 6, seed=42)
    b = sample_noise(grid, CLASSICAL, 6, seed=42)
    assert np.array_equal(a.values, b.values)
    c = sample_noise(grid, CLASSICAL, 6, seed=43)
    assert not np.array_equal(a.values, c.values)
    # one stream drawn path after path: the first paths of a larger
    # ensemble coincide with the smaller one, also across a synthesis block
    d = sample_noise(grid, CLASSICAL, 9, seed=42)
    assert np.array_equal(a.values, d.values[:6])
    rows = NOISE_BLOCK_SAMPLES // _synthesis_length(grid, CLASSICAL.nu)
    e = sample_noise(grid, CLASSICAL, rows - 3, seed=42)
    f = sample_noise(grid, CLASSICAL, rows + 5, seed=42)
    assert np.array_equal(e.values, f.values[:rows - 3])


@pytest.mark.parametrize("bath", [CLASSICAL, QUANTUM], ids=["classical", "quantum"])
def test_noise_matches_full_spectrum_synthesis(bath, monkeypatch):
    # reference: the same normals per path, (xr, xi) = rows [p, 0] and [p, 1],
    # mirrored into a Hermitian full spectrum and transformed by a complex
    # FFT whose real part is kept; blocks of 3 paths leave a partial block
    grid = TimeGrid(10.0, 501)
    n_paths, seed = 40, 3
    nfft = _synthesis_length(grid, bath.nu)
    monkeypatch.setattr(qcle.mc, "NOISE_BLOCK_SAMPLES", 3 * nfft)
    half = nfft // 2
    wk = 2.0 * np.pi * np.fft.fftfreq(nfft, d=grid.dt)
    amp = np.sqrt(noise_psd(wk, bath.gamma, bath.temp, bath.nu) / (nfft * grid.dt))
    ref = np.empty((n_paths, grid.n))
    c = np.zeros(nfft, dtype=complex)
    normals = np.random.default_rng(seed).standard_normal((n_paths, 2, half + 1))
    for p, (xr, xi) in enumerate(normals):
        c[0] = amp[0] * xr[0]
        c[half] = amp[half] * xr[half]
        c[1:half] = amp[1:half] * (xr[1:half] + 1j * xi[1:half]) / np.sqrt(2.0)
        c[half + 1:] = np.conj(c[1:half][::-1])
        ref[p] = np.fft.fft(c).real[:grid.n]
    noise = sample_noise(grid, bath, n_paths, seed).values
    assert np.max(np.abs(noise - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_noise_zero_mean():
    grid = TimeGrid(10.0, 501)
    noise = sample_noise(grid, QUANTUM, 4000, seed=1)
    x = noise.values[:, ::50]
    z = x.mean(axis=0) / (x.std(axis=0, ddof=1) / np.sqrt(x.shape[0]))
    assert np.max(np.abs(z)) < 4.0


def test_noise_covariance_against_closed_form():
    # adjacent-lag average cancels the alternating band-edge term
    # (-1)^m 2 gamma T/(nu tau^2) intrinsic to band-limited sampling
    grid = TimeGrid(40.0, 401)
    noise = sample_noise(grid, QUANTUM, 20000, seed=5)
    m = int(round(1.0 / grid.dt))
    pair = 0.5 * (_lag_products(noise.values, m)
                  + _lag_products(noise.values, m + 1))
    chat = pair.mean()
    se = pair.std(ddof=1) / np.sqrt(noise.n_paths)
    from qcle import noise_correlation
    c_mid = noise_correlation(1.0 + grid.dt / 2, 1.0, 0.5, 5.0)
    assert abs(chat - c_mid) < 4.0 * se


def test_noise_covariance_against_discrete_model():
    # the sampler's exact covariance is sum_k S(w_k) cos(w_k tau)/(N dt)
    from qcle import noise_psd
    grid = TimeGrid(40.0, 401)
    noise = sample_noise(grid, QUANTUM, 20000, seed=5)
    nfft = _synthesis_length(grid, QUANTUM.nu)
    wk = 2.0 * np.pi * np.fft.fftfreq(nfft, d=grid.dt)
    s = noise_psd(wk, QUANTUM.gamma, QUANTUM.temp, QUANTUM.nu) / (nfft * grid.dt)
    for m in (5, 10, 20):
        expect = float(np.sum(s * np.cos(wk * m * grid.dt)))
        prods = _lag_products(noise.values, m)
        z = (prods.mean() - expect) / (prods.std(ddof=1) / np.sqrt(noise.n_paths))
        assert abs(z) < 4.0


def test_noise_stationarity():
    # covariance depends only on the lag: compare early/late time windows
    grid = TimeGrid(40.0, 801)
    noise = sample_noise(grid, QUANTUM, 8000, seed=9)
    x = noise.values
    half = x.shape[1] // 2
    for m in (2, 7, 15):
        early = (x[:, : half - m] * x[:, m:half]).mean(axis=1)
        late = (x[:, half: -m] * x[:, half + m:]).mean(axis=1)
        diff = early - late
        z = diff.mean() / (diff.std(ddof=1) / np.sqrt(x.shape[0]))
        assert abs(z) < 4.0


def test_white_noise_covariance_integral():
    # nu -> classical: integral of the covariance over lags ~ 2 gamma T
    grid = TimeGrid(20.0, 2001)
    noise = sample_noise(grid, CLASSICAL, 400, seed=3)
    lags = 200
    cbar = np.array([_lag_products(noise.values, abs(m)).mean()
                     for m in range(-lags, lags + 1)])
    integ = float(np.trapezoid(cbar, dx=grid.dt))
    assert abs(integ - 2.0) / 2.0 < 0.05


def test_zero_noise_matches_closed_forms():
    grid = TimeGrid(15.0, 1501)
    zn = NoiseEnsemble(grid, CLASSICAL, np.zeros((2, grid.n)), seed=0)
    ens = integrate_qcle(zn, parabolic(), q0=1.0, v0=0.5)
    exact = chi_q(grid.times, 1.0, 1.0) + 0.5 * chi_v(grid.times, 1.0, 1.0)
    assert np.max(np.abs(ens.trajectories[0] - exact)) < 1e-12


def test_zero_noise_nonlinear_vs_rk4():
    grid = TimeGrid(15.0, 1501)
    zn = NoiseEnsemble(grid, CLASSICAL, np.zeros((1, grid.n)), seed=0)
    pot = PotentialParams(eta=1.0, alpha=0.2, epsilon=0.0, f0=0.1)
    ens = integrate_qcle(zn, pot, q0=1.0, v0=0.0)
    h = 1e-3
    q, v = 1.0, 0.0
    oracle = np.empty(grid.n)
    oracle[0] = q
    for i in range(1, grid.n):
        for _ in range(10):
            def f(qq, vv):
                return vv, -vv - qq - 0.2 * qq**3
            k1 = f(q, v)
            k2 = f(q + h / 2 * k1[0], v + h / 2 * k1[1])
            k3 = f(q + h / 2 * k2[0], v + h / 2 * k2[1])
            k4 = f(q + h * k3[0], v + h * k3[1])
            q += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            v += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        oracle[i] = q
    assert np.max(np.abs(ens.trajectories[0] - oracle)) < 1e-6


def test_linear_ensemble_mean_and_variance():
    grid = TimeGrid(12.0, 1201)
    noise = sample_noise(grid, CLASSICAL, 4000, seed=77)
    ens = integrate_qcle(noise, parabolic(), q0=1.0, v0=0.5)
    est = estimate_moments(ens)
    th = chi_q(grid.times, 1.0, 1.0) + 0.5 * chi_v(grid.times, 1.0, 1.0)
    z = (est.mean.values[1:] - th[1:]) / est.stderr_mean.values[1:]
    assert np.max(np.abs(z)) < 4.0
    z_eq = (est.variance.values[-1] - 1.0) / est.stderr_variance.values[-1]
    assert abs(z_eq) < 3.0


def test_quantum_variance_against_matched_theory():
    # matched band limit, preparation term excluded (not imposed in sampling):
    # statistical agreement in the UV-insensitive equilibrium window plus a
    # trend-level bound on the transient (integrator band shaping)
    grid = TimeGrid(10.0, 1001)
    pot = parabolic()
    quad = SpectralQuadrature(omega_max=np.pi / grid.dt, n=12001, rtol=np.inf)
    sig_th = (variance(grid, QUANTUM, pot, quad=quad).values
              - _preparation_cross_term(grid, QUANTUM, pot.eta))
    assert np.min(sig_th) >= 0.0
    noise = sample_noise(grid, QUANTUM, 8000, seed=11)
    v0 = thermal_velocities(QUANTUM, 8000, seed=11)
    est = estimate_moments(integrate_qcle(noise, pot, q0=0.7, v0=v0))
    tail = grid.times >= 8.0
    z = (est.variance.values[tail] - sig_th[tail]) / est.stderr_variance.values[tail]
    assert np.max(np.abs(z)) < 4.0
    rel = np.max(np.abs(est.variance.values - sig_th)) / sig_th[-1]
    assert rel < 0.12


def test_response_linear_exactness_and_kick_independence():
    grid = TimeGrid(10.0, 501)
    noise = sample_noise(grid, CLASSICAL, 300, seed=7)
    r1, se1 = estimate_response(parabolic(), noise, f0_kick=0.1)
    exact = chi_v(grid.times, 1.0, 1.0)
    assert np.max(np.abs(r1.values - exact)) < 1e-10
    assert np.max(se1.values) < 1e-12
    r2, _ = estimate_response(parabolic(), noise, f0_kick=0.01)
    assert np.max(np.abs(r1.values - r2.values)) < 1e-10


def test_estimator_trivial_cases():
    grid = TimeGrid(1.0, 11)
    traj = np.tile(np.linspace(0, 1, 11), (5, 1))
    est = estimate_moments(Ensemble(grid, traj, seed=0))
    assert np.max(est.variance.values) == 0.0
    assert np.max(est.stderr_mean.values) == 0.0
    a = 0.7
    two = np.vstack([np.full(11, a), np.full(11, -a)])
    est2 = estimate_moments(Ensemble(grid, two, seed=0))
    assert np.allclose(est2.mean.values, 0.0)
    assert np.allclose(est2.variance.values, 2 * a**2)
    with pytest.raises(ValueError):
        estimate_moments(Ensemble(grid, two[:1], seed=0))


def test_ensemble_rejects_a_mask_of_the_wrong_shape():
    grid = TimeGrid(1.0, 11)
    traj = np.zeros((5, 11))
    for mask in (np.zeros(4, bool), np.zeros(6, bool), np.zeros((5, 1), bool)):
        with pytest.raises(ValueError, match="excluded"):
            Ensemble(grid, traj, seed=0, excluded=mask)


def test_moments_skip_excluded_paths():
    grid = TimeGrid(5.0, 251)
    ens = integrate_qcle(sample_noise(grid, CLASSICAL, 40, seed=17), parabolic(),
                         q0=1.0, v0=0.0)
    excluded = np.zeros(40, dtype=bool)
    excluded[[0, 7, 8, 39]] = True
    est = estimate_moments(Ensemble(grid, ens.trajectories, 0, excluded=excluded))
    kept = estimate_moments(Ensemble(grid, ens.trajectories[~excluded], 0))
    for name in ("mean", "variance", "stderr_mean", "stderr_variance"):
        assert np.array_equal(getattr(est, name).values,
                              getattr(kept, name).values), name


def test_stderr_scaling_with_path_count():
    grid = TimeGrid(5.0, 251)
    n1, n2 = 800, 3200
    e1 = estimate_moments(integrate_qcle(
        sample_noise(grid, CLASSICAL, n1, seed=21), parabolic(), 0.0, 0.0))
    e2 = estimate_moments(integrate_qcle(
        sample_noise(grid, CLASSICAL, n2, seed=21), parabolic(), 0.0, 0.0))
    ratio = e1.stderr_mean.values[50:] / e2.stderr_mean.values[50:]
    assert abs(np.mean(ratio) - 2.0) < 0.2  # quadrupling paths halves stderr


def test_blowup_paths_flagged_and_excluded():
    grid = TimeGrid(10.0, 501)
    noise = sample_noise(grid, CLASSICAL, 8, seed=13)
    pot = PotentialParams(eta=1.0, alpha=0.0, epsilon=0.0, f0=0.1)
    ens = integrate_qcle(noise, pot, q0=0.0, v0=0.0, blowup_guard=0.5)
    assert ens.n_excluded > 0
    assert ens.trajectories.shape == (8, grid.n)  # full length kept
    assert np.all(np.isfinite(ens.trajectories))


def test_synthesis_length_covers_correlation_decay():
    grid = TimeGrid(10.0, 1001)
    assert _synthesis_length(grid, 1e4) >= 1024
    slow = _synthesis_length(grid, 0.5)
    assert (slow - grid.n) * grid.dt >= 14.0 / 0.5


def test_synthesis_length_capped_before_allocating():
    grid = TimeGrid(15.0, 1501)
    # the quantum-nu MC configs (nu >= 2) stay far inside the cap
    assert _synthesis_length(grid, 2.0) <= 4096 < MAX_SYNTHESIS_LENGTH
    assert _synthesis_length(grid, 2e-3) == MAX_SYNTHESIS_LENGTH
    for nu in (1e-4, 1e-6, 1e-310):  # 2^24 and 2^31 points, and an infinite pad
        tracemalloc.start()
        try:
            with pytest.raises(SynthesisLengthError, match="cap"):
                sample_noise(grid, BathParams(1.0, 1.0, nu), 4, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


def test_path_samples_capped_before_allocating():
    grid = TimeGrid(15.0, 1501)
    nfft = _synthesis_length(grid, CLASSICAL.nu)
    # criterion 7's ensemble (10k paths on this grid) stays far inside the cap
    assert 10_000 * max(grid.n, nfft) < MAX_PATH_SAMPLES // 4
    for n_paths in (MAX_PATH_SAMPLES // nfft + 1, 10**9, 10**30):
        tracemalloc.start()
        try:
            with pytest.raises(PathSamplesError, match="cap"):
                sample_noise(grid, CLASSICAL, n_paths, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


def _integrate_path_major(noise, potential, q0, v0, blowup_guard=1e8):
    """The per-path-major step loop that integrate_qcle replaced: row p of
    (n_paths, n) is one path, with fresh temporaries on every step."""
    xi = noise.values
    n_paths, n = xi.shape
    pqq, pqv, pvq, pvv, a_q, b_q, a_v, b_v = _propagator_constants(
        noise.bath.gamma, potential.eta, noise.grid.dt)
    alpha, eps = potential.alpha, potential.epsilon
    q = np.broadcast_to(np.asarray(q0, dtype=float), (n_paths,)).copy()
    v = np.broadcast_to(np.asarray(v0, dtype=float), (n_paths,)).copy()
    alive = np.ones(n_paths, dtype=bool)
    traj = np.empty((n_paths, n))
    traj[:, 0] = q
    for j in range(n - 1):
        f_j = -alpha * q**3 - eps + xi[:, j]
        q_pred = pqq * q + pqv * v + (a_q + b_q) * f_j
        f_n = -alpha * q_pred**3 - eps + xi[:, j + 1]
        q_new = pqq * q + pqv * v + a_q * f_j + b_q * f_n
        v_new = pvq * q + pvv * v + a_v * f_j + b_v * f_n
        bad = ~np.isfinite(q_new) | (np.abs(q_new) > blowup_guard)
        if bad.any():
            alive &= ~bad
            q_new = np.where(alive, q_new, 0.0)
            v_new = np.where(alive, v_new, 0.0)
        q, v = q_new, v_new
        traj[:, j + 1] = q
    return traj, ~alive


@pytest.mark.parametrize("pot,exact", [
    (PotentialParams(eta=1.0, alpha=0.0, epsilon=0.0, f0=0.1), True),
    (PotentialParams(eta=1.0, alpha=0.0, epsilon=0.3, f0=0.1), True),
    (PotentialParams(eta=1.0, alpha=0.3, epsilon=0.0, f0=0.1), False),
    (PotentialParams(eta=-1.0, alpha=1.0, epsilon=0.2, f0=0.1), False),
], ids=["harmonic", "harmonic_tilted", "quartic", "tilted_double_well"])
def test_step_loop_matches_path_major_oracle(pot, exact):
    grid = TimeGrid(8.0, 801)
    noise = sample_noise(grid, QUANTUM, 64, seed=31)
    v0 = thermal_velocities(QUANTUM, 64, seed=31)
    ens = integrate_qcle(noise, pot, q0=0.4, v0=v0)
    traj, excluded = _integrate_path_major(noise, pot, q0=0.4, v0=v0)
    assert ens.trajectories.shape == traj.shape
    assert np.array_equal(ens.excluded, excluded) and not excluded.any()
    if exact:
        assert np.array_equal(ens.trajectories, traj)
    else:
        assert np.allclose(ens.trajectories, traj, rtol=1e-12, atol=1e-12)
        assert not np.array_equal(ens.trajectories, traj)  # q*q*q, not pow


@pytest.mark.parametrize("guard,n_excluded", [(0.5, 8), (1.5, 4)])
def test_blowup_guard_matches_path_major_oracle(guard, n_excluded):
    # the guard zeroes failed paths on every step where any path fails,
    # and a zeroed path runs on from rest in between
    grid = TimeGrid(10.0, 501)
    noise = sample_noise(grid, CLASSICAL, 8, seed=13)
    pot = PotentialParams(eta=1.0, alpha=0.0, epsilon=0.0, f0=0.1)
    ens = integrate_qcle(noise, pot, q0=0.0, v0=0.0, blowup_guard=guard)
    traj, excluded = _integrate_path_major(noise, pot, 0.0, 0.0, blowup_guard=guard)
    assert excluded.sum() == n_excluded
    assert np.array_equal(ens.excluded, excluded)
    assert np.array_equal(ens.trajectories, traj)


def test_non_finite_state_caught_at_infinite_guard():
    grid = TimeGrid(10.0, 501)
    noise = sample_noise(grid, CLASSICAL, 8, seed=13)
    pot = PotentialParams(eta=1.0, alpha=0.0, epsilon=0.0, f0=0.1)
    bad = noise.values.copy()
    bad[2, 100] = np.inf
    inf_noise = NoiseEnsemble(grid, CLASSICAL, bad, noise.seed)
    ens = integrate_qcle(inf_noise, pot, 0.0, 0.0, blowup_guard=np.inf)
    with np.errstate(invalid="ignore"):  # the oracle's -0.0 * inf**3
        traj, excluded = _integrate_path_major(inf_noise, pot, 0.0, 0.0,
                                               blowup_guard=np.inf)
    assert list(np.flatnonzero(ens.excluded)) == [2]
    assert np.array_equal(ens.excluded, excluded)
    assert np.array_equal(ens.trajectories, traj)


def test_integration_leaves_the_noise_untouched():
    grid = TimeGrid(2.0, 201)
    noise = sample_noise(grid, CLASSICAL, 1, seed=3)  # (1, n): .T is contiguous
    before = noise.values.copy()
    pot = PotentialParams(1.0, 0.2, 0.5, 0.1)
    integrate_qcle(noise, pot, 0.0, 0.0)
    assert np.array_equal(noise.values, before)
    integrate_qcle(noise, pot, 0.0, np.array([[0.0], [0.3]]))  # a batched pair
    assert np.array_equal(noise.values, before)


HARMONIC = PotentialParams(eta=1.0, alpha=0.0, epsilon=0.0, f0=0.1)


@pytest.mark.parametrize("pot,thermal,guard,n_excluded", [
    (HARMONIC, False, 1e8, 0),
    (PotentialParams(eta=1.0, alpha=0.3, epsilon=0.0, f0=0.1), True, 1e8, 0),
    (PotentialParams(eta=-1.0, alpha=1.0, epsilon=0.2, f0=0.1), True, 1e8, 0),
    (HARMONIC, False, 0.5, 16),
    (HARMONIC, False, 1.5, 8),
], ids=["harmonic", "quartic_thermal", "tilted_double_well_thermal",
        "guard_0.5", "guard_1.5"])
def test_leading_axis_rows_match_separate_calls(pot, thermal, guard, n_excluded):
    # each row of a (2, n_paths) v0 is one ensemble over the same noise:
    # bit for bit what a call with that row alone gives, exclusions and the
    # guard's resets included: a failure in one row resets only that row
    grid = TimeGrid(10.0, 501)
    noise = sample_noise(grid, CLASSICAL, 8, seed=13)
    v0 = thermal_velocities(CLASSICAL, 8, seed=13) if thermal else np.zeros(8)
    rows = np.stack([v0, v0 + 0.7])
    pair = integrate_qcle(noise, pot, q0=0.0, v0=rows, blowup_guard=guard)
    one = [integrate_qcle(noise, pot, q0=0.0, v0=row, blowup_guard=guard)
           for row in rows]
    assert pair.trajectories.shape == (16, grid.n)
    assert np.array_equal(pair.trajectories,
                          np.vstack([e.trajectories for e in one]))
    assert np.array_equal(pair.excluded, np.concatenate([e.excluded for e in one]))
    assert pair.n_excluded == n_excluded


@pytest.mark.parametrize("pot,thermal", [
    (PotentialParams(eta=1.0, alpha=0.3, epsilon=0.0, f0=0.1), True),
    (PotentialParams(eta=1.0, alpha=0.3, epsilon=0.0, f0=0.1), False),
    (PotentialParams(eta=-1.0, alpha=1.0, epsilon=0.2, f0=0.1), True),
], ids=["quartic_thermal", "quartic", "tilted_double_well_thermal"])
def test_response_pair_matches_two_separate_passes(pot, thermal):
    grid = TimeGrid(8.0, 401)
    noise = sample_noise(grid, CLASSICAL, 300, seed=41)
    f0_kick = 0.1
    r_hat, stderr = estimate_response(pot, noise, f0_kick, thermal_v0=thermal)
    v0 = thermal_velocities(CLASSICAL, 300, seed=41) if thermal else 0.0
    base = integrate_qcle(noise, pot, q0=0.0, v0=v0)
    kicked = integrate_qcle(noise, pot, q0=0.0, v0=v0 + f0_kick)
    assert not (base.excluded.any() or kicked.excluded.any())
    diffs = kicked.trajectories - base.trajectories
    diffs /= f0_kick
    assert np.array_equal(r_hat.values, diffs.mean(axis=0))
    se = diffs.std(axis=0, ddof=1) / np.sqrt(diffs.shape[0])
    assert np.max(np.abs(stderr.values - se)) <= 1e-15 * np.max(se)


def test_response_pair_without_survivors_raises():
    # a kick of 1e9 sends every kicked path past the 1e8 guard, so no pair
    # survives
    grid = TimeGrid(5.0, 251)
    noise = sample_noise(grid, CLASSICAL, 20, seed=5)
    with pytest.raises(SurvivorsError, match="0 of 20"):
        estimate_response(HARMONIC, noise, f0_kick=1e9)


def _stacked_moments(traj, excluded=None):
    """The per-node estimators over a stored (n_paths, n) trajectory array,
    as the moments were computed before the block reducer."""
    if excluded is not None:
        traj = traj[~excluded]
    n = traj.shape[0]
    mean = traj.mean(axis=0)
    prod = traj - mean
    prod *= prod
    var = np.sum(prod, axis=0) / (n - 1)
    prod *= prod
    m4 = np.mean(prod, axis=0)
    se_var = np.sqrt(np.maximum((m4 - var**2 * (n - 3) / (n - 1)) / n, 0.0))
    return mean, var, np.sqrt(var / n), se_var


def _stacked_pair(noise, pot, f0_kick, thermal):
    v0 = (thermal_velocities(noise.bath, noise.n_paths, noise.seed) if thermal
          else np.zeros(noise.n_paths))
    pair = integrate_qcle(noise, pot, q0=0.0, v0=np.stack([v0, v0 + f0_kick]))
    base, kicked = pair.trajectories.reshape(2, noise.n_paths, -1)
    diffs = kicked - base
    diffs /= f0_kick
    return diffs, pair.excluded.reshape(2, -1).any(axis=0)


ONE_PASS_CASES = [
    (HARMONIC, False),
    (PotentialParams(eta=1.0, alpha=0.3, epsilon=0.0, f0=0.1), True),
    (PotentialParams(eta=-1.0, alpha=1.0, epsilon=0.2, f0=0.1), True),
]
ONE_PASS_IDS = ["harmonic", "quartic_thermal", "tilted_double_well_thermal"]


@pytest.mark.parametrize("pot,thermal", ONE_PASS_CASES, ids=ONE_PASS_IDS)
@pytest.mark.parametrize("n", [2, BLOCK_ROWS // 2, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1,
                               301], ids=["n2", "n_lt_B", "n_B+1", "n_2B+1", "n301"])
def test_one_pass_matches_the_stacked_route(pot, thermal, n):
    # the moments ensemble and the kick pair stepped as one batch on a ring
    # of BLOCK_ROWS + 1 rows and reduced block by block: bit for bit what
    # the stored trajectories give, on blocks that end anywhere
    grid = TimeGrid(0.01 * (n - 1), n)
    noise = sample_noise(grid, QUANTUM, 50, seed=23)
    q0, v0, f0_kick = 0.4, 0.3, 0.1
    mc = estimate_mc(noise, pot, q0, v0, f0_kick, thermal_v0=thermal)
    assert not (mc.excluded.any() or mc.pair_excluded.any())
    ens = integrate_qcle(noise, pot, q0=q0, v0=v0)
    est = estimate_moments(ens)
    ref = _stacked_moments(ens.trajectories)
    for name, want in zip(("mean", "variance", "stderr_mean", "stderr_variance"), ref):
        assert np.array_equal(getattr(mc.moments, name).values, want), name
        assert np.array_equal(getattr(est, name).values, want), name
    r_hat, stderr = estimate_response(pot, noise, f0_kick, thermal_v0=thermal)
    diffs, _ = _stacked_pair(noise, pot, f0_kick, thermal)
    pair_ref = _stacked_moments(diffs)
    for got in ((mc.r_hat, mc.stderr_r_hat), (r_hat, stderr)):
        assert np.array_equal(got[0].values, pair_ref[0])
        assert np.array_equal(got[1].values, pair_ref[2])


@pytest.mark.parametrize("n", [2, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1, 200])
def test_ring_blocks_are_the_stored_rows(n):
    # a ring of BLOCK_ROWS + 1 rows hands over consecutive blocks that cover
    # every node once, each equal to the rows integrate_qcle stores
    grid = TimeGrid(0.01 * (n - 1), n)
    noise = sample_noise(grid, CLASSICAL, 6, seed=3)
    pot = PotentialParams(eta=1.0, alpha=0.3, epsilon=0.1, f0=0.1)
    v0 = np.stack([np.zeros(6), np.full(6, 0.2)])
    rows = integrate_qcle(noise, pot, 0.5, v0).trajectories.T.reshape(n, 2, 6)
    ring = np.empty((BLOCK_ROWS + 1, 2, 6))
    alive = np.ones((2, 6), dtype=bool)
    nodes = 0
    for j0, block in qcle.mc._step_rows(noise, pot, 0.5, v0, 1e8, ring, alive):
        assert j0 == nodes and len(block) <= BLOCK_ROWS + 1
        assert np.array_equal(block, rows[j0:j0 + len(block)])
        nodes += len(block)
    assert nodes == n and alive.all()


def _blown_noise(grid, n_paths, seed, paths):
    """Classical noise with inf at one node of the given paths, kept
    time-major: every ensemble over it fails the blow-up guard on them."""
    xi = sample_noise(grid, CLASSICAL, n_paths, seed).values.T.copy()
    xi[grid.n // 3, paths] = np.inf
    return NoiseEnsemble(grid, CLASSICAL, xi.T, seed)


def test_one_pass_exclusions_match_the_stacked_route():
    # inf noise excludes paths 3, 17 and 30 everywhere; q0 = 1e9 excludes
    # paths 5, 17 and 22 of the moments ensemble only. The pass reruns with
    # the exclusions known and drops each failed path from every node,
    # earlier ones included
    grid = TimeGrid(2.0, 201)
    noise = _blown_noise(grid, 40, 13, [3, 17, 30])
    q0 = np.full(40, 0.2)
    q0[[5, 17, 22]] = 1e9
    v0, f0_kick = 0.0, 0.1
    mc = estimate_mc(noise, HARMONIC, q0, v0, f0_kick)
    ens = integrate_qcle(noise, HARMONIC, q0=q0, v0=v0)
    diffs, pair_excluded = _stacked_pair(noise, HARMONIC, f0_kick, False)
    assert np.array_equal(np.flatnonzero(ens.excluded), [3, 5, 17, 22, 30])
    assert np.array_equal(np.flatnonzero(pair_excluded), [3, 17, 30])
    assert np.array_equal(mc.excluded, ens.excluded)
    assert np.array_equal(mc.pair_excluded, pair_excluded)
    est = estimate_moments(ens)
    ref = _stacked_moments(ens.trajectories, ens.excluded)
    for name, want in zip(("mean", "variance", "stderr_mean", "stderr_variance"), ref):
        assert np.array_equal(getattr(mc.moments, name).values,
                              getattr(est, name).values), name
        assert np.array_equal(getattr(mc.moments, name).values, want), name
    pair_ref = _stacked_moments(diffs, pair_excluded)
    assert np.array_equal(mc.r_hat.values, pair_ref[0])
    assert np.array_equal(mc.stderr_r_hat.values, pair_ref[2])


def test_one_pass_survivors_error_carries_both_masks():
    grid = TimeGrid(2.0, 201)
    # the moments ensemble fails: paths 0-37 by their noise, 38 by its q0
    noise = _blown_noise(grid, 40, 13, np.arange(38))
    q0 = np.full(40, 0.2)
    q0[38] = 1e9
    with pytest.raises(SurvivorsError, match="1 of 40") as info:
        estimate_mc(noise, HARMONIC, q0, 0.0, 0.1)
    assert info.value.excluded.sum() == 39 and info.value.pair_excluded.sum() == 38
    # the pair alone fails: every kicked path escapes
    noise = sample_noise(grid, CLASSICAL, 40, seed=13)
    with pytest.raises(SurvivorsError, match="0 of 40") as info:
        estimate_mc(noise, HARMONIC, 0.2, 0.0, 1e9)
    assert info.value.excluded.sum() == 0 and info.value.pair_excluded.sum() == 40


def _row_major_noise(grid, bath, n_paths, seed):
    """sample_noise's synthesis written path by path into (n_paths, n)."""
    nfft = _synthesis_length(grid, bath.nu)
    half = nfft // 2
    wk = 2.0 * np.pi * np.fft.rfftfreq(nfft, d=grid.dt)
    amp = np.sqrt(noise_psd(wk, bath.gamma, bath.temp, bath.nu) / (nfft * grid.dt))
    amp[1:half] /= np.sqrt(2.0)
    rng = np.random.default_rng(seed)
    rows = max(1, NOISE_BLOCK_SAMPLES // nfft)
    out = np.empty((n_paths, grid.n))
    for p in range(0, n_paths, rows):
        x = rng.standard_normal((min(rows, n_paths - p), 2, half + 1))
        out[p:p + len(x)] = np.fft.hfft(amp * (x[:, 0] + 1j * x[:, 1]),
                                        nfft)[:, :grid.n]
    return out


@pytest.mark.parametrize("block", [None, 3], ids=["default_blocks", "blocks_of_3"])
@pytest.mark.parametrize("bath", [CLASSICAL, QUANTUM], ids=["classical", "quantum"])
def test_time_major_fill_matches_the_row_major_fill(bath, block, monkeypatch):
    # the time-major buffer holds the bits of the row-major fill, whatever
    # the synthesis block, with a partial block left at the end
    grid = TimeGrid(5.0, 251)
    nfft = _synthesis_length(grid, bath.nu)
    if block is not None:
        monkeypatch.setattr(qcle.mc, "NOISE_BLOCK_SAMPLES", block * nfft)
    n_paths = 7 * (NOISE_BLOCK_SAMPLES // nfft) + 3
    noise = sample_noise(grid, bath, n_paths, seed=8)
    assert noise.values.shape == (n_paths, grid.n)
    assert noise.values.T.flags.c_contiguous  # row j: every path at t_j
    assert np.array_equal(noise.values, _row_major_noise(grid, bath, n_paths, 8))
