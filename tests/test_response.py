"""Time-domain response: harmonic-kernel Volterra recursion and direct
integration."""

import numpy as np
import pytest

from qcle import (BathParams, PotentialParams,
                  ResponseProblem, SampledSignal, StepInstabilityError, TimeGrid,
                  chi_q, chi_v, integrate_duffing, mean_trajectory, ode_residual,
                  solve_response_windowed, variance, zero_sigma2)
from qcle._numutil import cumtrapz, trapezoid_weights
from qcle.moments import SpectralQuadrature
from qcle.params import parabolic
from qcle.response import _substeps_per_step

BATH = BathParams(gamma=1.0, temp=1.0, nu=1e4)


def _ho_problem(t_max=10.0, n=2001):
    grid = TimeGrid(t_max, n)
    return ResponseProblem(parabolic(), BATH, zero_sigma2(grid), grid)


def _one_window(problem, tol, k_max):
    return solve_response_windowed(problem, window=problem.grid.t_max, tol=tol,
                                   k_max=k_max)


def test_ho_response_both_routes():
    prob = _ho_problem()
    exact = chi_v(prob.grid.times, 1.0, 1.0)
    r, (sol,) = _one_window(prob, tol=1e-7, k_max=80)
    assert sol.converged
    assert np.max(np.abs(r.values - exact)) < 1e-4
    r_ode = integrate_duffing(prob, dt_sub=1e-3)
    assert np.max(np.abs(r_ode.values - exact)) < 1e-6


def test_tilt_superposition():
    # alpha = 0, eps != 0: R = chi_v - (eps/f0) int_0^t chi_v,
    # with int_0^t chi_v = (1 - chi_q)/eta, so R(inf) = -eps/(f0 eta)
    grid = TimeGrid(10.0, 2001)
    pot = PotentialParams(eta=1.0, alpha=0.0, epsilon=0.05, f0=0.5)
    prob = ResponseProblem(pot, BATH, zero_sigma2(grid), grid)
    r, (sol,) = _one_window(prob, tol=1e-8, k_max=80)
    assert sol.converged
    t = grid.times
    exact = chi_v(t, 1.0, 1.0) - 0.1 * (1.0 - chi_q(t, 1.0, 1.0))
    assert np.max(np.abs(r.values - exact)) < 1e-4
    # the plateau, on a long horizon in windows
    grid2 = TimeGrid(25.0, 2501)
    prob2 = ResponseProblem(pot, BATH, zero_sigma2(grid2), grid2)
    r2, sols = solve_response_windowed(prob2, window=2.5, tol=1e-9, k_max=60)
    assert all(s.converged for s in sols)
    assert r2.values[-1] == pytest.approx(-0.1, abs=1e-4)


@pytest.mark.parametrize("gamma,eta,alpha", [(1.0, 1.0, 0.0), (2.5, 0.8, 0.0),
                                             (1.0, 1.0, 0.3)])
def test_initial_conditions(gamma, eta, alpha):
    grid = TimeGrid(6.0, 6001)
    pot = PotentialParams(eta=eta, alpha=alpha, epsilon=0.0, f0=0.1)
    bath = BathParams(gamma=gamma, temp=1.0, nu=1e4)
    prob = ResponseProblem(pot, bath, zero_sigma2(grid), grid)
    r, sol = solve_response_windowed(prob, window=2.0, tol=1e-9, k_max=70)
    assert all(s.converged for s in sol)
    assert r.values[0] == 0.0
    slope = (r.values[1] - r.values[0]) / grid.dt
    assert abs(slope - 1.0) <= 10.0 * grid.dt


def test_integrate_duffing_order_four():
    grid = TimeGrid(5.0, 501)
    pot = PotentialParams(eta=1.0, alpha=0.3, epsilon=0.0, f0=0.1)
    prob = ResponseProblem(pot, BATH, zero_sigma2(grid), grid)
    coarse = integrate_duffing(prob, dt_sub=2e-3).values
    fine = integrate_duffing(prob, dt_sub=1e-3).values
    finest = integrate_duffing(prob, dt_sub=5e-4).values
    e1 = np.max(np.abs(coarse - finest))
    e2 = np.max(np.abs(fine - finest))
    assert e2 < e1 / 8.0  # halving dt_sub cuts the error ~16x


def test_integrate_duffing_guards():
    prob = _ho_problem(n=101)
    with pytest.raises(ValueError):
        integrate_duffing(prob, dt_sub=1.0)  # dt_sub > grid spacing
    # inverted potential with negligible quartic and a tiny guard blows up
    grid = TimeGrid(30.0, 301)
    pot = PotentialParams(eta=-1.0, alpha=1e-12, epsilon=0.0, f0=0.1)
    prob2 = ResponseProblem(pot, BATH, zero_sigma2(grid), grid)
    with pytest.raises(StepInstabilityError):
        integrate_duffing(prob2, dt_sub=0.1, blowup_guard=100.0)


def _numpy_scalar_duffing(problem, dt_sub, blowup_guard=1e8):
    """Reference: integrate_duffing as a loop over numpy scalars, with sigma^2
    read per substep from interpolated arrays and an RK4 acceleration
    function."""
    grid = problem.grid
    dt = grid.dt
    n_sub = int(_substeps_per_step(dt, dt_sub))
    h = dt / n_sub
    pot, bath = problem.potential, problem.bath
    gamma = bath.gamma
    eta, alpha, f0 = pot.eta, pot.alpha, pot.f0
    tilt = pot.epsilon / f0
    af2 = alpha * f0**2
    t_nodes = grid.times
    sub = np.arange(grid.n - 1)[:, None] * dt + np.arange(n_sub)[None, :] * h
    t_sub = sub.ravel()
    sig_a = np.interp(t_sub, t_nodes, problem.sigma2.values)
    sig_m = np.interp(t_sub + h / 2.0, t_nodes, problem.sigma2.values)
    sig_b = np.interp(t_sub + h, t_nodes, problem.sigma2.values)
    out = np.empty(grid.n)
    out[0] = 0.0
    r, v = 0.0, 1.0

    def acc(rr, sig):
        return -(eta + 3.0 * alpha * sig) * rr - af2 * rr**3 - tilt

    idx = 0
    for j in range(grid.n - 1):
        for _ in range(n_sub):
            sa, smid, sb = sig_a[idx], sig_m[idx], sig_b[idx]
            idx += 1
            k1r = v
            k1v = -gamma * v + acc(r, sa)
            k2r = v + 0.5 * h * k1v
            k2v = -gamma * (v + 0.5 * h * k1v) + acc(r + 0.5 * h * k1r, smid)
            k3r = v + 0.5 * h * k2v
            k3v = -gamma * (v + 0.5 * h * k2v) + acc(r + 0.5 * h * k2r, smid)
            k4r = v + h * k3v
            k4v = -gamma * (v + h * k3v) + acc(r + h * k3r, sb)
            r += (h / 6.0) * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
            v += (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        if not (abs(r) < blowup_guard and abs(v) < blowup_guard):
            raise StepInstabilityError(
                f"integration blew up near t = {t_nodes[j + 1]:.3g}; "
                "reduce dt_sub"
            )
        out[j + 1] = r
    return SampledSignal(grid, out)


def _quantum_sigma2(grid, pot):
    bath = BathParams(gamma=1.0, temp=0.5, nu=2.0)
    return variance(grid, bath, pot, quad=SpectralQuadrature(300.0, rtol=0.1))


DUFFING_GRID = TimeGrid(10.0, 1001)
RAMP = SampledSignal(DUFFING_GRID, np.linspace(0.0, 0.4, DUFFING_GRID.n))
TILTED_WELL = PotentialParams(eta=-1.0, alpha=1.0, epsilon=0.1, f0=0.5)


@pytest.mark.parametrize("pot,quantum,dt_sub", [
    pytest.param(parabolic(), False, 0.01, id="alpha0-nsub1"),
    pytest.param(parabolic(), False, 0.01 / 7, id="alpha0-nsub7"),
    pytest.param(PotentialParams(eta=0.0, alpha=1.0, f0=1.0), False, 0.004,
                 id="quartic-nsub3"),
    pytest.param(TILTED_WELL, False, 0.01, id="tilted_double_well-nsub1"),
    pytest.param(TILTED_WELL, False, 0.0025, id="tilted_double_well-nsub4"),
    pytest.param(PotentialParams(eta=1.0, alpha=0.2, f0=1.0), True, 0.001,
                 id="quantum_nu-nsub10"),
])
def test_integrate_duffing_matches_numpy_scalar_loop(pot, quantum, dt_sub):
    # the plain-float loop makes the same IEEE operations: the same bits
    sig = _quantum_sigma2(DUFFING_GRID, pot) if quantum else RAMP
    prob = ResponseProblem(pot, BATH, sig, DUFFING_GRID)
    ours = integrate_duffing(prob, dt_sub=dt_sub).values
    assert np.array_equal(ours, _numpy_scalar_duffing(prob, dt_sub).values)


@pytest.mark.parametrize("grid,pot,dt_sub,guard", [
    # the guard trips at a grid node with every value finite
    pytest.param(TimeGrid(30.0, 301), PotentialParams(eta=-1.0, alpha=1e-12),
                 0.1, 100.0, id="guard"),
    # r**3 overflows inside a grid step of 20 substeps
    pytest.param(TimeGrid(10.0, 11), PotentialParams(eta=1.0, alpha=1e8, f0=1.0),
                 0.05, 1e8, id="cube_overflow"),
])
def test_integrate_duffing_blowup_node_matches(grid, pot, dt_sub, guard):
    prob = ResponseProblem(pot, BATH, zero_sigma2(grid), grid)
    with pytest.raises(StepInstabilityError) as ours:
        integrate_duffing(prob, dt_sub=dt_sub, blowup_guard=guard)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(StepInstabilityError) as ref:
        _numpy_scalar_duffing(prob, dt_sub, blowup_guard=guard)
    assert str(ours.value) == str(ref.value)
    if guard == 1e8:
        with np.errstate(over="raise"), pytest.raises(FloatingPointError,
                                                      match="power"):
            _numpy_scalar_duffing(prob, dt_sub)


def test_ode_residual_cases():
    prob = _ho_problem(n=10001)
    exact = SampledSignal(prob.grid, chi_v(prob.grid.times, 1.0, 1.0))
    assert ode_residual(exact, prob) < 1e-4  # discretization error only
    pot = PotentialParams(eta=1.0, alpha=0.0, epsilon=0.3, f0=0.1)
    prob2 = ResponseProblem(pot, BATH, zero_sigma2(prob.grid), prob.grid)
    zero = zero_sigma2(prob.grid)
    assert ode_residual(zero, prob2) == pytest.approx(3.0)  # |eps/f0|


def test_linear_regime_independence():
    # alpha = 0: solution independent of f0 and sigma2
    grid = TimeGrid(8.0, 801)
    base = ResponseProblem(parabolic(f0=0.1), BATH, zero_sigma2(grid), grid)
    r1, _ = _one_window(base, tol=1e-9, k_max=80)
    sig = SampledSignal(grid, np.linspace(0.0, 2.0, grid.n))
    alt = ResponseProblem(parabolic(f0=7.0), BATH, sig, grid)
    r2, _ = _one_window(alt, tol=1e-9, k_max=80)
    assert np.array_equal(r1.values, r2.values)


def test_scaling_law_alpha_f0():
    # with sigma2 = 0 only the product alpha f0^2 enters
    grid = TimeGrid(6.0, 601)
    p1 = PotentialParams(eta=1.0, alpha=0.4, epsilon=0.0, f0=0.1)
    p2 = PotentialParams(eta=1.0, alpha=0.1, epsilon=0.0, f0=0.2)
    r1, _ = solve_response_windowed(
        ResponseProblem(p1, BATH, zero_sigma2(grid), grid), window=2.0,
        tol=1e-10, k_max=60)
    r2, _ = solve_response_windowed(
        ResponseProblem(p2, BATH, zero_sigma2(grid), grid), window=2.0,
        tol=1e-10, k_max=60)
    assert np.max(np.abs(r1.values - r2.values)) < 1e-12


def test_windowed_matches_plain_and_integrator():
    # nonlinear problem with a physical sigma2: the windowed recursion agrees
    # with the direct integrator, and on a short horizon with one window
    pot = PotentialParams(eta=1.0, alpha=0.3, epsilon=0.0, f0=0.1)
    bath = BathParams(gamma=1.0, temp=0.5, nu=1e4)
    grid = TimeGrid(12.0, 1201)
    sig2 = variance(grid, bath, pot)
    prob = ResponseProblem(pot, bath, sig2, grid)
    r_win, sols = solve_response_windowed(prob, window=2.5, tol=1e-9, k_max=60)
    assert all(s.converged for s in sols)
    r_ode = integrate_duffing(prob, dt_sub=2e-3)
    assert np.max(np.abs(r_win.values - r_ode.values)) < 1e-4

    short = TimeGrid(3.0, 301)
    sig_s = SampledSignal(short, sig2.values[:301])
    prob_s = ResponseProblem(pot, bath, sig_s, short)
    r_plain, (sol,) = _one_window(prob_s, tol=1e-10, k_max=60)
    assert sol.converged
    r_win_s, _ = solve_response_windowed(prob_s, window=1.0, tol=1e-10, k_max=60)
    assert np.max(np.abs(r_plain.values - r_win_s.values)) < 1e-9


def _nonlinear_short_problem():
    grid = TimeGrid(3.0, 301)
    pot = PotentialParams(eta=1.0, alpha=0.3, epsilon=0.05, f0=0.1)
    sig = SampledSignal(grid, np.linspace(0.0, 0.4, grid.n))
    return ResponseProblem(pot, BATH, sig, grid)


def _trapezoid_identity(problem, r):
    """f + B(r) on every node, summed term by term: f = chi_v - (eps/f0)
    int chi_v, B(r)(t_i) = -sum_j w_j chi_v(t_i - t_j) N(r)(t_j) with the
    trapezoid weights of [0, t_i]."""
    grid, pot = problem.grid, problem.potential
    cv = chi_v(grid.times, problem.bath.gamma, pot.eta)
    force = (3.0 * pot.alpha * problem.sigma2.values * r
             + pot.alpha * pot.f0**2 * r**3)
    b = [0.0] + [-(trapezoid_weights(i + 1, grid.dt) * cv[i::-1]) @ force[:i + 1]
                 for i in range(1, grid.n)]
    return cv - (pot.epsilon / pot.f0) * cumtrapz(cv, grid.dt) + np.array(b)


def test_windowed_meets_the_global_identity():
    # the history vector makes every window solve the global trapezoid
    # equations on its nodes
    grid = TimeGrid(15.0, 1501)
    pot = PotentialParams(eta=1.0, alpha=0.3, epsilon=0.05, f0=0.1)
    sig = SampledSignal(grid, np.linspace(0.0, 0.4, grid.n))
    prob = ResponseProblem(pot, BATH, sig, grid)
    tol = 1e-10
    r, sols = solve_response_windowed(prob, window=2.5, tol=tol, k_max=60)
    assert len(sols) == 6 and all(s.converged for s in sols)
    assert np.max(np.abs(_trapezoid_identity(prob, r.values) - r.values)) <= 10 * tol


def test_window_length_does_not_change_the_solution():
    prob = _nonlinear_short_problem()
    r1, sols = solve_response_windowed(prob, window=1.0, tol=1e-10, k_max=60)
    assert len(sols) == 3 and all(s.converged for s in sols)
    r2, (sol,) = _one_window(prob, tol=1e-10, k_max=60)
    assert sol.converged
    assert np.max(np.abs(r1.values - r2.values)) <= 1e-9


def test_linear_response_is_the_tilted_harmonic_kernel():
    # alpha = 0: R = chi_v - (eps/f0) int chi_v on the grid, in every window
    grid = TimeGrid(15.0, 1501)
    pot = PotentialParams(eta=1.0, alpha=0.0, epsilon=0.05, f0=0.1)
    sig = SampledSignal(grid, np.linspace(0.0, 0.4, grid.n))
    r, sols = solve_response_windowed(ResponseProblem(pot, BATH, sig, grid),
                                      window=1.0, tol=1e-10, k_max=60)
    assert all(s.converged for s in sols)
    cv = chi_v(grid.times, 1.0, 1.0)
    assert np.max(np.abs(r.values - (cv - 0.5 * cumtrapz(cv, grid.dt)))) <= 1e-13


def test_response_is_the_kicked_mean():
    # the response is the mean for (q0, v0) = (0, f0), divided by f0
    prob = _nonlinear_short_problem()
    tol = 1e-10
    r, _ = solve_response_windowed(prob, window=1.0, tol=tol, k_max=60)
    pot = prob.potential
    g, _ = mean_trajectory(0.0, pot.f0, pot, prob.bath, prob.sigma2, 1.0,
                           tol=tol * pot.f0, k_max=80)
    assert np.max(np.abs(g.values / pot.f0 - r.values)) <= tol


def test_quartic_well_converges_in_windows():
    # the pure quartic well at alpha f0^2 = 1 on a long horizon, where the
    # variance grows without a plateau: every window converges, and the
    # result agrees with the integrator
    grid = TimeGrid(15.0, 1501)
    pot = PotentialParams(eta=0.0, alpha=1.0, epsilon=0.0, f0=1.0)
    bath = BathParams(gamma=1.0, temp=0.2, nu=1e4)
    prob = ResponseProblem(pot, bath, variance(grid, bath, pot), grid)
    r, sols = solve_response_windowed(prob, window=2.5, tol=1e-10, k_max=60)
    assert len(sols) == 6 and all(s.converged for s in sols)
    r_ode = integrate_duffing(prob, dt_sub=2e-3)
    assert np.max(np.abs(r.values - r_ode.values)) < 2e-5


def test_k_max_exhaustion_keeps_partial_sum():
    prob = _nonlinear_short_problem()
    r, sols = solve_response_windowed(prob, window=prob.grid.t_max, tol=1e-14,
                                      k_max=2)
    assert len(sols) == 1 and not sols[0].converged
    assert np.array_equal(r.values, sols[0].partial_sum)
    assert np.any(r.values != 0.0)


def test_problem_grid_validation():
    grid = TimeGrid(5.0, 101)
    other = TimeGrid(5.0, 201)
    with pytest.raises(ValueError):
        ResponseProblem(parabolic(), BATH, zero_sigma2(other), grid)
