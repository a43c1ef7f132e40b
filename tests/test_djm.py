"""Banach-operator recursion core."""

import math
import warnings

import numpy as np
import pytest

from qcle import FreqGrid, Spectrum, TimeGrid, djm_solve
from qcle._numutil import cumtrapz


def test_zero_operator_returns_f():
    sol = djm_solve(3.5, lambda x: 0.0 * x, tol=1e-12)
    assert sol.converged
    assert sol.partial_sum == 3.5
    assert sol.term_norms[1] == 0.0
    # apply_b None is B = 0: f, converged, with no application
    none = djm_solve(3.5, None, tol=1e-12)
    assert none.converged and none.partial_sum == 3.5 and none.term_norms == [3.5]


def test_scalar_affine_contraction():
    sol = djm_solve(1.0, lambda x: 0.5 * x, tol=1e-10, k_max=60)
    assert sol.converged
    assert sol.partial_sum == pytest.approx(2.0, abs=1e-9)
    # geometric term norms with ratio = contraction constant
    norms = np.asarray(sol.term_norms)
    ratios = norms[1:6] / norms[:5]
    assert np.allclose(ratios, 0.5, atol=1e-12)
    assert norms[0] == 1.0 and norms[1] == 0.5 and norms[2] == 0.25


def _volterra_exp_problem(n=1001):
    grid = TimeGrid(1.0, n)
    dt = grid.dt
    return grid, np.ones(n), lambda u: cumtrapz(u, dt)


def _solve_recording(f, apply_b, **kwargs):
    """djm_solve plus its partial sums S_0 .. S_{k-1}: the iterates apply_b
    sees, then the returned partial_sum."""
    partial = []

    def recording_b(u):
        partial.append(u)
        return apply_b(u)

    sol = djm_solve(f, recording_b, **kwargs)
    return sol, partial + [sol.partial_sum]


def test_volterra_exponential():
    grid, f, apply_b = _volterra_exp_problem()
    sol, partial = _solve_recording(f, apply_b, tol=1e-9, k_max=25)
    assert sol.converged
    assert np.max(np.abs(sol.partial_sum - np.exp(grid.times))) < 1e-6
    # the increments u_k = S_k - S_{k-1} reproduce the Taylor terms t^k/k!
    t = grid.times
    for k in (1, 3, 6):
        u_k = partial[k] - partial[k - 1]
        assert np.max(np.abs(u_k - t**k / math.factorial(k))) < 1e-4


def test_max_error_remainder():
    grid, f, apply_b = _volterra_exp_problem()
    sol = djm_solve(f, apply_b, tol=1e-9, k_max=25)
    k = sol.k - 1
    # the last term's norm (the stopping diagnostic): Taylor tail bound plus
    # grid error
    assert sol.term_norms[-1] <= 1.0 / math.factorial(k) + 1e-6
    zero = djm_solve(0.0, lambda x: 0.0 * x, tol=1e-12)
    assert zero.term_norms[-1] == 0.0


def test_telescoping_identity():
    grid, f, apply_b = _volterra_exp_problem()
    sol, partial = _solve_recording(f, apply_b, tol=1e-9, k_max=25)
    assert len(partial) == sol.k
    for m in range(sol.k - 1):
        rhs = f + apply_b(partial[m])
        assert np.max(np.abs(partial[m + 1] - rhs)) < 1e-12
    # the term norms are the norms of the increments, and the increments
    # sum to partial_sum
    norms = [np.max(np.abs(b - a)) for a, b in zip(partial, partial[1:])]
    assert sol.term_norms == [np.max(np.abs(f))] + norms
    increments = np.diff(np.asarray(partial), axis=0)
    assert np.max(np.abs(f + increments.sum(axis=0) - sol.partial_sum)) < 1e-12


def test_determinism_bit_identical():
    _, f, apply_b = _volterra_exp_problem()
    a = djm_solve(f, apply_b, tol=1e-9, k_max=25)
    b = djm_solve(f, apply_b, tol=1e-9, k_max=25)
    assert np.array_equal(a.partial_sum, b.partial_sum)
    assert a.term_norms == b.term_norms


def test_solution_keeps_no_terms():
    _, f, apply_b = _volterra_exp_problem()
    sol = djm_solve(f, apply_b, tol=1e-9, k_max=25)
    assert set(vars(sol)) == {"partial_sum", "term_norms", "converged", "non_finite"}
    assert sol.non_finite == ""


def test_k_max_reached_is_flag_not_exception():
    sol = djm_solve(1.0, lambda x: 0.9 * x, tol=1e-12, k_max=3)
    assert not sol.converged
    assert sol.k == 4  # u0 plus three operator applications


def test_non_finite_term_stops_with_its_index():
    # a term past the float range ends the recursion as k_max does: a record
    # whose k is the index of that term, holding the finite terms before it
    def explode(x):
        return x * 1e200

    sol = djm_solve(1.0, explode, tol=1e-12, k_max=10)
    assert sol.converged is False
    assert sol.term_norms == [1.0, 1e200]
    assert sol.partial_sum == 1.0 + 1e200
    assert sol.non_finite == "non-finite values in recursion term 2"


def test_array_overflow_stops_at_its_index():
    # the overflowing application itself is reported, with no RuntimeWarning
    def explode(x):
        return x * 1e200

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = djm_solve(np.ones(3), explode, tol=1e-12, k_max=10)
    assert sol.k == 2 and not sol.converged
    assert sol.non_finite == "non-finite values in recursion term 2"
    assert np.all(np.isfinite(sol.partial_sum))


@pytest.mark.parametrize("f", [
    math.inf, np.array([0.0, np.nan]),
    Spectrum(FreqGrid(10.0, 21), np.ones(11), math.nan),
], ids=["inf", "nan", "spectrum_nan_dirac"])
def test_non_finite_f_is_term_0(f):
    # no term is finite: the record keeps no norm, and f as its partial sum
    sol = djm_solve(f, lambda x: 0.5 * x, tol=1e-12, k_max=10)
    assert sol.term_norms == [] and sol.converged is False
    assert sol.non_finite == "non-finite values in recursion term 0"
    assert sol.partial_sum is f


def test_bad_arguments():
    with pytest.raises(ValueError):
        djm_solve(1.0, lambda x: x, tol=0.0)
    with pytest.raises(ValueError):
        djm_solve(1.0, lambda x: x, tol=1e-6, k_max=0)
