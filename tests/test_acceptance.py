"""Acceptance gate: every criterion at its stated tolerance.

Each test prints the one-line PASS/FAIL report for its criterion. The
criteria run through qcle.acceptance, the same code path as the CLI
`validate` subcommand.

Criterion 6 is expected to fail: its first clause demands the spectral
density equal 2*gamma*T within 1e-6 relative for |omega| <= 10 at nu = 1e4,
but the density (2 pi gamma T/nu) omega coth(pi omega/nu) deviates by
(pi*omega/nu)^2/3 = 3.29e-6 at omega = 10. No implementation of the adopted
(physically correct) density can satisfy the stated bound; see the README
acceptance-status section. The test asserts the criterion exactly as stated
and is marked as a strict expected failure so the discrepancy stays visible.
"""

import pytest

from qcle.acceptance import run_acceptance


def test_criterion_1_ho_susceptibility_identity():
    res = run_acceptance([1])[0]
    assert res.passed, res.detail


def test_criterion_2_ho_response_identity():
    res = run_acceptance([2])[0]
    assert res.passed, res.detail


def test_criterion_3_nonlinear_route_equivalence():
    res = run_acceptance([3])[0]
    assert res.passed, res.detail


def test_criterion_4_ode_residuals():
    res = run_acceptance([4])[0]
    assert res.passed, res.detail


def test_criterion_5_recursion_benchmark():
    res = run_acceptance([5])[0]
    assert res.passed, res.detail


@pytest.mark.xfail(strict=True,
                   reason="stated tolerance unattainable: (pi*10/1e4)^2/3 "
                          "= 3.29e-6 > 1e-6; see README")
def test_criterion_6_classical_limit_bath():
    res = run_acceptance([6])[0]
    assert res.passed, res.detail


def test_criterion_7_monte_carlo_oracle():
    res = run_acceptance([7])[0]
    assert res.passed, res.detail


def test_criterion_8_nonlinear_mc_cross_check():
    res = run_acceptance([8])[0]
    assert res.passed, res.detail


def test_criterion_9_symmetry_causality():
    res = run_acceptance([9])[0]
    assert res.passed, res.detail
