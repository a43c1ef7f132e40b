"""Closed forms against 40-digit mpmath references."""

import mpmath
import numpy as np
import pytest

from qcle._numutil import e1m
from qcle.kernels import chi_q, chi_v, chi_v_dot
from qcle.mc import _propagator_constants


def _force_weights(gamma, eta, h):
    """(a_q, b_q, a_v, b_v) from the 40-digit quadratures of the closed-form
    chi_v(u) = e^{-gamma u/2} sinh(w u)/w, w^2 = gamma^2/4 - eta, and of
    u chi_v(u) over [0, h]: a force interpolated linearly from F_j to F_{j+1}
    adds a F_j + b F_{j+1} to q and to v (whose kernel chi_v_dot integrates
    by parts into chi_v)."""
    with mpmath.workdps(40):
        g, h = mpmath.mpf(gamma), mpmath.mpf(h)
        w = mpmath.sqrt(mpmath.mpc(g * g / 4 - eta))

        def chi_v(u):
            if w == 0:
                return u * mpmath.exp(-g * u / 2)
            return mpmath.re(mpmath.exp(-g * u / 2) * mpmath.sinh(w * u) / w)

        j0 = mpmath.quad(chi_v, [0, h])
        j1 = mpmath.quad(lambda u: u * chi_v(u), [0, h])
        return j1 / h, j0 - j1 / h, chi_v(h) - j0 / h, j0 / h


def _worst_relative_error(gamma, eta, h):
    got = _propagator_constants(gamma, eta, h)[4:]
    with mpmath.workdps(40):
        return max(float(abs(mpmath.mpf(x) - y) / abs(y))
                   for x, y in zip(got, _force_weights(gamma, eta, h)))


# measured: at most 8.5e-16 (h = 1.1e-4; critical damping 5.9e-16, gamma =
# 1000 3.4e-16, the tilted workload step 3.5e-16)
@pytest.mark.parametrize("gamma,eta,h", [
    (1.0, 1.0, 0.01),
    (1.0, 1.0, 5e-5),
    (1.0, 1.0, 1e-5),
    (1.0, 1.0, 0.5),
    (2.0, -1.0, 0.01),
    (1.0, 1.0, 1e-3),
    (1.0, 1.0, 1.1e-4),
    (2.0, 1.0, 0.01),
    (2.0, 1.0 + 1e-11, 0.01),
    (2.0, 1.0 - 1e-11, 0.01),
    (1000.0, 1.0, 0.01),
    (1.0, -1.0, 0.5),
    (2.0, -1.0, 0.005),
], ids=["h_0.01", "h_5e-5", "h_1e-5", "h_0.5", "eta_negative", "h_1e-3",
        "h_1.1e-4", "critical", "critical_plus", "critical_minus",
        "gamma_1000", "eta_negative_h_0.5", "tilted_workload_step"])
def test_propagator_force_weights_against_mpmath(gamma, eta, h):
    assert _worst_relative_error(gamma, eta, h) < 1e-14


def _kernels(gamma, eta, t):
    """40-digit (chi_q, chi_v, chi_v_dot) at t from e^{-gamma t/2} times
    cosh(w t) + (gamma/2) sinh(w t)/w, sinh(w t)/w and
    cosh(w t) - (gamma/2) sinh(w t)/w, w^2 = gamma^2/4 - eta."""
    g, t = mpmath.mpf(gamma), mpmath.mpf(t)
    w = mpmath.sqrt(mpmath.mpc(g * g / 4 - eta))
    sinhc = t if w == 0 else mpmath.sinh(w * t) / w
    cosh = mpmath.cosh(w * t)
    e = mpmath.exp(-g * t / 2)
    return [mpmath.re(e * (cosh + g / 2 * sinhc)), mpmath.re(e * sinhc),
            mpmath.re(e * (cosh - g / 2 * sinhc))]


KERNEL_TIMES = np.array([0.0, 1e-6, 1e-3, 0.1, 1.0, 3.7, 15.0])


# measured: at most 9.8e-16 of max|kernel| over the times (eta < 0, where
# the kernels grow to e^9 at t = 15), 3.8e-16 at gamma = 0.1 and at most
# 1.6e-16 elsewhere
@pytest.mark.parametrize("gamma,eta", [
    (1.0, 1.0), (0.1, 4.0), (2.0, 1.0), (2.0, 1.0 + 1e-11), (2.0, 1.0 - 1e-11),
    (3.0, 1.0), (1.0, -1.0),
], ids=["underdamped", "underdamped_light", "critical", "critical_plus",
        "critical_minus", "overdamped", "eta_negative"])
def test_kernels_against_mpmath(gamma, eta):
    got = [chi_q(KERNEL_TIMES, gamma, eta), chi_v(KERNEL_TIMES, gamma, eta),
           chi_v_dot(KERNEL_TIMES, gamma, eta)]
    with mpmath.workdps(40):
        refs = zip(*(_kernels(gamma, eta, t) for t in KERNEL_TIMES))
        for values, ref in zip(got, refs):
            err = max(abs(mpmath.mpf(x) - r) for x, r in zip(values, ref))
            assert float(err / max(abs(r) for r in ref)) < 1e-14


# measured: at most 2.0e-16 (x = 0.7 + 0.72j); |x| < 1 takes expm1, the
# rest exp
@pytest.mark.parametrize("x", [
    1e-12, 1e-5, 0.3, 0.999, 1.001, 2.5, 30.0, -0.5, -0.999, -1.001, -5.0,
    1e-8j, 1e-8 + 1e-8j, 0.7j, 0.999j, 0.5 + 0.5j, -0.6 + 0.7j, 0.5 - 0.8j,
    1.001j, 0.7 + 0.72j, 3j, 2 + 2j,
])
def test_e1m_against_mpmath(x):
    with mpmath.workdps(40):
        ref = -mpmath.expm1(-mpmath.mpmathify(x)) / x
        got = mpmath.mpmathify(complex(e1m(x)) if isinstance(x, complex)
                               else float(e1m(x)))
        assert float(abs(got - ref) / abs(ref)) < 1e-15
