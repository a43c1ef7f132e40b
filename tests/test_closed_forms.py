"""Closed forms against 40-digit mpmath references."""

import mpmath
import pytest

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


# measured: 1.8e-11, 4.1e-12, 3.1e-11, 1.9e-15 and 9.2e-11; h = 5e-5 takes
# q1's Taylor branch (|s h| < 1e-4)
@pytest.mark.parametrize("gamma,eta,h,bound", [
    (1.0, 1.0, 0.01, 1e-10),
    (1.0, 1.0, 5e-5, 1e-10),
    (1.0, 1.0, 1e-5, 1e-10),
    (1.0, 1.0, 0.5, 1e-13),
    (2.0, -1.0, 0.01, 1e-9),
], ids=["h_0.01", "h_5e-5_series", "h_1e-5", "h_0.5", "eta_negative"])
def test_propagator_force_weights_against_mpmath(gamma, eta, h, bound):
    assert _worst_relative_error(gamma, eta, h) < bound


# known faults: q1's closed form (e^x (x - 1) + 1)/s^2 cancels just above
# its Taylor switch, and the divided difference [F(s+) - F(s-)]/w0 cancels
# near critical damping, past effective_roots' widening. Measured: 6.4e-7,
# 8.2e-4 and 8.4e-6
@pytest.mark.xfail(strict=True, reason="ROADMAP item 5, the MC force weights to "
                   "roundoff: q1 and the divided difference over w0 cancel")
@pytest.mark.parametrize("gamma,eta,h", [
    (1.0, 1.0, 1e-3),
    (1.0, 1.0, 1.1e-4),
    (2.0, 1.0, 0.01),
], ids=["h_1e-3", "h_1.1e-4", "critical"])
def test_propagator_force_weights_known_cancellation(gamma, eta, h):
    assert _worst_relative_error(gamma, eta, h) < 1e-10
