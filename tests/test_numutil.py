"""Shared numerical primitives: the chirp-z Fourier sum and e1m."""

import mpmath
import numpy as np
import pytest

from qcle._numutil import e1m, phase_stepped_sum


@pytest.mark.parametrize("rows", [None, 2])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("n", [1, 6, 7])
@pytest.mark.parametrize("m", [1, 10, 11])
def test_phase_stepped_sum_matches_direct_sum(rows, sign, n, m):
    rng = np.random.default_rng(100 * n + m)
    shape = (n,) if rows is None else (rows, n)
    coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    x0, dx = -2.3, 0.37
    ys = np.linspace(-5.0, 1.5, m)  # negative first node, as for t < 0
    direct = coeffs @ np.exp(sign * 1j * np.outer(ys, x0 + dx * np.arange(n))).T
    got = phase_stepped_sum(coeffs, x0, dx, ys, sign)
    assert got.shape == direct.shape
    bound = 1e-13 * np.sum(np.abs(coeffs), axis=-1, keepdims=True)
    assert np.all(np.abs(got - direct) <= bound)


# mpmath at 40 digits rounds 1 - e^{-x} to 0 for |x| below about 1e-20, so
# no reference point lies there
@pytest.mark.parametrize("x", [0.0, 1e-12, 1e-6 * (1 + 1j), 1e-3j, 0.99, 1.01,
                               0.5 - 2j, 40j, -30.0, 700.0])
def test_e1m_against_mpmath(x):
    with mpmath.workdps(40):
        xm = mpmath.mpmathify(x)
        ref = mpmath.mpf(1) if x == 0 else (1 - mpmath.exp(-xm)) / xm
        got = complex(e1m(x))
        assert float(abs(mpmath.mpmathify(got) - ref) / abs(ref)) <= 4e-16
    assert e1m(np.array([0.0, 0j]))[0] == 1.0
