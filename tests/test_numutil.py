"""Shared numerical primitives: the Hermitian convolution, the chirp-z
Fourier sum and e1m."""

import mpmath
import numpy as np
import pytest

from qcle._numutil import e1m, hermitian_convolve, phase_stepped_sum


def _hermitian_half(rng, m, kind):
    re, im = rng.normal(size=m), rng.normal(size=m)
    im[0] = 0.0
    if kind == "real":
        return re + 0j
    if kind == "odd_imaginary":
        return 1j * im
    return re + 1j * im


@pytest.mark.parametrize("kind", ["general", "real", "odd_imaginary"])
@pytest.mark.parametrize("m", [1, 2, 5, 33])
def test_hermitian_convolve_matches_direct_sum(m, kind):
    rng = np.random.default_rng(m)
    a, b = _hermitian_half(rng, m, kind), _hermitian_half(rng, m, "general")

    def full(h):  # A[k] for k = -(m-1) .. m-1
        return np.concatenate([np.conj(h[:0:-1]), h])

    fa, fb = full(a), full(b)
    # j and k - j both in -(m-1) .. m-1
    direct = np.array([sum(fa[m - 1 + j] * fb[m - 1 + k - j]
                           for j in range(k - m + 1, m)) for k in range(m)])
    got = hermitian_convolve(a, b)
    assert got.shape == (m,)
    assert np.max(np.abs(got - direct)) <= 1e-14 * max(np.max(np.abs(direct)), 1e-300)


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
