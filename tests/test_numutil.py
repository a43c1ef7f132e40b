"""Shared numerical primitives: the FFT length rule, the Hermitian
convolution, the chirp-z Fourier sum, the Volterra convolution and e1m."""

import tracemalloc

import mpmath
import numpy as np
import pytest

from qcle._numutil import (e1m, fft_length, hermitian_convolve,
                           hermitian_transform, phase_stepped_sum, volterra_conv)
from qcle.kernels import chi_tilde


def test_fft_length_is_the_smallest_3_smooth_length():
    def smooth(k):
        for p in (2, 3):
            while k % p == 0:
                k //= p
        return k == 1

    expected, k = [], 1
    for n in range(1, 5001):
        while not smooth(k) or k < n:
            k += 1
        expected.append(k)
    assert [fft_length(n) for n in range(1, 5001)] == expected


def _hermitian_half(rng, m, kind):
    re, im = rng.normal(size=m), rng.normal(size=m)
    im[0] = 0.0
    if kind == "real":
        return re + 0j
    if kind == "odd_imaginary":
        return 1j * im
    return re + 1j * im


# 3m - 2 is 3-smooth at m = 1, 2, 6 and 22, so the circular period is 3m - 2
# itself and no margin is left
@pytest.mark.parametrize("kind", ["general", "real", "odd_imaginary", "self"])
@pytest.mark.parametrize("m", [1, 2, 3, 5, 6, 22, 33])
def test_hermitian_convolve_matches_direct_sum(m, kind):
    rng = np.random.default_rng(m)
    if kind == "self":
        a = b = _hermitian_half(rng, m, "general")
    else:
        a, b = _hermitian_half(rng, m, kind), _hermitian_half(rng, m, "general")

    def full(h):  # A[k] for k = -(m-1) .. m-1
        return np.concatenate([np.conj(h[:0:-1]), h])

    fa, fb = full(a), full(b)
    # j and k - j both in -(m-1) .. m-1
    direct = np.array([sum(fa[m - 1 + j] * fb[m - 1 + k - j]
                           for j in range(k - m + 1, m)) for k in range(m)])
    fa = hermitian_transform(a)
    kept = fa.copy()
    got = hermitian_convolve(a, b, fa)
    if b is a:  # a self-convolution keeps a's transform
        assert np.array_equal(fa, kept)
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


# the circular period fft_length(n + m - 1) is n + m - 1 itself at (1, 1),
# (1, 9), (9, 1) and (145, 18), and no power of two at (20, 18) or (300, 130)
@pytest.mark.parametrize("n,m", [(1, 1), (1, 9), (9, 1), (20, 18), (145, 18),
                                 (300, 130)])
def test_phase_stepped_sum_circular_period(n, m):
    period = fft_length(n + m - 1)
    assert (period == n + m - 1) == ((n, m) in {(1, 1), (1, 9), (9, 1), (145, 18)})
    rng = np.random.default_rng(n + 7 * m)
    coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
    ys = np.linspace(-0.5, 3.0, m)
    x0, dx = 0.4, 0.21
    direct = np.exp(1j * np.outer(ys, x0 + dx * np.arange(n))) @ coeffs
    got = phase_stepped_sum(coeffs, x0, dx, ys, 1)
    assert np.max(np.abs(got - direct)) <= 1e-13 * np.sum(np.abs(coeffs))


def _batched_phase_stepped_sum(coeffs, x0, dx, ys, sign):
    """Reference: the chirp-z sum with every row transformed at once, each
    product of factors in its own fresh (rows, L) array."""
    c = np.asarray(coeffs)
    n, m = c.shape[-1], ys.size
    nfft = fft_length(n + m - 1)
    dy = (ys[-1] - ys[0]) / max(m - 1, 1)
    kc = int(np.argmax(np.abs(c).reshape(-1, n).max(axis=0)))
    xc = x0 + kc * dx
    yc = (ys[0] + ys[-1]) / 2.0
    half_beta = sign * dx * dy / 2.0
    k = np.arange(n) - kc
    acc = np.fft.fft(c * np.exp(1j * (sign * yc * dx * k + half_beta * k * k)),
                     nfft)
    d = np.arange(1 - n, m) - ((m - 1) / 2.0 - kc)
    acc *= np.fft.fft(np.exp(-1j * half_beta * d * d), nfft)
    j = np.arange(m) - (m - 1) / 2.0
    post = np.exp(1j * (sign * xc * ys + half_beta * j * j))
    return post * np.fft.ifft(acc)[..., n - 1:n - 1 + m]


def _sum_input(shape, complex_):
    rng = np.random.default_rng(sum(shape))
    c = rng.normal(size=shape)
    return c + 1j * rng.normal(size=shape) if complex_ else c


# the shapes of the sums qcle makes: a real 1-D input (the sigma^2
# spectrum), a complex 1-D input (the inverse transform) and 4 complex rows
# (variance's two weightings of two factors); the last row's largest
# coefficient sets kc for every row
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("shape,complex_,m", [((3001,), False, 4001),
                                              ((16001,), True, 1501),
                                              ((4, 6001), True, 3001)],
                         ids=["real", "complex", "rows"])
def test_phase_stepped_sum_has_the_batched_bits(shape, complex_, m, sign):
    c = _sum_input(shape, complex_)
    if len(shape) == 2:
        c[-1, 17] = 10.0
    ys = np.linspace(-0.3, 29.7, m)
    got = phase_stepped_sum(c, 0.25, 0.01, ys, sign)
    ref = _batched_phase_stepped_sum(c, 0.25, 0.01, ys, sign)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_phase_stepped_sum_memory():
    # variance's sum at the size of a 3001-node quantum run: its rows go one
    # at a time through one work row of L = 9216 points, where the batched
    # sum held (4, L) transforms and measured a 1.57 MB peak. The bound is
    # the 0.66 MB measured on numpy 2.4.6 plus 0.2 MB: tracemalloc counts
    # numpy's own temporaries in np.fft and np.exp, so another numpy may
    # allocate differently
    c = _sum_input((4, 6001), True)
    ys = np.linspace(0.0, 30.0, 3001)
    phase_stepped_sum(c, 0.0, 0.01, ys, -1)  # numpy's FFT plan caches
    tracemalloc.start()
    try:
        phase_stepped_sum(c, 0.0, 0.01, ys, -1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.86e6


def test_volterra_conv_is_exactly_zero_at_t0():
    rng = np.random.default_rng(3)
    kernel, h = rng.normal(size=301), rng.normal(size=301)
    got = volterra_conv(kernel, h, 0.05)
    assert got[0] == 0.0
    direct = np.array([0.05 * (np.dot(kernel[k::-1], h[:k + 1])
                               - 0.5 * (kernel[k] * h[0] + kernel[0] * h[k]))
                       for k in range(1, 301)])
    assert np.max(np.abs(got[1:] - direct)) <= 1e-13 * np.max(np.abs(direct))


def test_phase_stepped_sum_centres_at_the_largest_coefficient():
    # the inverse transform's sum over a susceptibility's w >= 0 half: the
    # coefficients peak at the first node, where the grid's midpoint
    # (w_max/2) would leave the chirp phases, and their roundoff, largest
    n, m, dw = 16001, 1501, 0.05
    om = dw * np.arange(n)
    c = chi_tilde(om, 1.0, 1.0) * dw
    ys = np.linspace(0.0, 15.0, m)
    direct = np.concatenate([np.exp(-1j * np.outer(ys[i:i + 100], om)) @ c
                             for i in range(0, m, 100)])
    got = phase_stepped_sum(c, 0.0, dw, ys, -1)
    assert np.max(np.abs(got - direct)) <= 1e-13 * np.sum(np.abs(c))


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
