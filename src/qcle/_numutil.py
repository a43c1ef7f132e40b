"""Shared numerical helpers: trapezoid calculus, an overflow-safe square,
discrete convolutions, uniform-grid Fourier sums (one chirp-z convolution
each) and the kernel function (1 - e^{-x})/x.

Every FFT convolution here is sized by one rule, fft_length: the smallest
2^a 3^b at least as long as the outputs it keeps need. A linear
convolution needs its full length; the Hermitian and chirp-z convolutions
keep only part of theirs, and are circular of the shortest period at which
no kept output wraps (see their docstrings)."""

from __future__ import annotations

import numpy as np


def cumtrapz(y: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative trapezoid integral starting at 0."""
    out = np.zeros_like(np.asarray(y, dtype=float))
    out[1:] = np.cumsum((y[1:] + y[:-1]) * (dt / 2.0))
    return out


def trapezoid_weights(n: int, dx: float) -> np.ndarray:
    w = np.full(n, dx)
    w[0] = w[-1] = dx / 2.0
    return w


def square(x: float) -> float:
    """x**2 as a float through numpy's float64 power, the same C pow as
    Python's; past the float range it gives inf where Python's raises
    OverflowError."""
    return float(np.float64(x) ** 2)


def fft_length(n: int) -> int:
    """The smallest 2^a 3^b >= n (n >= 1): from n = 1000 on at most 12.5 %
    past n, where a power of two can be 100 % past it. Lengths with factors
    of 5 as well pad less, but measured no faster on the frequency grids
    here."""
    n = int(n)
    best = 1 << (n - 1).bit_length()  # the smallest power of two >= n
    p3 = 3
    while p3 < best:  # p3 times the smallest power of two >= n / p3
        best = min(best, p3 << (-(-n // p3) - 1).bit_length())
        p3 *= 3
    return best


def linear_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of real arrays along the last axis with zero
    padding, via real FFTs of length fft_length(len_a + len_b - 1).

    Numerically equivalent (to roundoff) to the direct summation
    sum_j a[..., j] b[..., k-j] with zeros outside the arrays; leading axes
    of b broadcast against those of a; deterministic.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.shape[-1] + b.shape[-1] - 1
    nfft = fft_length(n)
    fa = np.fft.rfft(a, nfft)
    fa *= np.fft.rfft(b, nfft)
    return np.fft.irfft(fa, nfft)[..., :n]


def hermitian_transform(a: np.ndarray) -> np.ndarray:
    """The real DFT (hfft) of the Hermitian A given by its half a = A[0:m],
    laid out circularly with the period hermitian_convolve uses."""
    return np.fft.hfft(a, fft_length(3 * a.size - 2))


def hermitian_convolve(a: np.ndarray, b: np.ndarray,
                       fa: np.ndarray) -> np.ndarray:
    """sum_j A[j] B[k-j], k = 0 .. m-1, for Hermitian A, B given by halves
    a = A[0:m], b = B[0:m], from the product of their real DFTs; fa is a's,
    hermitian_transform(a), which a caller convolving a twice takes once.
    When b is a, fa is squared into a new array and kept; any other b's
    transform multiplies fa in place, so that convolution uses fa up and
    no third array of the FFT length is held.

    The convolution is circular, of period L = fft_length(3m - 2). A and B
    span -(m-1) .. m-1, so their linear convolution spans -(2m-2) .. 2m-2;
    a kept output k <= m-1 takes its aliases from k - L <= -(2m-1) and
    k + L >= 3m-2, both outside that span, so none wraps.
    """
    if b is a:
        fa = fa * fa
    else:
        fa *= np.fft.hfft(b, fa.size)
    return np.fft.ihfft(fa)[:a.size]


def volterra_conv(kernel: np.ndarray, h: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid discretization of int_0^t kernel(t-y) h(y) dy on a shared
    uniform grid; exactly 0 at t = 0, an integral over an empty interval,
    where the FFT convolution leaves roundoff."""
    n = kernel.size
    full = linear_convolve(kernel, h)[:n]
    out = dt * (full - 0.5 * (kernel * h[0] + kernel[0] * h))
    out[0] = 0.0
    return out


def phase_stepped_sum(coeffs: np.ndarray, x0: float, dx: float,
                      ys: np.ndarray, sign: int) -> np.ndarray:
    """sum_k coeffs[..., k] * exp(sign*1j*(x0 + k*dx)*ys) by chirp-z.

    Precondition: ys is uniform (grid nodes or a linspace). With k counted
    from the largest coefficient kc (the largest over every row) and j from
    the centre of ys, x_k y_j = xc y_j + yc (x_k - xc) + dx dy k j, and
    k j = (k^2 + j^2 - (j - k)^2)/2 turns the sum into one convolution with
    a unit-modulus chirp (Bluestein): O((n + m) log(n + m)) for n
    coefficients and m points. Centring keeps the chirp phases, and so their
    roundoff, small where the coefficients are largest; the error is about
    1e-13 sum|c|.

    The convolution is circular, of period L = fft_length(n + m - 1), the
    chirp's length. Of the linear convolution's outputs 0 .. 2n+m-3 it keeps
    n-1 .. n+m-2, whose aliases k - L <= -1 and k + L >= 2n+m-2 fall
    outside, so none wraps. The chirp is transformed once, in place; the
    rows of a 2-D coeffs then go one at a time through one reused work row
    of length L, transformed and inverted in place, so a call holds two
    length-L vectors besides its output, whatever the number of rows. Every
    row does the arithmetic of a batched call, so the bits do not depend on
    the rows beside it.
    """
    c = np.asarray(coeffs)
    ys = np.asarray(ys, dtype=float)
    n, m = c.shape[-1], ys.size
    nfft = fft_length(n + m - 1)
    dy = (ys[-1] - ys[0]) / max(m - 1, 1)
    kc = int(np.argmax(np.abs(c).reshape(-1, n).max(axis=0)))
    xc = x0 + kc * dx
    yc = (ys[0] + ys[-1]) / 2.0
    half_beta = sign * dx * dy / 2.0
    # each index vector is dropped once its factor is built
    d = np.arange(1 - n, m) - ((m - 1) / 2.0 - kc)  # centred j - k
    chirp = np.zeros(nfft, dtype=complex)
    chirp[:d.size] = np.exp(-1j * half_beta * d * d)
    del d
    np.fft.fft(chirp, out=chirp)
    k = np.arange(n) - kc
    pre = np.exp(1j * (sign * yc * dx * k + half_beta * k * k))
    del k
    j = np.arange(m) - (m - 1) / 2.0
    post = np.exp(1j * (sign * xc * ys + half_beta * j * j))
    out = np.empty(c.shape[:-1] + (m,), dtype=complex)
    work = np.empty(nfft, dtype=complex)
    for row, dest in zip(c.reshape(-1, n), out.reshape(-1, m)):
        np.multiply(row, pre, out=work[:n])
        work[n:] = 0.0
        np.fft.fft(work, out=work)
        work *= chirp
        np.fft.ifft(work, out=work)
        np.multiply(post, work[n - 1:n - 1 + m], out=dest)
    return out


def e1m(x):
    """(1 - e^{-x})/x, real or complex, exactly 1 at x = 0.

    expm1 where |x| < 1 (there 1 - e^{-x} cancels), exp elsewhere.
    """
    x = np.asarray(x)
    out = np.empty(x.shape, dtype=np.result_type(x, 1.0))
    small = np.abs(x) < 1.0
    xs = x[small]
    xs_nz = np.where(xs == 0, 1.0, xs)
    out[small] = np.where(xs == 0, 1.0, -np.expm1(-xs_nz) / xs_nz)
    xb = x[~small]
    out[~small] = (1.0 - np.exp(-xb)) / xb
    return out
