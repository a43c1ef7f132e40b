"""Shared numerical helpers: trapezoid calculus, an overflow-safe square,
discrete convolutions, uniform-grid Fourier sums (one chirp-z convolution
each) and the kernel function (1 - e^{-x})/x."""

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


def _next_pow2(n: int) -> int:
    return 1 << (int(n - 1).bit_length())


def linear_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution along the last axis with zero padding, via FFT.

    Numerically equivalent (to roundoff) to the direct summation
    sum_j a[..., j] b[..., k-j] with zeros outside the arrays; leading axes
    of b broadcast against those of a; deterministic.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.shape[-1] + b.shape[-1] - 1
    nfft = _next_pow2(n)
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        fa = np.fft.fft(a, nfft)
        fa *= np.fft.fft(b, nfft)
        return np.fft.ifft(fa)[..., :n]
    fa = np.fft.rfft(a, nfft)
    fa *= np.fft.rfft(b, nfft)
    return np.fft.irfft(fa, nfft)[..., :n]


def hermitian_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_j A[j] B[k-j], k = 0 .. m-1, for Hermitian A, B given by halves
    a = A[0:m], b = B[0:m]; laid out circularly, each has a real DFT (hfft).
    When b is a, its one transform is squared."""
    nfft = _next_pow2(4 * a.size - 3)
    fa = np.fft.hfft(a, nfft)
    fa *= fa if b is a else np.fft.hfft(b, nfft)
    return np.fft.ihfft(fa)[:a.size]


def volterra_conv(kernel: np.ndarray, h: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid discretization of int_0^t kernel(t-y) h(y) dy on a shared
    uniform grid."""
    n = kernel.size
    full = linear_convolve(kernel, h)[:n]
    return dt * (full - 0.5 * (kernel * h[0] + kernel[0] * h))


def phase_stepped_sum(coeffs: np.ndarray, x0: float, dx: float,
                      ys: np.ndarray, sign: int) -> np.ndarray:
    """sum_k coeffs[..., k] * exp(sign*1j*(x0 + k*dx)*ys) by chirp-z.

    Precondition: ys is uniform (grid nodes or a linspace). With k counted
    from the largest coefficient kc (the largest over every row) and j from
    the centre of ys, x_k y_j = xc y_j + yc (x_k - xc) + dx dy k j, and
    k j = (k^2 + j^2 - (j - k)^2)/2 turns the sum into one linear
    convolution with a unit-modulus chirp (Bluestein): O((n + m)
    log(n + m)) for n coefficients and m points, rows of a 2-D coeffs at
    once. Centring keeps the chirp phases, and so their roundoff, small
    where the coefficients are largest; the error is about 1e-13 sum|c|.
    """
    c = np.asarray(coeffs)
    ys = np.asarray(ys, dtype=float)
    n, m = c.shape[-1], ys.size
    dy = (ys[-1] - ys[0]) / max(m - 1, 1)
    kc = int(np.argmax(np.abs(c).reshape(-1, n).max(axis=0)))
    xc = x0 + kc * dx
    yc = (ys[0] + ys[-1]) / 2.0
    half_beta = sign * dx * dy / 2.0
    k = np.arange(n) - kc
    j = np.arange(m) - (m - 1) / 2.0
    d = np.arange(1 - n, m) - ((m - 1) / 2.0 - kc)  # centred j - k
    pre = np.exp(1j * (sign * yc * dx * k + half_beta * k * k))
    chirp = np.exp(-1j * half_beta * d * d)
    post = np.exp(1j * (sign * xc * ys + half_beta * j * j))
    return post * linear_convolve(c * pre, chirp)[..., n - 1:n - 1 + m]


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
