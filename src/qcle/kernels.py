"""Closed-form linear kernels and bath correlation functions.

The damped-oscillator kernels chi_q, chi_v and their spectral counterpart
chi_tilde are evaluated on a single complex code path so that overdamped,
underdamped and critically damped regimes connect continuously. The bath
enters through the noise spectral density and the Matsubara sum for the
noise/initial-position correlation.
"""

from __future__ import annotations

import numpy as np

from ._numutil import e1m

TAU_MIN = 1e-9  # noise_correlation diverges at coincidence
MAX_MATSUBARA_TERMS = 20_000_000  # xi_q0_weights gives up past this


class MatsubaraTruncationError(RuntimeError):
    """The Matsubara sum needs more than MAX_MATSUBARA_TERMS terms."""


def omega0(gamma: float, eta: float) -> complex:
    """Principal square root of gamma^2 - 4*eta (purely imaginary when
    underdamped)."""
    return complex(np.sqrt(complex(gamma * gamma - 4.0 * eta)))


def effective_roots(gamma: float, eta: float) -> tuple[complex, complex, complex]:
    """Characteristic roots s_+/- of s^2 + gamma*s + eta and their separation.

    Near critical damping the separation is widened to 2e-5, so that the
    divisions by w0 in moments (_window_power's near branch and
    _preparation_cross_term) stay finite; the error is O(separation^2).
    """
    w0 = omega0(gamma, eta)
    if abs(w0) < 2e-5:
        sbar = -gamma / 2.0
        return sbar + 1e-5, sbar - 1e-5, complex(2e-5)
    return (-gamma + w0) / 2.0, (-gamma - w0) / 2.0, w0


def _kernel_parts(t, gamma: float, eta: float):
    """(t, e^{s_+ t}, s_+, t e1m(w0 t)) for t >= 0 and the exact roots, so
    that (e^{s_+ t} - e^{s_- t})/w0 = e^{s_+ t} t e1m(w0 t). w0 = omega0 has
    Re w0 >= 0, so nothing overflows before the kernel itself does."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("kernel times must satisfy t >= 0")
    w0 = omega0(gamma, eta)
    sp = (-gamma + w0) / 2.0
    return t, np.exp(sp * t), sp, t * e1m(w0 * t)


def chi_v(t, gamma: float, eta: float):
    """Velocity kernel (e^{s_+ t} - e^{s_- t})/w0; t e^{-gamma t/2} at
    critical damping. Real in every regime."""
    t, e_p, _, g = _kernel_parts(t, gamma, eta)
    out = np.real(e_p * g)
    return out if out.ndim else float(out)


def chi_q(t, gamma: float, eta: float):
    """Position kernel (s_+ e^{s_- t} - s_- e^{s_+ t})/w0
    = e^{s_+ t} (1 - s_+ t e1m(w0 t)).

    Satisfies chi_q = chi_v_dot + gamma*chi_v identically.
    """
    t, e_p, sp, g = _kernel_parts(t, gamma, eta)
    out = np.real(e_p * (1.0 - sp * g))
    return out if out.ndim else float(out)


def chi_v_dot(t, gamma: float, eta: float):
    """Analytic time derivative of chi_v, (s_+ e^{s_+ t} - s_- e^{s_- t})/w0
    = e^{s_+ t} (1 + s_- t e1m(w0 t)); chi_v_dot(0) = 1."""
    t, e_p, sp, g = _kernel_parts(t, gamma, eta)
    out = np.real(e_p * (1.0 - (gamma + sp) * g))
    return out if out.ndim else float(out)


def chi_tilde(omega, gamma: float, eta: float):
    """Harmonic susceptibility (eta - omega^2 - i*gamma*omega)^{-1}."""
    omega = np.asarray(omega, dtype=float)
    if eta == 0 and np.any(omega == 0):
        raise ValueError("chi_tilde singular at omega = 0 when eta = 0")
    out = 1.0 / (eta - omega * omega - 1j * gamma * omega)
    return out if out.ndim else complex(out)


def noise_psd(omega, gamma: float, temp: float, nu: float):
    """Noise spectral density S(w) = (2 pi gamma T / nu) w coth(pi w / nu).

    Even, non-negative, with S(0) = 2 gamma T; the classical white-noise
    strength 2 gamma T is recovered for nu -> infinity.
    """
    x = np.abs(np.pi * np.asarray(omega, dtype=float) / nu)
    # x coth x = 2x/(1 - e^{-2x}) - x
    out = 2.0 * gamma * temp * (1.0 / e1m(2.0 * x) - x)
    return out if out.ndim else float(out)


def noise_correlation(tau, gamma: float, temp: float, nu: float):
    """Regular part of the noise autocorrelation, -(gamma T/2) nu sinh^{-2}(nu tau/2).

    Diverges (non-integrably) at coincidence; covariance construction must go
    through noise_psd instead, hence the TAU_MIN guard.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(np.abs(tau) < TAU_MIN):
        raise ValueError(
            f"|tau| < {TAU_MIN}: the correlation diverges at coincidence; "
            "use noise_psd for covariance construction"
        )
    # sinh^{-2}(x) = 4 e^{-2x}/(1 - e^{-2x})^2 in overflow-safe form
    x = nu * np.abs(tau) / 2.0
    e = np.exp(-x)
    inv_sinh2 = 4.0 * e * e / (1.0 - e * e) ** 2
    out = -(gamma * temp / 2.0) * nu * inv_sinh2
    return out if out.ndim else float(out)


def xi_q0_coefficients(nun, gamma: float, temp: float, eta: float):
    """Matsubara coefficients c_n = 2 gamma T nu_n / (nu_n^2 + gamma nu_n + eta)
    at the frequencies nun.

    The decay rates of chi_v have elementary symmetric functions
    lambda1+lambda2 = gamma and lambda1*lambda2 = eta, which generalizes the
    eta = 1 form.
    """
    return 2.0 * gamma * temp * nun / (nun * nun + gamma * nun + eta)


def xi_q0_weights(gamma: float, temp: float, nu: float, eta: float,
                  t_min: float, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Matsubara frequencies nu_n and coefficients c_n (xi_q0_coefficients)
    of the noise/initial position correlation <xi(t) q0> = -sum_n c_n
    e^{-nu_n t}, truncated so the absolute remainder is < tol for every
    t >= t_min.

    Raises MatsubaraTruncationError, before allocating anything, when that
    takes more than MAX_MATSUBARA_TERMS terms.
    """
    if not t_min > 0:
        raise ValueError("the Matsubara sum diverges logarithmically at t = 0")
    if not tol > 0:
        raise ValueError("tol must be positive")
    q = np.exp(-nu * t_min)

    def bound(nun):
        # tail bound after N terms: sum_{m>N} c_m e^{-nu_m t}
        #   <= (2 gamma T / nu_{N+1}) e^{-nu_{N+1} t_min} / (1 - q)
        with np.errstate(divide="ignore"):
            return 2.0 * gamma * temp / nun * np.exp(-nun * t_min) / (1.0 - q)

    # the bound falls with N, so this also bounds the search below
    if bound((MAX_MATSUBARA_TERMS + 1) * nu) >= tol:
        raise MatsubaraTruncationError(
            f"the Matsubara sum needs more than {MAX_MATSUBARA_TERMS} terms "
            f"for tol = {tol:.1e} at t >= {t_min!r} (nu = {nu!r}); "
            "increase nu or the time step"
        )
    # term N is kept while the tail after N - 1 terms, bound(nu_N), is still
    # >= tol: bisect for the last such N, keeping at least one term
    lo, hi = 1, MAX_MATSUBARA_TERMS + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bound(mid * nu) >= tol:
            lo = mid
        else:
            hi = mid
    nun = np.arange(1.0, lo + 1) * nu
    return nun, xi_q0_coefficients(nun, gamma, temp, eta)


def xi_q0_corr(t: float, gamma: float, temp: float, nu: float, eta: float,
               tol: float = 1e-10) -> tuple[float, int]:
    """Noise/initial-position correlation <xi(t) q0> at a single time t > 0.

    Returns (value, n_terms) where n_terms is the Matsubara truncation order
    guaranteeing an absolute remainder below tol.
    """
    if not t > 0:
        raise ValueError("xi_q0_corr requires t > 0 (logarithmic divergence at 0)")
    nun, cn = xi_q0_weights(gamma, temp, nu, eta, t_min=t, tol=tol)
    value = -float(np.sum(cn * np.exp(-nun * t)))
    return value, int(nun.size)
