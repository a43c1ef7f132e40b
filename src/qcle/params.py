"""Dimensionless potential and bath parameter sets, and the harmonic preset."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PotentialParams:
    """Dimensionless potential V(q) = eta q^2/2 + alpha q^4/4 + epsilon q.

    f0 is the amplitude of the impulsive probe force f0*delta(t) used when
    computing response functions; it must be nonzero.
    """

    eta: float
    alpha: float = 0.0
    epsilon: float = 0.0
    f0: float = 0.1

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.alpha == 0 and not self.eta > 0:
            raise ValueError("alpha = 0 requires eta > 0 (potential unbounded below)")
        if self.f0 == 0:
            raise ValueError("impulse amplitude f0 must be nonzero")


def parabolic(f0: float = 0.1) -> PotentialParams:
    """Harmonic well: eta = 1, alpha = epsilon = 0."""
    return PotentialParams(eta=1.0, alpha=0.0, epsilon=0.0, f0=f0)


@dataclass(frozen=True)
class BathParams:
    """Dimensionless bath: static friction gamma, temperature temp,
    reduced Matsubara frequency nu. The classical regime is nu -> infinity
    at fixed temp."""

    gamma: float
    temp: float
    nu: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if not self.temp > 0:
            raise ValueError(f"temp must be > 0, got {self.temp}")
        if not self.nu > 0:
            raise ValueError(f"nu must be > 0, got {self.nu}")

