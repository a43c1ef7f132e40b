"""Uniform time/frequency grids and the sampled signal/spectrum containers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid t_k = k*dt on [0, t_max] with n nodes."""

    t_max: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"time grid needs n >= 2, got {self.n}")
        if not self.t_max > 0:
            raise ValueError(f"t_max must be positive, got {self.t_max}")

    @property
    def dt(self) -> float:
        return self.t_max / (self.n - 1)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n)


@dataclass(frozen=True)
class FreqGrid:
    """Symmetric frequency grid with an exact node at omega = 0.

    Nodes are (k - (n-1)/2) * d_omega, so omega in the grid implies -omega
    in the grid with bit-identical magnitude. n must be odd.
    """

    omega_max: float
    n: int

    def __post_init__(self):
        if self.n < 3 or self.n % 2 == 0:
            raise ValueError(f"frequency grid needs odd n >= 3, got {self.n}")
        if not self.omega_max > 0:
            raise ValueError(f"omega_max must be positive, got {self.omega_max}")

    @property
    def d_omega(self) -> float:
        return 2.0 * self.omega_max / (self.n - 1)

    @property
    def zero_index(self) -> int:
        return (self.n - 1) // 2

    @property
    def omegas(self) -> np.ndarray:
        return (np.arange(self.n) - self.zero_index) * self.d_omega


@dataclass(frozen=True)
class SampledSignal:
    """Real-valued function sampled on a TimeGrid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.n,):
            raise ValueError(
                f"values shape {vals.shape} does not match grid with {self.grid.n} nodes"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("signal values must be finite")


@dataclass(frozen=True)
class Spectrum:
    """Complex spectrum on a FreqGrid plus a symbolic Dirac at omega = 0.

    `dirac` is the integral weight w of the component w * delta(omega); it is
    never sampled onto the regular grid. Every Dirac of the susceptibility
    equation sits at omega = 0 (the tilt and the variance plateau), and
    convolving two of them gives another at omega = 0.
    """

    grid: FreqGrid
    values: np.ndarray
    dirac: complex = 0j

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.n,):
            raise ValueError(
                f"values shape {vals.shape} does not match grid with {self.grid.n} nodes"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("spectrum regular part must be finite at every node")
        # a weight carries no sign of zero: + 0j turns -0.0 parts into +0.0
        object.__setattr__(self, "dirac", complex(self.dirac) + 0j)

    def sup_norm(self) -> float:
        return max(float(np.max(np.abs(self.values))), abs(self.dirac))

    def _check_same_grid(self, other: "Spectrum"):
        if self.grid != other.grid:
            raise ValueError("spectra live on different frequency grids")

    def __add__(self, other: "Spectrum") -> "Spectrum":
        self._check_same_grid(other)
        return Spectrum(self.grid, self.values + other.values,
                        self.dirac + other.dirac)

    def __sub__(self, other: "Spectrum") -> "Spectrum":
        self._check_same_grid(other)
        return Spectrum(self.grid, self.values - other.values,
                        self.dirac - other.dirac)

    def hermitian_symmetrized(self) -> "Spectrum":
        """Project onto exact Hermitian symmetry chi(-w) = conj(chi(w))."""
        vals = 0.5 * (self.values + np.conj(self.values[::-1]))
        w = self.dirac
        return Spectrum(self.grid, vals, 0.5 * (w + w.conjugate()))

    def is_hermitian(self) -> bool:
        return (bool(np.array_equal(self.values, np.conj(self.values[::-1])))
                and self.dirac == self.dirac.conjugate())
