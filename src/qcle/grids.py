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
    """Hermitian spectrum on a FreqGrid, stored by its omega >= 0 half, plus
    a symbolic Dirac at omega = 0.

    Every spectrum of the susceptibility equation transforms a real function
    of time, so chi(-w) = conj(chi(w)): `half` holds the values on the nodes
    zero_index .. n-1, real at omega = 0, and the omega < 0 nodes are their
    conjugates (`full`). `dirac` is the real integral weight w of the
    component w * delta(omega); it is never sampled onto the regular grid.
    Every Dirac of the susceptibility equation sits at omega = 0 (the tilt
    and the variance plateau), and convolving two of them gives another at
    omega = 0.
    """

    grid: FreqGrid
    half: np.ndarray
    dirac: float = 0.0

    def __post_init__(self):
        half = np.asarray(self.half, dtype=complex)
        object.__setattr__(self, "half", half)
        if half.shape != (self.grid.zero_index + 1,):
            raise ValueError(
                f"half shape {half.shape} does not match the "
                f"{self.grid.zero_index + 1} omega >= 0 nodes of the grid"
            )
        if not np.all(np.isfinite(half)):
            raise ValueError("spectrum regular part must be finite at every node")
        if half[0].imag != 0:
            raise ValueError("a Hermitian spectrum is real at omega = 0")
        # complex() keeps the imaginary part that float() would only warn about
        w = complex(self.dirac)
        if w.imag != 0:
            raise ValueError("the Dirac weight of a Hermitian spectrum is real")
        # a weight carries no sign of zero: + 0.0 turns -0.0 into +0.0
        object.__setattr__(self, "dirac", w.real + 0.0)

    def full(self) -> np.ndarray:
        """The regular part on every node: conj(half) mirrored onto omega < 0."""
        return np.concatenate([np.conj(self.half[:0:-1]), self.half])

    def sup_norm(self) -> float:
        # np.maximum propagates a NaN weight, which Python's max would drop
        return float(np.maximum(np.max(np.abs(self.half)), abs(self.dirac)))

    def _check_same_grid(self, other: "Spectrum"):
        if self.grid != other.grid:
            raise ValueError("spectra live on different frequency grids")

    def __add__(self, other: "Spectrum") -> "Spectrum":
        self._check_same_grid(other)
        return Spectrum(self.grid, self.half + other.half, self.dirac + other.dirac)

    def __sub__(self, other: "Spectrum") -> "Spectrum":
        self._check_same_grid(other)
        return Spectrum(self.grid, self.half - other.half, self.dirac - other.dirac)
