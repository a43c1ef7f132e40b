"""Uniform time/frequency grids and the sampled signal/spectrum containers."""

from __future__ import annotations

from dataclasses import dataclass, field

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

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def _as_singular_dict(grid: FreqGrid, singular) -> dict[int, complex]:
    """Normalize singular components to {node_index: weight}."""
    out: dict[int, complex] = {}
    if singular is None:
        return out
    if isinstance(singular, dict):
        items = [(int(i), complex(w)) for i, w in singular.items()]
        for i, w in items:
            if not 0 <= i < grid.n:
                raise ValueError(f"singular node index {i} outside grid")
            if w != 0:
                out[i] = out.get(i, 0.0) + w
        return out
    # list of (omega0, weight): locations must sit on grid nodes
    for omega0, w in singular:
        idx = grid.zero_index + omega0 / grid.d_omega
        k = int(round(idx))
        if not 0 <= k < grid.n or abs(idx - k) > 1e-9:
            raise ValueError(f"singular location {omega0} is not a grid node")
        w = complex(w)
        if w != 0:
            out[k] = out.get(k, 0.0) + w
    return out


@dataclass(frozen=True)
class Spectrum:
    """Complex spectrum on a FreqGrid plus symbolic Dirac components.

    Dirac components are kept as (node index -> complex weight) and never
    sampled onto the regular grid; weights are integral weights, i.e. a
    component (omega0, w) stands for w * delta(omega - omega0).
    """

    grid: FreqGrid
    values: np.ndarray
    singular: dict[int, complex] = field(default_factory=dict)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.n,):
            raise ValueError(
                f"values shape {vals.shape} does not match grid with {self.grid.n} nodes"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("spectrum regular part must be finite at every node")
        object.__setattr__(self, "singular", _as_singular_dict(self.grid, self.singular))

    def singular_components(self) -> list[tuple[float, complex]]:
        """Dirac components as (location, weight) pairs, sorted by location."""
        om = self.grid.omegas
        return [(float(om[i]), w) for i, w in sorted(self.singular.items())]

    def sup_norm(self) -> float:
        reg = float(np.max(np.abs(self.values)))
        sing = max((abs(w) for w in self.singular.values()), default=0.0)
        return max(reg, sing)

    def _check_same_grid(self, other: "Spectrum"):
        if self.grid != other.grid:
            raise ValueError("spectra live on different frequency grids")

    def __add__(self, other: "Spectrum") -> "Spectrum":
        self._check_same_grid(other)
        sing = dict(self.singular)
        for i, w in other.singular.items():
            sing[i] = sing.get(i, 0.0) + w
        return Spectrum(self.grid, self.values + other.values, sing)

    def __sub__(self, other: "Spectrum") -> "Spectrum":
        self._check_same_grid(other)
        sing = dict(self.singular)
        for i, w in other.singular.items():
            sing[i] = sing.get(i, 0.0) - w
        return Spectrum(self.grid, self.values - other.values, sing)

    def hermitian_symmetrized(self) -> "Spectrum":
        """Project onto exact Hermitian symmetry chi(-w) = conj(chi(w))."""
        vals = 0.5 * (self.values + np.conj(self.values[::-1]))
        sing: dict[int, complex] = {}
        mirror = 2 * self.grid.zero_index
        keys = set(self.singular) | {mirror - i for i in self.singular}
        for i in keys:
            w = self.singular.get(i, 0.0)
            wj = self.singular.get(mirror - i, 0.0)
            sing[i] = 0.5 * (w + np.conj(wj))
        return Spectrum(self.grid, vals, sing)

    def is_hermitian(self) -> bool:
        vals_ok = bool(np.array_equal(self.values, np.conj(self.values[::-1])))
        mirror = 2 * self.grid.zero_index
        sing_ok = all(
            self.singular.get(mirror - i) == np.conj(w) for i, w in self.singular.items()
        )
        return vals_ok and sing_ok
