"""Monte Carlo oracle: colored-noise sampling and pathwise integration.

The noise is synthesized in the frequency domain (independent complex
Gaussian amplitudes on the half spectrum, one generator per run, variance
proportional to the spectral density, one real-output FFT per block of
paths), giving a stationary band-limited real process whose lag covariance
matches the closed form away from coincidence. Paths are
propagated with an exponential (variation-of-constants) Heun step: the
linear (gamma, eta) flow is exact, nonlinearity and noise enter through a
trapezoidal force rule. Ensembles over the same noise, such as the kick
pair of estimate_response, are stepped as one, and estimate_moments is the
one estimator. The noise/initial-position preparation correlation
is NOT imposed: sampling it would require a joint law for (noise, q0) that
is not available, so only preparation-insensitive quantities are validated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from ._numutil import _next_pow2, e1m
from .grids import SampledSignal, TimeGrid
from .params import BathParams, PotentialParams

# longest noise synthesis FFT: sample_noise holds a few arrays of this length
MAX_SYNTHESIS_LENGTH = 1 << 20
# largest n_paths * max(grid.n, synthesis length) of one sample_noise call:
# it bounds the (n_paths, grid.n) output (1 GiB of float64 at the cap), the
# normals drawn and the FFT work
MAX_PATH_SAMPLES = 1 << 27
# samples per noise synthesis block (NOISE_BLOCK_SAMPLES // nfft paths): 128 kB
NOISE_BLOCK_SAMPLES = 1 << 14


class SynthesisLengthError(ValueError):
    """The noise synthesis FFT would exceed MAX_SYNTHESIS_LENGTH."""


class PathSamplesError(ValueError):
    """An ensemble would exceed MAX_PATH_SAMPLES path samples."""


class SurvivorsError(ValueError):
    """Fewer than 2 paths survived the blow-up guard of integrate_qcle."""


@dataclass(frozen=True)
class NoiseEnsemble:
    """Stationary noise paths on a time grid, tagged with their bath."""

    grid: TimeGrid
    bath: BathParams
    values: np.ndarray  # (n_paths, n)
    seed: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 2 or vals.shape[1] != self.grid.n:
            raise ValueError("noise array must be (n_paths, grid.n)")

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class Ensemble:
    """Integrated position paths; excluded marks paths that blew up."""

    grid: TimeGrid
    trajectories: np.ndarray  # (n_paths, n)
    seed: int
    excluded: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        traj = np.asarray(self.trajectories, dtype=float)
        object.__setattr__(self, "trajectories", traj)
        if traj.ndim != 2 or traj.shape[1] != self.grid.n:
            raise ValueError("trajectories must be (n_paths, grid.n)")
        exc = self.excluded
        exc = np.zeros(traj.shape[0], dtype=bool) if exc is None else np.asarray(exc, bool)
        if exc.shape != (traj.shape[0],):
            raise ValueError("excluded must be (n_paths,)")
        object.__setattr__(self, "excluded", exc)

    @property
    def n_paths(self) -> int:
        return self.trajectories.shape[0]

    @property
    def n_excluded(self) -> int:
        return int(np.sum(self.excluded))


@dataclass(frozen=True)
class MomentEstimate:
    mean: SampledSignal
    variance: SampledSignal
    stderr_mean: SampledSignal
    stderr_variance: SampledSignal


def _synthesis_length(grid: TimeGrid, nu: float) -> int:
    """FFT length of the noise synthesis: the grid plus a pad of 14/(nu dt)
    steps, so that the periodic wrap-around of the covariance (decay rate
    nu) is negligible at every in-grid lag. Raises SynthesisLengthError past
    MAX_SYNTHESIS_LENGTH, before anything is allocated."""
    pad = 14.0 / (nu * grid.dt)
    if not grid.n + pad <= MAX_SYNTHESIS_LENGTH:
        raise SynthesisLengthError(
            f"noise synthesis needs an FFT of {grid.n + pad:.3g} points for "
            f"nu = {nu!r} at dt = {grid.dt!r}, past the cap of "
            f"{MAX_SYNTHESIS_LENGTH}; increase nu or the time step")
    return max(8, _next_pow2(grid.n + int(np.ceil(pad))))


def _check_path_samples(grid: TimeGrid, nfft: int, n_paths: int):
    """Raise PathSamplesError when n_paths * max(grid.n, nfft) is past
    MAX_PATH_SAMPLES, before anything is allocated."""
    samples = n_paths * max(grid.n, nfft)
    if samples > MAX_PATH_SAMPLES:
        raise PathSamplesError(
            f"{n_paths} paths of {max(grid.n, nfft)} samples each "
            f"({samples:.3g}) are past the cap of {MAX_PATH_SAMPLES}; "
            f"use fewer paths or a shorter grid")


def sample_noise(grid: TimeGrid, bath: BathParams, n_paths: int,
                 seed: int) -> NoiseEnsemble:
    """Sample stationary Gaussian noise with PSD noise_psd on the grid.

    One generator seeded by `seed` draws, path after path, the real and
    imaginary normals of each path's half spectrum, so the first paths of a
    larger ensemble equal a smaller ensemble of the same seed. Raises
    SynthesisLengthError or PathSamplesError before drawing or allocating.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    nfft = _synthesis_length(grid, bath.nu)
    _check_path_samples(grid, nfft, n_paths)
    half = nfft // 2
    wk = 2.0 * np.pi * np.fft.rfftfreq(nfft, d=grid.dt)
    amp = np.sqrt(kernels.noise_psd(wk, bath.gamma, bath.temp, bath.nu)
                  / (nfft * grid.dt))
    amp[1:half] /= np.sqrt(2.0)  # hfft drops the imaginary parts at 0 and half
    rng = np.random.default_rng(seed)
    rows = max(1, NOISE_BLOCK_SAMPLES // nfft)
    out = np.empty((n_paths, grid.n))
    for p in range(0, n_paths, rows):
        x = rng.standard_normal((min(rows, n_paths - p), 2, half + 1))
        out[p:p + len(x)] = np.fft.hfft(amp * (x[:, 0] + 1j * x[:, 1]),
                                        nfft)[:, :grid.n]
    return NoiseEnsemble(grid, bath, out, seed)


def _propagator_constants(gamma: float, eta: float, h: float):
    """Exact one-step linear propagator and trapezoidal force weights.

    The homogeneous step is (q, v) -> (pqq q + pqv v, pvq q + pvv v); a force
    sampled as F_j, F_{j+1} enters as a*F_j + b*F_{j+1} through the exact
    variation-of-constants integrals of chi_v and chi_v_dot.
    """
    sp, sm, w0 = kernels.effective_roots(gamma, eta)

    def e1(s):  # int_0^h e^{su} du
        return h * e1m(-s * h)

    def q1(s):  # int_0^h u e^{su} du
        x = s * h
        if abs(x) < 1e-4:
            return h * h * (0.5 + x / 3.0 + x * x / 8.0 + x**3 / 30.0)
        return (np.exp(x) * (x - 1.0) + 1.0) / (s * s)

    pqq = float(kernels.chi_q(h, gamma, eta))
    pqv = float(kernels.chi_v(h, gamma, eta))
    pvv = float(kernels.chi_v_dot(h, gamma, eta))
    pvq = -eta * pqv  # chi_q_dot = -eta chi_v
    j0 = complex((e1(sp) - e1(sm)) / w0).real
    j1 = complex((q1(sp) - q1(sm)) / w0).real
    a_q = j1 / h
    b_q = j0 - j1 / h
    a_v = pqv - j0 / h
    b_v = j0 / h
    return pqq, pqv, pvq, pvv, a_q, b_q, a_v, b_v


def integrate_qcle(noise: NoiseEnsemble, potential: PotentialParams,
                   q0, v0, blowup_guard: float = 1e8) -> Ensemble:
    """Integrate qdd = -gamma qd - eta q - alpha q^3 - eps + xi(t) per path.

    q0/v0 broadcast against (n_paths,); a leading axis of k rows makes k
    ensembles over the same noise, returned as k * n_paths paths, one
    ensemble after another. The step is deterministic given the sampled
    noise path; the linear part is propagated exactly, so the alpha = 0
    dynamics carries no time-discretization bias in the mean. Paths whose
    |q| exceeds blowup_guard are flagged and excluded; on every step where
    any path of an ensemble fails, its failed paths are reset to q = v = 0.

    The loop runs time-major: row j of the (n, [k,] n_paths) arrays holds
    every path at t_j, so each step reads and writes contiguous rows in place.
    """
    n_paths, n = noise.values.shape
    h = noise.grid.dt
    gamma = noise.bath.gamma
    eta, alpha, eps = potential.eta, potential.alpha, potential.epsilon
    pqq, pqv, pvq, pvv, a_q, b_q, a_v, b_v = _propagator_constants(gamma, eta, h)
    ab_q = a_q + b_q
    cubic = alpha != 0

    shape = np.broadcast_shapes(np.shape(q0), np.shape(v0), (n_paths,))
    xi = np.array(noise.values.T, order="C")  # (n, n_paths); always a copy
    xi -= eps  # the constant force, folded in once
    traj = np.empty((n, *shape))
    traj[0] = q0
    v = np.broadcast_to(np.asarray(v0, dtype=float), shape).copy()
    v_new, lin, tmp = np.empty((3, *shape))
    if cubic:
        f_j, f_n, q_pred = np.empty((3, *shape))
    alive = np.ones(shape, dtype=bool)
    for j in range(n - 1):
        q, q_new = traj[j], traj[j + 1]
        np.multiply(pqq, q, out=lin)
        np.multiply(pqv, v, out=tmp)
        lin += tmp  # pqq q + pqv v
        if cubic:  # f = -alpha q^3 - eps + xi, at q and at the predictor
            np.multiply(q, q, out=f_j)
            f_j *= q
            f_j *= -alpha
            f_j += xi[j]
            np.multiply(ab_q, f_j, out=q_pred)
            q_pred += lin
            np.multiply(q_pred, q_pred, out=f_n)
            f_n *= q_pred
            f_n *= -alpha
            f_n += xi[j + 1]
        else:
            f_j, f_n = xi[j], xi[j + 1]
        np.multiply(a_q, f_j, out=tmp)
        np.add(lin, tmp, out=q_new)
        np.multiply(b_q, f_n, out=tmp)
        q_new += tmp
        np.multiply(pvq, q, out=v_new)
        np.multiply(pvv, v, out=tmp)
        v_new += tmp
        np.multiply(a_v, f_j, out=tmp)
        v_new += tmp
        np.multiply(b_v, f_n, out=tmp)
        v_new += tmp
        v, v_new = v_new, v
        # one reduction per step: a NaN or inf fails it, and only then is
        # the failing set worked out
        worst = np.max(np.abs(q_new, out=tmp))
        if not (worst <= blowup_guard and np.isfinite(worst)):
            ok = np.isfinite(q_new) & (np.abs(q_new) <= blowup_guard)
            alive &= ok
            reset = ~alive & ~ok.all(axis=-1, keepdims=True)  # failing ensembles
            q_new[reset] = v[reset] = 0.0
    return Ensemble(noise.grid, traj.reshape(n, -1).T, noise.seed, ~alive.ravel())


def estimate_moments(ensemble: Ensemble) -> MomentEstimate:
    """Per-node unbiased mean/variance and their standard errors (excluded
    paths are skipped)."""
    traj = ensemble.trajectories
    if ensemble.excluded.any():
        traj = traj[~ensemble.excluded]
    n = traj.shape[0]
    if n < 2:
        raise SurvivorsError("need at least 2 non-excluded paths, "
                             f"{n} of {ensemble.n_paths} survived the blow-up guard")
    mean = traj.mean(axis=0)
    prod = traj - mean
    prod *= prod  # squared deviations
    var = np.sum(prod, axis=0) / (n - 1)
    stderr_mean = np.sqrt(var / n)
    prod *= prod  # fourth powers
    m4 = np.mean(prod, axis=0)
    se_var_sq = (m4 - var**2 * (n - 3) / (n - 1)) / n
    stderr_var = np.sqrt(np.maximum(se_var_sq, 0.0))
    g = ensemble.grid
    return MomentEstimate(SampledSignal(g, mean), SampledSignal(g, var),
                          SampledSignal(g, stderr_mean), SampledSignal(g, stderr_var))


def thermal_velocities(bath: BathParams, n_paths: int, seed: int) -> np.ndarray:
    """Per-path initial velocities ~ N(0, T), drawn from a stream disjoint
    from the noise stream of the same seed."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(2**31,))
    return np.random.default_rng(ss).normal(0.0, np.sqrt(bath.temp), n_paths)


def estimate_response(potential: PotentialParams, noise: NoiseEnsemble,
                      f0_kick: float, thermal_v0: bool = False,
                      ) -> tuple[SampledSignal, SampledSignal]:
    """Impulse-response estimate by common-random-number ensembles.

    The impulse f0*delta(t) is realized as a velocity kick v0 -> v0 + f0;
    R_hat(t) = [<q>_kicked - <q>_unkicked]/f0 with both ensembles driven by
    the same noise paths, stepped as one (2, n_paths) ensemble. thermal_v0
    samples the base velocity from N(0, T) per path (shared between the
    pair, drawn from the noise's seed), which matches the preparation behind
    the conditional-variance law entering the response equation; nonlinear
    cross-checks need it. Returns (R_hat, stderr) of the per-path
    differences, from estimate_moments; a pair is excluded if either path is.
    """
    if f0_kick == 0:
        raise ValueError("f0_kick must be nonzero")
    v0 = (thermal_velocities(noise.bath, noise.n_paths, noise.seed)
          if thermal_v0 else np.zeros(noise.n_paths))
    pair = integrate_qcle(noise, potential, q0=0.0, v0=np.stack([v0, v0 + f0_kick]))
    base, kicked = pair.trajectories.reshape(2, noise.n_paths, -1)
    diffs = kicked - base
    diffs /= f0_kick
    excluded = pair.excluded.reshape(2, -1).any(axis=0)
    del pair, base, kicked  # freed before estimate_moments allocates its own
    est = estimate_moments(Ensemble(noise.grid, diffs, noise.seed, excluded))
    return est.mean, est.stderr_mean
