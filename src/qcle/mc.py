"""Monte Carlo oracle: colored-noise sampling and pathwise integration.

The noise is synthesized in the frequency domain (independent complex
Gaussian amplitudes on the half spectrum, one generator per run, variance
proportional to the spectral density, one real-output FFT per block of
paths), giving a stationary band-limited real process whose lag covariance
matches the closed form away from coincidence. It is stored time-major, one
row of every path per node. Paths are propagated with an exponential
(variation-of-constants) Heun step: the linear (gamma, eta) flow is exact,
nonlinearity and noise enter through a trapezoidal force rule.

One step loop serves two consumers. integrate_qcle keeps every row as an
Ensemble. estimate_mc steps the moments ensemble and the kick pair as one
batch over a ring of BLOCK_ROWS + 1 time rows and reduces each block of rows
along the contiguous path axis as it fills, so no trajectory array is held;
estimate_response runs the same pass on the pair alone, and estimate_moments
reduces a stored Ensemble through the same block reducer. The
noise/initial-position preparation correlation is NOT imposed: sampling it
would require a joint law for (noise, q0) that is not available, so only
preparation-insensitive quantities are validated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

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
# time rows per block that estimate_mc and estimate_moments reduce at once
BLOCK_ROWS = 64
# default |q| past which a path is excluded
BLOWUP_GUARD = 1e8


class SynthesisLengthError(ValueError):
    """The noise synthesis FFT would exceed MAX_SYNTHESIS_LENGTH."""


class PathSamplesError(ValueError):
    """An ensemble would exceed MAX_PATH_SAMPLES path samples."""


class SurvivorsError(ValueError):
    """Fewer than 2 paths survived the blow-up guard of integrate_qcle.

    Raised by estimate_mc, it carries the pass's exclusion masks as
    excluded and pair_excluded (see MCEstimate); otherwise they are None.
    """

    excluded: Optional[np.ndarray] = None
    pair_excluded: Optional[np.ndarray] = None


@dataclass(frozen=True)
class NoiseEnsemble:
    """Stationary noise paths on a time grid, tagged with their bath.

    values is (n_paths, n). sample_noise fills a time-major (n, n_paths)
    buffer and stores its .T view, so values.T[j], every path at t_j, is one
    contiguous row for the step loop.
    """

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


@dataclass(frozen=True)
class MCEstimate:
    """One pass of estimate_mc: the moments of the (q0, v0) ensemble and the
    kick pair's impulse response with its standard error. excluded marks the
    ensemble's paths and pair_excluded the pairs that the blow-up guard
    dropped, a pair when either of its paths failed."""

    moments: MomentEstimate
    r_hat: SampledSignal
    stderr_r_hat: SampledSignal
    excluded: np.ndarray  # (n_paths,)
    pair_excluded: np.ndarray  # (n_paths,)


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
    larger ensemble equal a smaller ensemble of the same seed. Each block of
    paths is transformed at once and written into the columns of a
    time-major (n, n_paths) buffer. Raises SynthesisLengthError or
    PathSamplesError before drawing or allocating.
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
    out = np.empty((grid.n, n_paths))
    for p in range(0, n_paths, rows):
        x = rng.standard_normal((min(rows, n_paths - p), 2, half + 1))
        out[:, p:p + len(x)] = np.fft.hfft(amp * (x[:, 0] + 1j * x[:, 1]),
                                           nfft)[:, :grid.n].T
    return NoiseEnsemble(grid, bath, out.T, seed)


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


def _step_rows(noise: NoiseEnsemble, potential: PotentialParams, q0, v0,
               blowup_guard: float, buf: np.ndarray,
               alive: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """The step loop: integrate q0/v0 over the noise, writing q at node j into
    a row of buf, and yield (j0, buf[:m]), q at nodes j0 .. j0 + m - 1, each
    time buf fills and once at the end.

    alive has the broadcast shape of q0, v0 and (n_paths,), and buf is
    (rows, *alive.shape). A buf of grid.n rows is yielded once, whole. A
    shorter ring yields rows - 1 rows at a time and then carries its last
    row to the front, so a block is valid until the next one is asked for.
    Paths whose |q| exceeds blowup_guard are cleared in alive; on every step
    where any path of an ensemble (a row of a leading axis) fails, its failed
    paths are reset to q = v = 0.

    Row j holds every path at t_j, so each step reads and writes contiguous
    rows in place; xi - eps goes into a two-row scratch, the noise is not
    copied.
    """
    n = noise.grid.n
    h = noise.grid.dt
    gamma = noise.bath.gamma
    eta, alpha, eps = potential.eta, potential.alpha, potential.epsilon
    pqq, pqv, pvq, pvv, a_q, b_q, a_v, b_v = _propagator_constants(gamma, eta, h)
    ab_q = a_q + b_q
    cubic = alpha != 0

    shape = alive.shape
    xi = noise.values.T  # (n, n_paths)
    xe = np.empty((2, shape[-1]))  # xi - eps at the two nodes of a step
    np.subtract(xi[0], eps, out=xe[0])  # the constant force, folded in
    buf[0] = q0
    v = np.broadcast_to(np.asarray(v0, dtype=float), shape).copy()
    v_new, lin, tmp = np.empty((3, *shape))
    if cubic:
        f_j, f_n, q_pred = np.empty((3, *shape))
    j0 = 0
    for j in range(n - 1):
        i = j - j0
        if i + 1 == len(buf):  # full: hand the block over, carry row i on
            yield j0, buf[:i]
            buf[0] = buf[i]
            j0, i = j, 0
        q, q_new = buf[i], buf[i + 1]
        x_j, x_n = xe[j % 2], xe[(j + 1) % 2]
        np.subtract(xi[j + 1], eps, out=x_n)
        np.multiply(pqq, q, out=lin)
        np.multiply(pqv, v, out=tmp)
        lin += tmp  # pqq q + pqv v
        if cubic:  # f = -alpha q^3 - eps + xi, at q and at the predictor
            np.multiply(q, q, out=f_j)
            f_j *= q
            f_j *= -alpha
            f_j += x_j
            np.multiply(ab_q, f_j, out=q_pred)
            q_pred += lin
            np.multiply(q_pred, q_pred, out=f_n)
            f_n *= q_pred
            f_n *= -alpha
            f_n += x_n
        else:
            f_j, f_n = x_j, x_n
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
    yield j0, buf[:n - j0]


def integrate_qcle(noise: NoiseEnsemble, potential: PotentialParams,
                   q0, v0, blowup_guard: float = BLOWUP_GUARD) -> Ensemble:
    """Integrate qdd = -gamma qd - eta q - alpha q^3 - eps + xi(t) per path.

    q0/v0 broadcast against (n_paths,); a leading axis of k rows makes k
    ensembles over the same noise, returned as k * n_paths paths, one
    ensemble after another. The step is deterministic given the sampled
    noise path; the linear part is propagated exactly, so the alpha = 0
    dynamics carries no time-discretization bias in the mean. Paths whose
    |q| exceeds blowup_guard are flagged and excluded; on every step where
    any path of an ensemble fails, its failed paths are reset to q = v = 0.
    The trajectories are the (n, [k,] n_paths) rows of the step loop, seen
    as (k * n_paths, n).
    """
    n = noise.grid.n
    alive = np.ones(np.broadcast_shapes(np.shape(q0), np.shape(v0),
                                        (noise.n_paths,)), dtype=bool)
    traj = np.empty((n, *alive.shape))
    for _ in _step_rows(noise, potential, q0, v0, blowup_guard, traj, alive):
        pass
    return Ensemble(noise.grid, traj.reshape(n, -1).T, noise.seed, ~alive.ravel())


def _kept(excluded: np.ndarray) -> Optional[np.ndarray]:
    """The mask of the paths to reduce, None when none is excluded. Raises
    SurvivorsError when fewer than 2 are left."""
    n = excluded.size - int(np.count_nonzero(excluded))
    if n < 2:
        raise SurvivorsError("need at least 2 non-excluded paths, "
                             f"{n} of {excluded.size} survived the blow-up guard")
    return ~excluded if n < excluded.size else None


class _NodeMoments:
    """Per-node mean, unbiased variance and, with fourth, fourth central
    moment of one ensemble, fed as time-major (m, n_paths) row blocks.

    keep selects the paths (None: all). numpy sums a node over its paths
    pairwise where they are contiguous (the step loop's rows) and path by
    path where they are strided (kept paths, a path-major array), the same
    way whatever block the node comes in: each node gets the bits of the
    whole-array reduction over the same layout.
    """

    def __init__(self, n: int, keep: Optional[np.ndarray], fourth: bool):
        self.keep = keep
        self.count = 0
        self.mean, self.var = np.empty((2, n))
        self.m4 = np.empty(n) if fourth else None

    def add(self, j0: int, rows: np.ndarray):
        if self.keep is not None:
            # path-major, so each node is summed path by path, as traj[keep] was
            rows = np.asfortranarray(rows[:, self.keep])
        j1 = j0 + len(rows)
        self.count = count = rows.shape[1]
        mean = self.mean[j0:j1] = rows.mean(axis=1)
        dev = rows - mean[:, None]
        dev *= dev  # squared deviations
        self.var[j0:j1] = dev.sum(axis=1) / (count - 1)
        if self.m4 is not None:
            dev *= dev  # fourth powers
            self.m4[j0:j1] = dev.mean(axis=1)

    def mean_and_stderr(self, grid: TimeGrid) -> tuple[SampledSignal, SampledSignal]:
        return (SampledSignal(grid, self.mean),
                SampledSignal(grid, np.sqrt(self.var / self.count)))

    def estimate(self, grid: TimeGrid) -> MomentEstimate:
        """The MomentEstimate of a reducer built with fourth."""
        n, var = self.count, self.var
        mean, stderr_mean = self.mean_and_stderr(grid)
        se_var_sq = (self.m4 - var**2 * (n - 3) / (n - 1)) / n
        return MomentEstimate(mean, SampledSignal(grid, var), stderr_mean,
                              SampledSignal(grid, np.sqrt(np.maximum(se_var_sq, 0.0))))


def estimate_moments(ensemble: Ensemble) -> MomentEstimate:
    """Per-node unbiased mean/variance and their standard errors (excluded
    paths are skipped), reduced BLOCK_ROWS nodes at a time."""
    nodes = _NodeMoments(ensemble.grid.n, _kept(ensemble.excluded), fourth=True)
    rows = ensemble.trajectories.T
    for j0 in range(0, len(rows), BLOCK_ROWS):
        nodes.add(j0, rows[j0:j0 + BLOCK_ROWS])
    return nodes.estimate(ensemble.grid)


def thermal_velocities(bath: BathParams, n_paths: int, seed: int) -> np.ndarray:
    """Per-path initial velocities ~ N(0, T), drawn from a stream disjoint
    from the noise stream of the same seed."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(2**31,))
    return np.random.default_rng(ss).normal(0.0, np.sqrt(bath.temp), n_paths)


def _one_pass(noise: NoiseEnsemble, potential: PotentialParams, start,
              f0_kick: float, thermal_v0: bool):
    """Step the kick pair, after the ensemble started at start = (q0, v0)
    unless start is None, as one (k, n_paths) batch over a ring of
    BLOCK_ROWS + 1 rows, and reduce every block as it fills.

    The guard excludes a failed path from every node, earlier ones included.
    So when any path fails, the survivors are checked (a SurvivorsError
    carries the masks) and the pass runs again with the exclusions known.
    Returns the ensemble's MomentEstimate (None without start), the pair's
    (R_hat, stderr), the (k, n_paths) exclusion mask and the pairs'.
    """
    if f0_kick == 0:
        raise ValueError("f0_kick must be nonzero")
    n_paths, grid = noise.n_paths, noise.grid
    v_base = (thermal_velocities(noise.bath, n_paths, noise.seed)
              if thermal_v0 else np.zeros(n_paths))
    starts = [(0.0, v_base), (0.0, v_base + f0_kick)]
    if start is not None:
        starts.insert(0, start)
    q0, v0 = (np.stack([np.broadcast_to(np.asarray(x, dtype=float), (n_paths,))
                        for x in xs]) for xs in zip(*starts))
    ring = np.empty((BLOCK_ROWS + 1, *q0.shape))

    def run(keep_moments, keep_pair):
        alive = np.ones(q0.shape, dtype=bool)
        moments = None if start is None else _NodeMoments(grid.n, keep_moments, True)
        pair = _NodeMoments(grid.n, keep_pair, fourth=False)
        for j0, rows in _step_rows(noise, potential, q0, v0, BLOWUP_GUARD, ring,
                                   alive):
            if moments is not None:
                moments.add(j0, rows[:, 0])
            diffs = rows[:, -1] - rows[:, -2]  # kicked - base
            diffs /= f0_kick
            pair.add(j0, diffs)
        return alive, moments, pair

    alive, moments, pair = run(None, None)
    excluded = ~alive
    pair_excluded = excluded[-2] | excluded[-1]
    try:
        keep_moments = None if start is None else _kept(excluded[0])
        keep_pair = _kept(pair_excluded)
    except SurvivorsError as e:
        if start is not None:
            e.excluded, e.pair_excluded = excluded[0], pair_excluded
        raise
    if excluded.any():
        _, moments, pair = run(keep_moments, keep_pair)
    return (None if moments is None else moments.estimate(grid),
            pair.mean_and_stderr(grid), excluded, pair_excluded)


def estimate_mc(noise: NoiseEnsemble, potential: PotentialParams, q0, v0,
                f0_kick: float, thermal_v0: bool = False) -> MCEstimate:
    """The moments of the ensemble started at (q0, v0), each broadcast
    against (n_paths,), and the kick pair's response (see
    estimate_response), in one pass over the noise.

    The ensemble and the pair are stepped as one (3, n_paths) batch and
    reduced block by block, with no trajectory array held: the result equals
    estimate_moments(integrate_qcle(noise, potential, q0, v0)) and
    estimate_response(potential, noise, f0_kick, thermal_v0). With fewer
    than 2 survivors in the ensemble or the pair, the SurvivorsError carries
    both exclusion masks.
    """
    moments, (r_hat, stderr), excluded, pair_excluded = _one_pass(
        noise, potential, (q0, v0), f0_kick, thermal_v0)
    return MCEstimate(moments, r_hat, stderr, excluded[0], pair_excluded)


def estimate_response(potential: PotentialParams, noise: NoiseEnsemble,
                      f0_kick: float, thermal_v0: bool = False,
                      ) -> tuple[SampledSignal, SampledSignal]:
    """Impulse-response estimate by common-random-number ensembles.

    The impulse f0*delta(t) is realized as a velocity kick v0 -> v0 + f0;
    R_hat(t) = [<q>_kicked - <q>_unkicked]/f0 with both ensembles driven by
    the same noise paths, stepped as one (2, n_paths) batch. thermal_v0
    samples the base velocity from N(0, T) per path (shared between the
    pair, drawn from the noise's seed), which matches the preparation behind
    the conditional-variance law entering the response equation; nonlinear
    cross-checks need it. Returns (R_hat, stderr): the mean of the per-path
    differences and its standard error, reduced block by block as in
    estimate_mc; a pair is excluded if either path is.
    """
    return _one_pass(noise, potential, None, f0_kick, thermal_v0)[1]
