"""Monte Carlo oracle: colored-noise sampling and pathwise integration.

The noise is synthesized in the frequency domain (independent complex
Gaussian amplitudes on the half spectrum, one generator per run, variance
proportional to the spectral density, one real-output FFT per block of
paths), giving a stationary band-limited real process whose lag covariance
matches the closed form away from coincidence. The synthesis length is the
smallest even 2^a 3^b that holds the grid and its correlation pad. The
noise is stored time-major, one row of every path per node, one transposed
copy per synthesis block of up to BLOCK_ROWS = 16 paths. Paths are
propagated with an exponential (variation-of-constants) Heun step: the
linear (gamma, eta) flow is exact, nonlinearity and noise enter through a
trapezoidal force rule; each step is two small matrix products over the
batch.

One step loop serves two consumers. integrate_qcle keeps every row as an
Ensemble. estimate_mc steps the moments ensemble and the kick pair as one
(3, n_paths) batch on a ring of BLOCK_ROWS + 1 = 17 time rows, reducing
each 16-row block along the path axis as it fills (no trajectory array is
held) in dot products of at most DOT_PATHS paths, so no byte depends on the
block size or on the BLAS thread count; estimate_response returns its pair,
and estimate_moments reduces a stored Ensemble through the same block
reducer. The preparation correlation of noise and q0 is NOT imposed (no
joint law for it is available), so only preparation-insensitive quantities
are validated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from . import kernels
from ._numutil import fft_length
from .grids import SampledSignal, TimeGrid
from .params import BathParams, PotentialParams

# longest noise synthesis FFT: sample_noise holds a few arrays of this length
MAX_SYNTHESIS_LENGTH = 1 << 20
# largest n_paths * max(grid.n, synthesis length) of one sample_noise call:
# it bounds the (n_paths, grid.n) output (1 GiB of float64 at the cap), the
# normals drawn and the FFT work
MAX_PATH_SAMPLES = 1 << 27
# most samples in a noise synthesis block of min(BLOCK_ROWS, this // nfft)
# paths: its two arrays (normals, then paths; amplitudes) stay near this size
NOISE_BLOCK_SAMPLES = MAX_SYNTHESIS_LENGTH
# paths per noise synthesis block, and time rows per block that estimate_mc
# and estimate_moments reduce at once. A path's irfft and a row's dot products
# do not depend on the block, so this sets memory only: at 2000 paths the
# (17, 3, n_paths) ring is 0.8 MB and each (16, n_paths) temporary 0.26 MB
BLOCK_ROWS = 16
# most paths in one dot product of the block reducer: OpenBLAS threads a
# ddot past 10 000 elements, and its rounding then follows the thread count
DOT_PATHS = 8192
# default |q| past which a path is excluded
BLOWUP_GUARD = 1e8
# most panels of the step's force-weight rule, 16 nodes each
MAX_FORCE_PANELS = 4096


class SynthesisLengthError(ValueError):
    """The noise synthesis FFT would exceed MAX_SYNTHESIS_LENGTH."""


class PathSamplesError(ValueError):
    """An ensemble would exceed MAX_PATH_SAMPLES path samples."""


class StepResolutionError(ValueError):
    """The step's force weights would need more than MAX_FORCE_PANELS panels."""


class KickResolutionError(ValueError):
    """The kick is lost in rounding: v + f0_kick == v for some pair's base
    start velocity v, so that pair's difference reads 0 at every node."""


class SurvivorsError(ValueError):
    """Fewer than 2 paths of an ensemble or kick pair survived the guard.

    Raised by estimate_mc, it carries the pass's masks excluded and
    pair_excluded (see MCEstimate); from estimate_moments, they are None.
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
    """FFT length of the noise synthesis: the smallest even 2^a 3^b at least
    the grid plus a pad of 14/(nu dt) steps, so that the periodic
    wrap-around of the covariance (decay rate nu) is negligible at every
    in-grid lag. Even, because the half spectrum ends at a real Nyquist bin;
    fft_length alone could give an odd power of 3. Raises
    SynthesisLengthError past MAX_SYNTHESIS_LENGTH, before anything is
    allocated."""
    pad = 14.0 / (nu * grid.dt)
    if not grid.n + pad <= MAX_SYNTHESIS_LENGTH:
        raise SynthesisLengthError(
            f"noise synthesis needs an FFT of {grid.n + pad:.3g} points for "
            f"nu = {nu!r} at dt = {grid.dt!r}, past the cap of "
            f"{MAX_SYNTHESIS_LENGTH}; increase nu or the time step")
    m = grid.n + int(np.ceil(pad))
    return max(8, 2 * fft_length(-(-m // 2)))


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
    up to BLOCK_ROWS paths, and of at most NOISE_BLOCK_SAMPLES synthesis
    samples, is drawn into one preallocated array, scaled into its conjugated
    amplitudes and transformed at once by an unscaled irfft (numpy's hfft,
    without the conjugated copy and the output array it allocates) back into
    the array of its normals. Its grid columns are written straight into the
    columns of a time-major (n, n_paths) buffer: one transposed write per
    block. Raises SynthesisLengthError or PathSamplesError before drawing or
    allocating.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    nfft = _synthesis_length(grid, bath.nu)
    _check_path_samples(grid, nfft, n_paths)
    half = nfft // 2
    wk = 2.0 * np.pi * np.fft.rfftfreq(nfft, d=grid.dt)
    amp = np.sqrt(kernels.noise_psd(wk, bath.gamma, bath.temp, bath.nu)
                  / (nfft * grid.dt))
    amp[1:half] /= np.sqrt(2.0)  # irfft drops the imaginary parts at 0 and half
    neg_amp = -amp  # the imaginary parts are conjugated, an exact sign flip
    rng = np.random.default_rng(seed)
    rows = min(BLOCK_ROWS, n_paths, max(1, NOISE_BLOCK_SAMPLES // nfft))
    x = np.empty((rows, 2, half + 1))  # the normals of a synthesis block
    z = np.empty((rows, half + 1), dtype=complex)  # its conjugated amplitudes
    block = x.reshape(rows, -1)[:, :nfft]  # its paths, over its spent normals
    out = np.empty((grid.n, n_paths))
    for s in range(0, n_paths, rows):
        k = min(rows, n_paths - s)
        rng.standard_normal(out=x[:k])
        np.multiply(amp, x[:k, 0], out=z.real[:k])
        np.multiply(neg_amp, x[:k, 1], out=z.imag[:k])
        np.fft.irfft(z[:k], nfft, norm="forward", out=block[:k])
        out[:, s:s + k] = block[:k, :grid.n].T
    return NoiseEnsemble(grid, bath, out.T, seed)


def _propagator_constants(gamma: float, eta: float, h: float):
    """One-step linear propagator and force weights, exact to roundoff.

    The homogeneous step is (q, v) -> (pqq q + pqv v, pvq q + pvv v), from the
    closed-form kernels at h. A force interpolated linearly from F_j to
    F_{j+1} adds a*F_j + b*F_{j+1}, with weights from j0 = int_0^h chi_v and
    j1 = int_0^h u chi_v(u) du (chi_v_dot integrates by parts into chi_v):
    a 16-node Gauss-Legendre rule on ceil(h (gamma + |omega0|)/2) equal
    panels, each at most 1/max|s_+-| wide. The panel count depends only on
    the dimensionless h (gamma + |omega0|), so exact scalings keep the bits.
    Raises StepResolutionError past MAX_FORCE_PANELS panels.
    """
    x = h * (gamma + abs(kernels.omega0(gamma, eta))) / 2.0
    if not x <= MAX_FORCE_PANELS:
        raise StepResolutionError(
            f"the MC step dt = {h!r} needs {x:.3g} force-weight panels, past "
            f"the cap of {MAX_FORCE_PANELS}; use a finer time grid")
    panels = max(1, int(np.ceil(x)))
    pqq = float(kernels.chi_q(h, gamma, eta))
    pqv = float(kernels.chi_v(h, gamma, eta))
    pvv = float(kernels.chi_v_dot(h, gamma, eta))
    pvq = -eta * pqv  # chi_q_dot = -eta chi_v
    nodes, weights = np.polynomial.legendre.leggauss(16)
    half = h / (2 * panels)  # half a panel's width
    u = (2 * np.arange(panels)[:, None] + 1 + nodes) * half
    f = kernels.chi_v(u, gamma, eta) * (weights * half)
    j0, j1 = float(np.sum(f)), float(np.sum(f * u))
    # (a_q, b_q, a_v, b_v)
    return pqq, pqv, pvq, pvv, j1 / h, j0 - j1 / h, pqv - j0 / h, j0 / h


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
    rows; xi - eps goes into a two-row scratch (xi itself when eps is 0, as
    x - 0.0 is x), the noise is not copied. A step is two small matrix
    products on the (4, size) state (q, v, F_j, F_{j+1}): the predictor row
    (pqq, pqv, a_q + b_q) times (q, v, F_j) gives the predicted q, and the
    (2, 4) propagator times the state the new (q, v). At alpha = 0 a (2, 2)
    product steps (q, v), and the (2, 2) noise weights times the step's two
    noise rows, formed once on n_paths, are added by broadcast. BLAS forms
    these products, so a path's last bits can depend on the batch's shape.
    """
    n = noise.grid.n
    alpha, eps = potential.alpha, potential.epsilon
    pqq, pqv, pvq, pvv, a_q, b_q, a_v, b_v = _propagator_constants(
        noise.bath.gamma, potential.eta, noise.grid.dt)
    cubic = alpha != 0
    tilted = eps != 0 or np.signbit(eps)  # x - (-0.0) is +0.0 at x = -0.0

    shape = alive.shape
    xi = noise.values.T  # (n, n_paths)
    if tilted:
        xe = np.empty((2, shape[-1]))  # xi - eps at the two nodes of a step
        np.subtract(xi[0], eps, out=xe[1])  # the constant force, folded in
    buf[0] = q0
    # the states (q, v, F_j, F_{j+1}) of this step and the next, and the
    # views a step takes of them, by the parity of j
    flat = np.empty((2, 4, alive.size))
    states = flat.reshape(2, 4, *shape)
    states[0, 0], states[0, 1] = buf[0], v0
    sides = [(flat[c], *states[c], flat[1 - c, :2], states[1 - c, :2])
             for c in (0, 1)]
    if cubic:
        tmp = np.empty(shape)
        pred = np.array([pqq, pqv, a_q + b_q])
        prop = np.array([[pqq, pqv, a_q, b_q], [pvq, pvv, a_v, b_v]])
    else:
        prop = np.array([[pqq, pqv], [pvq, pvv]])
        weights = np.array([[a_q, b_q], [a_v, b_v]])
        kick = np.empty((2, shape[-1]))  # the noise term of a step
        kick_rows = kick.reshape(2, *(1,) * (len(shape) - 1), -1)
    j0 = 0
    for j in range(n - 1):
        i = j - j0
        if i + 1 == len(buf):  # full: hand the block over, carry row i on
            yield j0, buf[:i]
            buf[0] = buf[i]
            j0, i = j, 0
        if tilted:
            xe[0] = xe[1]
            np.subtract(xi[j + 1], eps, out=xe[1])
        x2 = xe if tilted else xi[j:j + 2]
        state, q, _, f_j, f_n, qv_flat, qv = sides[j % 2]
        if cubic:  # f = -alpha q^3 - eps + xi, at q and at the predictor
            np.square(q, out=f_j)
            f_j *= q
            f_j *= -alpha
            f_j += x2[0]
            np.matmul(pred, state[:3], out=state[3])  # the predicted q
            np.square(f_n, out=tmp)
            tmp *= f_n
            np.multiply(tmp, -alpha, out=f_n)
            f_n += x2[1]
            np.matmul(prop, state, out=qv_flat)
        else:
            np.matmul(weights, x2, out=kick)
            np.matmul(prop, state[:2], out=qv_flat)
            qv += kick_rows
        # one dot product per step: a sum of squares strictly below guard^2
        # bounds every |q| (a q just past the guard may square to guard^2),
        # and a NaN or inf fails it; only then are the failed paths found
        if not qv_flat[0] @ qv_flat[0] < blowup_guard * blowup_guard:
            ok = np.isfinite(qv[0]) & (np.abs(qv[0]) <= blowup_guard)
            alive &= ok
            reset = ~alive & ~ok.all(axis=-1, keepdims=True)  # failing ensembles
            qv[:, reset] = 0.0
        buf[i + 1] = qv[0]
    yield j0, buf[:n - j0]


def integrate_qcle(noise: NoiseEnsemble, potential: PotentialParams,
                   q0, v0, blowup_guard: float = BLOWUP_GUARD) -> Ensemble:
    """Integrate qdd = -gamma qd - eta q - alpha q^3 - eps + xi(t) per path.

    q0/v0 broadcast against (n_paths,); a leading axis of k rows makes k
    ensembles over the same noise, returned as k * n_paths paths, one
    ensemble after another. The step is deterministic given the sampled
    noise path; the linear part is propagated by its closed-form step, so
    the alpha = 0 mean carries no time-discretization bias. The blow-up
    guard excludes and resets paths as in _step_rows. The trajectories are
    the (n, [k,] n_paths) rows of the step loop, seen as (k * n_paths, n).
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


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each row of a dotted with b, over DOT_PATHS-column chunks in order."""
    out = np.vecdot(a[:, :DOT_PATHS], b[..., :DOT_PATHS])
    for c in range(DOT_PATHS, a.shape[1], DOT_PATHS):
        out += np.vecdot(a[:, c:c + DOT_PATHS], b[..., c:c + DOT_PATHS])
    return out


class _NodeMoments:
    """Per-node mean, unbiased variance and, with fourth, fourth central
    moment of one ensemble, fed as time-major (m, n_paths) row blocks whose
    rows are contiguous.

    keep selects the paths (None: all). Each node is reduced by dot products
    along its row (_row_dots): the mean as the row times ones over count,
    the variance and the fourth moment from the deviations and their
    squares, so a block is read three times and written twice (once without
    fourth). A row's dot products depend neither on the block it comes in
    nor on the BLAS thread count.
    """

    def __init__(self, n: int, keep: Optional[np.ndarray], fourth: bool):
        self.keep = None if keep is None else np.flatnonzero(keep)
        self.count = 0
        self.mean, self.var = np.empty((2, n))
        self.m4 = np.empty(n) if fourth else None

    def add(self, j0: int, rows: np.ndarray):
        if self.keep is not None:
            rows = rows.take(self.keep, axis=1)  # C order, as rows[:, keep] is not
        j1 = j0 + len(rows)
        self.count = count = rows.shape[1]
        mean = self.mean[j0:j1] = _row_dots(rows, np.ones(count)) / count
        dev = rows - mean[:, None]
        self.var[j0:j1] = _row_dots(dev, dev) / (count - 1)
        if self.m4 is not None:
            dev *= dev  # squared deviations
            self.m4[j0:j1] = _row_dots(dev, dev) / count

    def mean_and_stderr(self, grid: TimeGrid,
                        kick: float = 1.0) -> tuple[SampledSignal, SampledSignal]:
        """The mean and its standard error, of the paths over kick. Dividing
        keeps a tiny kick finite, where 1/kick and its square overflow."""
        return (SampledSignal(grid, self.mean / kick),
                SampledSignal(grid, np.sqrt(self.var / self.count) / abs(kick)))

    def estimate(self, grid: TimeGrid) -> MomentEstimate:
        """The MomentEstimate of a reducer built with fourth."""
        n, var = self.count, self.var
        mean, stderr_mean = self.mean_and_stderr(grid)
        se_var_sq = (self.m4 - var**2 * (n - 3) / (n - 1)) / n
        return MomentEstimate(mean, SampledSignal(grid, var), stderr_mean,
                              SampledSignal(grid, np.sqrt(np.maximum(se_var_sq, 0.0))))


def estimate_moments(ensemble: Ensemble) -> MomentEstimate:
    """Per-node unbiased mean/variance and their standard errors (excluded
    paths are skipped), reduced BLOCK_ROWS nodes at a time, each block made
    time-major first when the paths are stored path-major."""
    nodes = _NodeMoments(ensemble.grid.n, _kept(ensemble.excluded), fourth=True)
    rows = ensemble.trajectories.T
    for j0 in range(0, len(rows), BLOCK_ROWS):
        nodes.add(j0, np.ascontiguousarray(rows[j0:j0 + BLOCK_ROWS]))
    return nodes.estimate(ensemble.grid)


def thermal_velocities(bath: BathParams, n_paths: int, seed: int) -> np.ndarray:
    """Per-path initial velocities ~ N(0, T), drawn from a stream disjoint
    from the noise stream of the same seed."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(2**31,))
    return np.random.default_rng(ss).normal(0.0, np.sqrt(bath.temp), n_paths)


def _base_velocities(noise: NoiseEnsemble, thermal_v0: bool) -> np.ndarray:
    """The kick pair's base velocities: N(0, T) per path, or zero."""
    return (thermal_velocities(noise.bath, noise.n_paths, noise.seed)
            if thermal_v0 else np.zeros(noise.n_paths))


def estimate_mc(noise: NoiseEnsemble, potential: PotentialParams, q0, v0,
                f0_kick: float, thermal_v0: bool = False) -> MCEstimate:
    """The moments of the ensemble started at (q0, v0), each broadcast
    against (n_paths,), and the kick pair's impulse response, in one pass.

    The impulse f0*delta(t) is a velocity kick v0 -> v0 + f0 of a pair
    started at q = 0 and driven by one noise path: R_hat(t) is the mean of
    the pairs' (kicked - base)/f0, with its standard error. thermal_v0
    draws the base velocity from N(0, T) per path (from the noise's seed),
    the preparation behind the conditional-variance law of the response
    equation; nonlinear cross-checks need it.

    The ensemble, the base and the kicked paths are stepped as one
    (3, n_paths) batch over a ring of BLOCK_ROWS + 1 rows and reduced block
    by block: the (BLOCK_ROWS + 1, 3, n_paths) ring and the block reducer's
    (BLOCK_ROWS, n_paths) temporaries are all the pass holds besides the
    noise, and its bytes do not depend on BLOCK_ROWS. A failed path is
    excluded from every node, so when any fails the pass reruns with the
    exclusions known; with fewer than 2 survivors in the ensemble or the
    pair, the SurvivorsError carries both masks. A kick that some pair's
    base velocity absorbs (a zero kick, or one below that velocity's last
    bit) raises KickResolutionError before the pass.
    """
    n_paths, grid = noise.n_paths, noise.grid
    v_base = _base_velocities(noise, thermal_v0)
    q0, v0 = (np.stack([np.broadcast_to(np.asarray(x, dtype=float), (n_paths,))
                        for x in xs])
              for xs in ((q0, 0.0, 0.0), (v0, v_base, v_base + f0_kick)))
    lost = int(np.count_nonzero(v0[2] == v0[1]))
    if lost:
        raise KickResolutionError(
            f"f0_kick = {f0_kick!r} is below the resolution of the base "
            f"velocities: v0 + f0_kick == v0 for {lost} of {n_paths} kick pairs")
    ring = np.empty((BLOCK_ROWS + 1, *q0.shape))

    def run(keep_moments, keep_pair):
        alive = np.ones(q0.shape, dtype=bool)
        moments = _NodeMoments(grid.n, keep_moments, fourth=True)
        pair = _NodeMoments(grid.n, keep_pair, fourth=False)
        for j0, rows in _step_rows(noise, potential, q0, v0, BLOWUP_GUARD, ring,
                                   alive):
            moments.add(j0, rows[:, 0])
            pair.add(j0, rows[:, 2] - rows[:, 1])  # kicked - base
        return alive, moments, pair

    alive, moments, pair = run(None, None)
    excluded, pair_excluded = ~alive[0], ~(alive[1] & alive[2])
    try:
        keep = _kept(excluded), _kept(pair_excluded)
    except SurvivorsError as e:
        e.excluded, e.pair_excluded = excluded, pair_excluded
        raise
    if not alive.all():
        _, moments, pair = run(*keep)
    r_hat, stderr = pair.mean_and_stderr(grid, f0_kick)
    return MCEstimate(moments.estimate(grid), r_hat, stderr, excluded, pair_excluded)


def estimate_response(potential: PotentialParams, noise: NoiseEnsemble,
                      f0_kick: float, thermal_v0: bool = False,
                      ) -> tuple[SampledSignal, SampledSignal]:
    """The kick pair of estimate_mc: (R_hat, stderr). Its moments ensemble
    is the pair's base start, so it fails only where the pair does; when
    fewer than 2 base paths survive, the SurvivorsError counts those."""
    est = estimate_mc(noise, potential, 0.0, _base_velocities(noise, thermal_v0),
                      f0_kick, thermal_v0)
    return est.r_hat, est.stderr_r_hat
