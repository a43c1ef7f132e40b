"""Configuration-driven command line front end.

    qcle <subcommand> --config <path> [--out <dir>] [--seed <u64>]

Subcommands: kernels, moments, response, susceptibility, mc, validate.
Exit codes: 0 ok, 1 acceptance failure (validate only), 2 config error
(reported before any file is written), 3 numerical failure (reported on
stderr and in the manifest's diagnostics.error). Outputs are CSV with 17
significant digits plus a JSON manifest echoing the configuration,
tolerances, seeds and solver diagnostics; reruns of the same config are
byte-identical. SCHEMA declares every config key with its type, default and
range; a section or key it does not declare is a config error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from . import __version__, kernels
from .djm import ConvergenceError, DjmSolution, NonFiniteTermError
from .grids import FreqGrid, Spectrum, TimeGrid
# estimate_moments, estimate_response and integrate_qcle stay bound here:
# perfbench/tracing.py wraps the MC layers under these names
from .mc import (KickResolutionError, PathSamplesError,  # noqa: F401
                 SurvivorsError, SynthesisLengthError, _check_path_samples,
                 _synthesis_length, estimate_mc, estimate_moments,
                 estimate_response, integrate_qcle, sample_noise)
from .moments import (PlateauError, QuadratureError, SpectralQuadrature,
                      mean_trajectory, variance, variance_spectrum)
from .params import BathParams, PotentialParams
from .response import ResponseProblem, StepInstabilityError, _substeps_per_step, \
    integrate_duffing, ode_residual, solve_response_windowed
from .susceptibility import (EdgeToleranceError, SusceptibilityProblem,
                             response_from_susceptibility, solve_susceptibility,
                             unsplit_residual)


# largest node count of a grid, a quadrature or the Duffing substeps
MAX_NODES = 1 << 20


class ConfigError(Exception):
    def __init__(self, messages: list[str]):
        super().__init__("\n".join(messages))
        self.messages = messages


class NonFiniteOutputError(ValueError):
    """A numeric output column holds NaN or inf; write_csv refuses it."""


# marks a config key that has no default
REQUIRED = object()

# section -> key -> (type, default or REQUIRED, range rule or None). A rule
# is "positive", "nonzero", "nodes" (at most MAX_NODES) or an int lower
# bound. The potential, bath and grid sections are checked again by their
# classes, and a section with a required key is itself required, except
# freq_grid: only the subcommands that use it ask for it.
SCHEMA = {
    "potential": {"eta": (float, REQUIRED, None),
                  "alpha": (float, PotentialParams.alpha, None),
                  "epsilon": (float, PotentialParams.epsilon, None),
                  "f0": (float, PotentialParams.f0, None)},
    "bath": {"gamma": (float, REQUIRED, None), "temp": (float, REQUIRED, None),
             "nu": (float, REQUIRED, None)},
    "time_grid": {"t_max": (float, REQUIRED, None), "n": (int, REQUIRED, "nodes")},
    "freq_grid": {"omega_max": (float, REQUIRED, None),
                  "n": (int, REQUIRED, "nodes")},
    "initial": {"q0": (float, 0.0, None), "v0": (float, 0.0, None)},
    "tolerances": {
        "djm_tol": (float, 1e-9, "positive"),
        "djm_k_max": (int, 60, 1),
        "response_window": (float, 2.5, "positive"),
        "quad_omega_max": (float, SpectralQuadrature.omega_max, None),
        "quad_n": (int, SpectralQuadrature.n, "nodes"),
        "quad_rtol": (float, SpectralQuadrature.rtol, None),
        "edge_tol": (float, 1e-3, "positive"),
        "plateau_tol": (float, 1e-4, "positive"),
    },
    "integrator": {"dt_sub": (float, 1e-3, "positive")},
    "mc": {"n_paths": (int, 2000, 2), "seed": (int, 12345, 0),
           "f0_kick": (float, 0.1, "nonzero"), "thermal_v0": (bool, False, None)},
}


@dataclass
class RunConfig:
    potential: PotentialParams
    bath: BathParams
    time_grid: TimeGrid
    freq_grid: Optional[FreqGrid]
    quad: SpectralQuadrature
    q0: float
    v0: float
    # every tolerances, integrator and mc key with its value, as echoed in
    # the manifest's `effective` block
    settings: dict
    raw: dict


def _get(section: dict, path: str, key: str, spec: tuple, errors: list[str]):
    typ, default, rule = spec
    if key not in section:
        if default is REQUIRED:
            errors.append(f"{path}.{key}: missing required field")
        return default
    val = section[key]
    # JSON numbers only: a boolean is an int to Python, and typ() would
    # parse a numeric string
    number = isinstance(val, (int, float)) and not isinstance(val, bool)
    if typ is bool:
        ok = isinstance(val, bool)
    elif typ is int:
        ok = number and (isinstance(val, int) or val.is_integer())
    else:
        ok = number
    if not ok:
        errors.append(f"{path}.{key}: expected {typ.__name__}, got {val!r}")
        return default
    try:
        val = typ(val)
        finite = math.isfinite(val)
    except OverflowError:  # a JSON integer past the float range
        errors.append(f"{path}.{key}: expected {typ.__name__} in the float "
                      f"range, got an integer of {len(str(val))} digits")
        return default
    # JSON admits NaN and Infinity; no float field takes them
    if not finite:
        errors.append(f"{path}.{key}: expected finite float, got {val!r}")
    elif rule == "positive" and not val > 0:
        errors.append(f"{path}.{key}: must be positive")
    elif rule == "nonzero" and val == 0:
        errors.append(f"{path}.{key}: must be nonzero")
    elif rule == "nodes" and val > MAX_NODES:
        errors.append(f"{path}.{key}: {val:.4g} nodes, past the cap of {MAX_NODES}")
    elif isinstance(rule, int) and val < rule:
        errors.append(f"{path}.{key}: must be >= {rule}")
    return val


def parse_config(path: Path, seed_override: Optional[int] = None) -> RunConfig:
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(["no such file"])
    except ValueError as e:  # JSONDecodeError, or an integer too long to parse
        raise ConfigError([f"invalid JSON: {e}"])
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be an object"])

    errors = [f"{name}: unknown section" for name in raw if name not in SCHEMA]
    values: dict[str, dict] = {}
    for name, keys in SCHEMA.items():
        sec = raw.get(name)
        if name == "freq_grid" and sec in (None, {}):
            continue
        if sec is None:
            if any(spec[1] is REQUIRED for spec in keys.values()):
                errors.append(f"{name}: missing required section")
            sec = {}
        elif not isinstance(sec, dict):
            errors.append(f"{name}: must be an object")
            sec = {}
        errors += [f"{name}.{key}: unknown key" for key in sec if key not in keys]
        if name == "mc" and seed_override is not None:
            sec = {**sec, "seed": seed_override}
        values[name] = {key: _get(sec, name, key, spec, errors)
                        for key, spec in keys.items()}
    if errors:
        raise ConfigError(errors)

    built = {}
    for name, cls in (("potential", PotentialParams), ("bath", BathParams),
                      ("time_grid", TimeGrid), ("freq_grid", FreqGrid)):
        try:
            built[name] = cls(**values[name]) if name in values else None
        except ValueError as e:
            errors.append(f"{name}: {e}")
    tol = values["tolerances"]
    try:
        built["quad"] = SpectralQuadrature(
            tol["quad_omega_max"], tol["quad_n"], tol["quad_rtol"])
    except ValueError as e:
        errors.append(f"tolerances.quad: {e}")
    grid, dt_sub = built.get("time_grid"), values["integrator"]["dt_sub"]
    steps = (grid.n - 1) * _substeps_per_step(grid.dt, dt_sub) if grid else 0
    if grid and dt_sub > grid.dt * (1 + 1e-12):
        errors.append(f"integrator.dt_sub: must not exceed the time-grid step "
                      f"{grid.dt!r}")
    elif steps > MAX_NODES:
        errors.append(f"integrator.dt_sub: {steps:.4g} Duffing substeps, "
                      f"past the cap of {MAX_NODES}")
    if errors:
        raise ConfigError(errors)
    settings = {k: v for name in ("tolerances", "integrator", "mc")
                for k, v in values[name].items()}
    return RunConfig(**built, **values["initial"], settings=settings, raw=raw)


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]):
    """Numbers as %.16e (17 significant digits, exact round trip); a text
    table (the acceptance report) goes through csv quoting. A numeric
    column with a NaN or inf raises NonFiniteOutputError before the file is
    opened. The numbers are formatted and written CSV_BLOCK values at a
    time (_csv_blocks), so the writer's memory does not grow with the table.

    Every byte equals "%.16e" % x. A value x with 1e-280 < |x| < 1e280
    takes a numpy path: with e = floor(log10|x|) and k = 16 - e, 10^k is
    held as a double-double hi + lo built from exact integers, and
    y = |x| * 10^k as yh + yl from Dekker's exact product |x| * hi plus
    |x| * lo. The range keeps every partial product of the split normal and
    finite, and the pair is within 2^-104 y < 5e-15 of y. So
    D = yh + floor(yl) is the integer part of y (or, for a fraction within
    5e-15 of an integer, one less, which rounds to the same digits), and
    yl - floor(yl) its fraction to within 6e-15. The value is kept when D
    lies in [10^16, 10^17) and the fraction is more than 1e-6 from 0.5, a
    margin 10^8 times that error: its 17 digits are then D rounded to
    nearest by the fraction, as % rounds them. +-0.0 are written directly.
    Everything else goes through % and is spliced in: subnormals, |x|
    outside that range, a decade log10 missed, near-ties, and a rounding
    up to 10^17.

    A frequency table is mirrored when its row count n is odd and, in every
    column, |x| of row n-1-k equals |x| of row k bit for bit (a Hermitian
    spectrum on a FreqGrid). This is tested on the values, never assumed.
    The digits above depend on |x| alone, so a mirrored table formats its
    central band of rows z .. z+B once, z = n // 2 the omega = 0 row, and
    writes each row z-i of z-B .. z-1 from the bytes of row z+i. Its sign
    byte is taken from np.signbit of its own value. Its % fields are
    spliced again from its own values, because "%-24.16e" left-aligns a
    positive value, whose first digit then sits in the sign byte. B is
    capped at CSV_BAND // ncols rows, which bounds the cached bytes; rows
    outside the band take the plain path. A 32001-row table fits in one
    band. The bytes are those of the plain path.
    """
    text = any(len(col) and isinstance(col[0], str) for col in columns)
    if not text:
        columns = [np.asarray(col, dtype=float) for col in columns]
        bad = [name for name, col in zip(header, columns)
               if not np.isfinite(col).all()]
        if bad:
            raise NonFiniteOutputError(
                f"{path.name}: non-finite values in column(s) {', '.join(bad)}")
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        if text:
            w.writerows(zip(*columns))
            return
        for chunk in _csv_blocks(columns):
            fh.write(chunk)


# values per block of write_csv
CSV_BLOCK = 8192
# values in the central band of a mirrored table that write_csv formats once
# for two rows
CSV_BAND = 1 << 16


def _mirrored(columns: list[np.ndarray]) -> bool:
    """Whether row n-1-k of the table is row k up to signs: an odd row count
    and, in every column, magnitudes equal bit for bit under reversal."""
    n = len(columns[0])
    half = n // 2
    return n % 2 == 1 and all(
        np.array_equal(a[:half].view(np.uint64), a[:half:-1].view(np.uint64))
        for a in map(np.abs, columns))


def _csv_blocks(columns: list[np.ndarray]) -> Iterator[str]:
    """The rows of finite float64 columns as the text of "%.16e" joined by
    "," and ended by CRLF, CSV_BLOCK values at a time; write_csv says why
    the digits are exact and how a mirrored table reuses them."""
    ncols, n = len(columns), len(columns[0])
    powers: dict[int, tuple[float, float]] = {}

    def blocks(start: int, stop: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        return _format_blocks(columns, start, stop, powers)

    z = n // 2
    band = min(z, CSV_BAND // ncols) if _mirrored(columns) else 0
    for buf, _ in blocks(0, z - band if band else n):
        yield _text(buf)
    if not band:
        return
    # rows z .. z + band, and which of their fields are slow
    cache = np.empty((band + 1, 25 * ncols + 1), np.uint8)
    slow = np.empty((band + 1, ncols), bool)
    i = 0
    for buf, mask in blocks(z, z + band + 1):
        cache[i:i + len(buf)], slow[i:i + len(buf)] = buf, mask
        i += len(buf)
    # row k < z mirrors row 2z - k, which is cache row z - k
    n_rows = max(1, CSV_BLOCK // ncols)
    for s in range(z - band, z, n_rows):
        e = min(s + n_rows, z)
        x = np.column_stack([col[s:e] for col in columns])
        mirror = slice(z - e + 1, z - s + 1)
        buf = cache[mirror][::-1].copy()
        field = buf[:, :-1].reshape(e - s, ncols, 25)
        field[..., 0] = np.signbit(x) * np.uint8(ord("-"))
        _splice(field, x, slow[mirror][::-1])
        yield _text(buf)
    for s in range(0, band + 1, n_rows):
        yield _text(cache[s:s + n_rows])
    for buf, _ in blocks(z + band + 1, n):
        yield _text(buf)


def _text(buf: np.ndarray) -> str:
    """The rows of a zero-padded field buffer, the zero bytes dropped."""
    return buf.tobytes().translate(None, b"\0").decode("ascii")


@functools.cache
def _ascii_tables() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII of 0000 .. 9999, one uint32 per 4-digit group, and of the
    exponent field of %.16e at e + 999 for e = -999 .. 999: one uint32 of
    its sign and three digits, the hundreds a zero byte below 100. Built on
    the first write, not at import, and read-only."""
    g = np.arange(10000)
    quads = (np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=-1)
             .astype(np.uint8) + ord("0")).view(np.uint32).ravel()
    e = np.arange(-999, 1000)
    exponents = quads[np.abs(e)].view(np.uint8).reshape(-1, 4).copy()
    exponents[:, 0] = np.where(e < 0, ord("-"), ord("+"))
    exponents[:, 1] *= np.abs(e) >= 100
    exponents = exponents.view(np.uint32).ravel()
    quads.flags.writeable = exponents.flags.writeable = False
    return quads, exponents


def _format_blocks(columns: list[np.ndarray], start: int, stop: int, powers: dict
                   ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Rows start .. stop-1 of the columns, CSV_BLOCK values at a time: each
    block's fields as a zero-padded uint8 buffer, one line per row, and the
    mask of the fields that % wrote. A field is 24 bytes plus its separator.
    powers caches 10^k as a double-double pair. A generator, so one block's
    temporaries live until the next block rebinds them: the heap is reused,
    not trimmed and faulted in again for every block."""
    ncols = len(columns)
    n_rows = max(1, CSV_BLOCK // ncols)
    quads, exponents = _ascii_tables()
    # the bytes every line shares: ".", "e", the separators and CRLF
    line = np.zeros(25 * ncols + 1, np.uint8)
    shared = line[:-1].reshape(ncols, 25)
    shared[:, 2], shared[:, 19], shared[:, 24] = ord("."), ord("e"), ord(",")
    line[-2:] = ord("\r"), ord("\n")
    for first in range(start, stop, n_rows):
        x = np.column_stack([col[first:min(first + n_rows, stop)] for col in columns])
        rows = x.shape[0]
        buf = np.tile(line, (rows, 1))
        field = buf[:, :-1].reshape(rows, ncols, 25)

        a = np.abs(x)
        fast = (a > 1e-280) & (a < 1e280)
        a = np.where(fast, a, 1.0)
        e = np.floor(np.log10(a)).astype(np.int64)
        k = 16 - e
        k0, k1 = int(k.min()), int(k.max())
        for j in range(k0, k1 + 1):
            if j not in powers:
                d = 10 ** abs(j)
                if j >= 0:
                    h = float(d)
                    powers[j] = (h, float(d - int(h)))
                else:
                    h = 1 / d  # correctly rounded
                    m, s = h.as_integer_ratio()
                    powers[j] = (h, (s - m * d) / (s * d))
        his, los = np.array([powers[j] for j in range(k0, k1 + 1)]).T
        hi, lo = his[k - k0], los[k - k0]
        # Dekker: with Veltkamp's split into halves, the first four terms
        # of t sum to a * hi - p exactly
        p = a * hi
        c = 134217729.0 * a
        ah = c - (c - a)
        al = a - ah
        c = 134217729.0 * hi
        bh = c - (c - hi)
        bl = hi - bh
        t = ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * lo
        yh = p + t
        yl = t - (yh - p)
        fl = np.floor(yl)
        digits = yh.astype(np.int64) + fl.astype(np.int64)
        frac = yl - fl
        ok = (fast & (digits >= 10 ** 16) & (digits < 10 ** 17)
              & (np.abs(frac - 0.5) > 1e-6))
        digits += frac > 0.5
        ok &= digits < 10 ** 17
        # a zero has e = 0 from a = 1.0; it needs digits 0
        zero = x == 0
        ok |= zero
        digits[zero] = 0

        lead = digits // 10 ** 16
        rest = digits - lead * 10 ** 16
        upper = rest // 10 ** 8
        lower = rest - upper * 10 ** 8
        groups = np.empty(x.shape + (4,), np.int64)
        groups[..., 0] = upper // 10000
        groups[..., 1] = upper - groups[..., 0] * 10000
        groups[..., 2] = lower // 10000
        groups[..., 3] = lower - groups[..., 2] * 10000
        field[..., 0] = np.signbit(x) * np.uint8(ord("-"))
        field[..., 1] = lead + ord("0")
        field[..., 3:19] = quads[groups].view(np.uint8)
        field[..., 20:24].view(np.uint32)[..., 0] = exponents[e + 999]
        slow = ~ok
        _splice(field, x, slow)
        yield buf, slow


def _splice(field: np.ndarray, x: np.ndarray, slow: np.ndarray):
    """Write the fields of x that the mask slow marks through "%-24.16e",
    left-aligned and zero-padded: a positive value starts in the sign byte."""
    i, j = np.nonzero(slow)
    if i.size:
        values = x[i, j].tolist()
        formatted = ("%-24.16e" * len(values) % tuple(values)).encode("ascii")
        padded = np.frombuffer(formatted, np.uint8).reshape(-1, 24)
        field[i, j, :24] = np.where(padded == ord(" "), 0, padded)


def write_manifest(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _base_manifest(cfg: Optional[RunConfig], subcommand: str) -> dict:
    m = {
        "subcommand": subcommand,
        "config": cfg.raw if cfg else None,
        "versions": {
            "qcle": __version__,
            "numpy": np.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
    }
    if subcommand == "validate":
        return m
    m["effective"] = cfg.settings
    m["diagnostics"] = {}
    return m


def _dirac_row(spec: Spectrum) -> list:
    """The real Dirac weight w at omega = 0 as [[0.0, w, 0.0]] (the row keeps
    the [omega, re, im] layout), or [] when it is absent."""
    return [[0.0, spec.dirac, 0.0]] if spec.dirac else []


def _require_converged(name: str, *sols: DjmSolution):
    """Raise the failure of the last recursion record unless it converged."""
    if sols[-1].non_finite:
        raise NonFiniteTermError(sols[-1].non_finite)
    if not sols[-1].converged:
        raise ConvergenceError(
            f"{name} recursion not converged after {sum(s.k - 1 for s in sols)} "
            f"operator applications (last term norm {sols[-1].term_norms[-1]:.3e})")


# Each subcommand writes its CSVs into `out` and records its diagnostics in
# the manifest `m`; main writes the manifest. A numerical failure is raised.

def cmd_kernels(cfg: RunConfig, out: Path, m: dict) -> int:
    t = cfg.time_grid.times
    g, e = cfg.bath.gamma, cfg.potential.eta
    write_csv(out / "kernels_time.csv",
              ["t", "chi_q", "chi_v", "chi_v_dot"],
              [t, kernels.chi_q(t, g, e), kernels.chi_v(t, g, e),
               kernels.chi_v_dot(t, g, e)])
    om = cfg.freq_grid.omegas
    chit = kernels.chi_tilde(om, g, e)
    write_csv(out / "kernels_freq.csv",
              ["omega", "chi_tilde_re", "chi_tilde_im", "noise_psd"],
              [om, chit.real, chit.imag,
               kernels.noise_psd(om, g, cfg.bath.temp, cfg.bath.nu)])
    m["diagnostics"]["omega0"] = repr(kernels.omega0(g, e))
    return 0


def cmd_moments(cfg: RunConfig, out: Path, m: dict) -> int:
    s = cfg.settings
    sig2 = variance(cfg.time_grid, cfg.bath, cfg.potential, quad=cfg.quad)
    mean, sol = mean_trajectory(cfg.q0, cfg.v0, cfg.potential, cfg.bath, sig2,
                                s["response_window"], s["djm_tol"], s["djm_k_max"])
    m["diagnostics"].update(mean_term_norms=sol.term_norms, mean_converged=sol.converged)
    _require_converged("mean-trajectory", sol)
    write_csv(out / "moments.csv", ["t", "mean", "variance"],
              [cfg.time_grid.times, mean.values, sig2.values])
    fg = cfg.freq_grid
    spec = variance_spectrum(sig2, fg, plateau_tol=s["plateau_tol"])
    full = spec.full()
    # the spectrum is real: + 0.0 writes the mirror's zeros as 0.0, not -0.0
    write_csv(out / "variance_spectrum.csv", ["omega", "re", "im"],
              [fg.omegas, full.real, full.imag + 0.0])
    m["diagnostics"]["sigma2_singular"] = _dirac_row(spec)
    return 0


def cmd_response(cfg: RunConfig, out: Path, m: dict) -> int:
    s = cfg.settings
    sig2 = variance(cfg.time_grid, cfg.bath, cfg.potential, quad=cfg.quad)
    prob = ResponseProblem(cfg.potential, cfg.bath, sig2)
    r_djm, sols = solve_response_windowed(prob, window=s["response_window"],
                                          tol=s["djm_tol"], k_max=s["djm_k_max"])
    m["diagnostics"]["window_term_norms"] = [sol.term_norms for sol in sols]
    m["diagnostics"]["windows_converged"] = [sol.converged for sol in sols]
    _require_converged("response", *sols)
    r_ode = integrate_duffing(prob, dt_sub=s["dt_sub"])
    write_csv(out / "response.csv", ["t", "r_recursion", "r_integrator"],
              [cfg.time_grid.times, r_djm.values, r_ode.values])
    m["diagnostics"].update({
        "ode_residual_recursion": ode_residual(r_djm, prob),
        "ode_residual_integrator": ode_residual(r_ode, prob),
        "route_disagreement": float(np.max(np.abs(r_djm.values - r_ode.values))),
    })
    return 0


def cmd_susceptibility(cfg: RunConfig, out: Path, m: dict) -> int:
    fg, s = cfg.freq_grid, cfg.settings
    sig2 = variance(cfg.time_grid, cfg.bath, cfg.potential, quad=cfg.quad)
    spec2 = variance_spectrum(sig2, fg, plateau_tol=s["plateau_tol"])
    prob = SusceptibilityProblem(cfg.potential, cfg.bath, spec2)
    chi, sol = solve_susceptibility(prob, tol=s["djm_tol"], k_max=s["djm_k_max"])
    m["diagnostics"].update(term_norms=sol.term_norms, converged=sol.converged)
    _require_converged("susceptibility", sol)
    m["diagnostics"]["unsplit_residual"] = unsplit_residual(chi, prob)
    full = chi.full()
    write_csv(out / "susceptibility.csv", ["omega", "re", "im"],
              [fg.omegas, full.real, full.imag])
    rec = response_from_susceptibility(chi, cfg.time_grid, edge_tol=s["edge_tol"])
    write_csv(out / "response_reconstructed.csv", ["t", "r"],
              [cfg.time_grid.times, rec.values])
    m["diagnostics"]["chi_singular"] = _dirac_row(chi)
    return 0


def cmd_mc(cfg: RunConfig, out: Path, m: dict) -> int:
    s = cfg.settings

    def record(masks):  # the MCEstimate, or the SurvivorsError of the pass
        m["diagnostics"].update(
            n_excluded=int(np.count_nonzero(masks.excluded)),
            n_excluded_pair=int(np.count_nonzero(masks.pair_excluded)))

    # the moments ensemble and the kick pair in one pass; no name holds the
    # noise, so it is freed before the CSVs are written
    try:
        est = estimate_mc(
            sample_noise(cfg.time_grid, cfg.bath, s["n_paths"], s["seed"]),
            cfg.potential, cfg.q0, cfg.v0, s["f0_kick"], thermal_v0=s["thermal_v0"])
    except SurvivorsError as e:
        record(e)
        raise
    record(est)
    mom = est.moments
    write_csv(out / "mc_moments.csv",
              ["t", "mean", "stderr_mean", "variance", "stderr_variance"],
              [cfg.time_grid.times, mom.mean.values, mom.stderr_mean.values,
               mom.variance.values, mom.stderr_variance.values])
    write_csv(out / "mc_response.csv", ["t", "r_hat", "stderr"],
              [cfg.time_grid.times, est.r_hat.values, est.stderr_r_hat.values])
    return 0


def cmd_validate(cfg: Optional[RunConfig], out: Path, m: dict,
                 criteria: Optional[list[int]]) -> int:
    # imported here, so that no other subcommand pays for importing it
    from .acceptance import KNOWN_UNATTAINABLE, run_acceptance
    results = run_acceptance(criteria)
    # no timings in the report so reruns stay byte-identical
    write_csv(out / "acceptance_report.csv",
              ["criterion", "passed", "description", "detail"],
              [[str(r.cid) for r in results],
               ["1" if r.passed else "0" for r in results],
               [r.description for r in results],
               [r.detail for r in results]])
    m["results"] = [{"criterion": r.cid, "passed": r.passed,
                     "known_unattainable": r.cid in KNOWN_UNATTAINABLE,
                     "description": r.description, "detail": r.detail}
                    for r in results]
    return 0 if all(r.passed for r in results) else 1


def _horizon_error(cfg: RunConfig) -> Optional[str]:
    """The variance quadrature must resolve the time horizon."""
    try:
        cfg.quad.check_horizon(cfg.time_grid.t_max)
    except ValueError as e:
        return f"tolerances.quad_n: {e} (time_grid.t_max = {cfg.time_grid.t_max!r})"
    return None


def _eta_error(cfg: RunConfig) -> Optional[str]:
    """chi_tilde = 1/(eta - w^2 - i gamma w) must be finite at the freq_grid's
    omega = 0 node."""
    if cfg.potential.eta == 0:
        return "potential.eta: must be nonzero, chi_tilde is singular at omega = 0"
    return None


def _synthesis_error(cfg: RunConfig) -> Optional[str]:
    """The MC noise synthesis must fit its FFT length and path-sample caps."""
    try:
        nfft = _synthesis_length(cfg.time_grid, cfg.bath.nu)
    except SynthesisLengthError as e:
        return f"bath.nu: {e}"
    try:
        _check_path_samples(cfg.time_grid, nfft, cfg.settings["n_paths"])
    except PathSamplesError as e:
        return f"mc.n_paths: {e}"
    return None


# subcommand -> (function, whether it needs the freq_grid section, the
# checks of the config against what the subcommand computes)
SUBCOMMANDS = {
    "kernels": (cmd_kernels, True, (_eta_error,)),
    "moments": (cmd_moments, True, (_horizon_error,)),
    "response": (cmd_response, False, (_horizon_error,)),
    "susceptibility": (cmd_susceptibility, True, (_eta_error, _horizon_error)),
    "mc": (cmd_mc, False, (_synthesis_error,)),
    "validate": (cmd_validate, False, ()),
}

# failures that exit 3 with a manifest carrying diagnostics.error
NUMERICAL_ERRORS = (ConvergenceError, NonFiniteTermError, QuadratureError,
                    PlateauError, EdgeToleranceError, StepInstabilityError,
                    kernels.MatsubaraTruncationError, SurvivorsError,
                    KickResolutionError, NonFiniteOutputError)


def _config_error(messages: list[str]) -> int:
    for msg in messages:
        print(f"config error: {msg}", file=sys.stderr)
    return 2


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qcle",
        description="Quasiclassical Brownian motion: moments, response and "
                    "susceptibility in nonlinear harmonic potentials.")
    parser.add_argument("subcommand", choices=list(SUBCOMMANDS))
    parser.add_argument("--config", type=Path,
                        help="JSON run configuration (optional for validate)")
    parser.add_argument("--out", type=Path, default=Path("qcle-out"),
                        help="output directory (default: ./qcle-out)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the MC seed from the config")
    parser.add_argument("--criteria", type=str, default=None,
                        help="validate only: comma-separated criterion ids")
    args = parser.parse_args(argv)
    sub = args.subcommand
    cmd, needs_freq_grid, checks = SUBCOMMANDS[sub]

    # every config error is reported before any output is written
    cfg = None
    if args.config is not None:
        try:
            cfg = parse_config(args.config, seed_override=args.seed)
        except ConfigError as e:
            return _config_error([f"{args.config}: {msg}" for msg in e.messages])
    elif sub != "validate":
        return _config_error(["--config is required"])
    if needs_freq_grid and cfg.freq_grid is None:
        return _config_error([f"freq_grid: section required by `{sub}`"])
    errors = [e for check in checks if (e := check(cfg))]
    if errors:
        return _config_error([f"{args.config}: {e}" for e in errors])
    criteria = None
    if args.criteria:
        try:
            criteria = [int(x) for x in args.criteria.split(",") if x.strip()]
        except ValueError:
            return _config_error([f"bad --criteria {args.criteria!r}"])
        from .acceptance import CRITERIA
        unknown = sorted(set(criteria) - set(CRITERIA))
        if unknown:
            return _config_error([f"unknown criterion {c} in --criteria"
                                  for c in unknown])
    kwargs = {"criteria": criteria} if sub == "validate" else {}

    out = args.out
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        return _config_error([f"--out {out}: {e.strerror or e}"])
    m = _base_manifest(cfg, sub)
    try:
        # a numerical failure is reported once, as the error below: no numpy
        # warnings before it (djm_solve's own errstate still traps overflow)
        with np.errstate(all="ignore"):
            code = cmd(cfg, out, m, **kwargs)
    except NUMERICAL_ERRORS as e:
        m.setdefault("diagnostics", {})["error"] = str(e)
        write_manifest(out / "manifest.json", m)
        print(f"numerical error: {e}", file=sys.stderr)
        return 3
    write_manifest(out / "manifest.json", m)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
