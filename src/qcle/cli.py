"""Configuration-driven command line front end.

    qcle <subcommand> --config <path> [--out <dir>] [--seed <u64>]

Subcommands: kernels, moments, response, susceptibility, mc, validate.
Exit codes: 0 ok, 1 acceptance failure (validate only), 2 config error
(reported before any file is written), 3 numerical failure (reported on
stderr and in the manifest's diagnostics.error). Outputs are CSV with 17
significant digits plus a JSON manifest echoing the configuration,
tolerances, seeds and solver diagnostics; reruns of the same config are
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, kernels
from .acceptance import CRITERIA, KNOWN_UNATTAINABLE, run_acceptance
from .djm import ConvergenceError, NonFiniteTermError
from .grids import FreqGrid, Spectrum, TimeGrid
from .mc import (PathSamplesError, SynthesisLengthError, _check_path_samples,
                 _synthesis_length, estimate_moments, estimate_response,
                 integrate_qcle, sample_noise)
from .moments import (PlateauError, QuadratureError, SpectralQuadrature,
                      mean_trajectory, variance, variance_spectrum)
from .params import BathParams, PotentialParams
from .response import ResponseProblem, StepInstabilityError, _substeps_per_step, \
    integrate_duffing, ode_residual, solve_response_windowed
from .susceptibility import (EdgeToleranceError, SusceptibilityProblem,
                             response_from_susceptibility, solve_susceptibility)


# largest node count of a grid, a quadrature or the Duffing substeps
MAX_NODES = 1 << 20


class ConfigError(Exception):
    def __init__(self, messages: list[str]):
        super().__init__("\n".join(messages))
        self.messages = messages


@dataclass
class RunConfig:
    potential: PotentialParams
    bath: BathParams
    time_grid: TimeGrid
    freq_grid: Optional[FreqGrid]
    q0: float
    v0: float
    djm_tol: float
    djm_k_max: int
    response_window: float
    quad: SpectralQuadrature
    edge_tol: float
    plateau_tol: float
    dt_sub: float
    n_paths: int
    seed: int
    f0_kick: float
    thermal_v0: bool
    raw: dict = field(default_factory=dict)


def _get(section: dict, path: str, key: str, typ, errors: list[str],
         default=None, required: bool = False):
    if key not in section:
        if required:
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
        return default
    return val


def parse_config(path: Path, seed_override: Optional[int] = None) -> RunConfig:
    errors: list[str] = []
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(["no such file"])
    except ValueError as e:  # JSONDecodeError, or an integer too long to parse
        raise ConfigError([f"invalid JSON: {e}"])
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be an object"])

    def section(name: str, required: bool = True) -> dict:
        sec = raw.get(name)
        if sec is None:
            if required:
                errors.append(f"{name}: missing required section")
            return {}
        if not isinstance(sec, dict):
            errors.append(f"{name}: must be an object")
            return {}
        return sec

    pot_s = section("potential")
    bath_s = section("bath")
    tg_s = section("time_grid")
    fg_s = section("freq_grid", required=False)
    init_s = section("initial", required=False)
    tol_s = section("tolerances", required=False)
    mc_s = section("mc", required=False)
    integ_s = section("integrator", required=False)

    eta = _get(pot_s, "potential", "eta", float, errors, required=True)
    alpha = _get(pot_s, "potential", "alpha", float, errors, 0.0)
    epsilon = _get(pot_s, "potential", "epsilon", float, errors, 0.0)
    f0 = _get(pot_s, "potential", "f0", float, errors, 0.1)
    gamma = _get(bath_s, "bath", "gamma", float, errors, required=True)
    temp = _get(bath_s, "bath", "temp", float, errors, required=True)
    nu = _get(bath_s, "bath", "nu", float, errors, required=True)
    t_max = _get(tg_s, "time_grid", "t_max", float, errors, required=True)
    t_n = _get(tg_s, "time_grid", "n", int, errors, required=True)
    if errors:
        raise ConfigError(errors)

    potential = bath = time_grid = freq_grid = None
    try:
        potential = PotentialParams(eta=eta, alpha=alpha, epsilon=epsilon, f0=f0)
    except ValueError as e:
        errors.append(f"potential: {e}")
    try:
        bath = BathParams(gamma=gamma, temp=temp, nu=nu)
    except ValueError as e:
        errors.append(f"bath: {e}")
    try:
        time_grid = TimeGrid(t_max=t_max, n=t_n)
    except ValueError as e:
        errors.append(f"time_grid: {e}")
    if fg_s:
        om = _get(fg_s, "freq_grid", "omega_max", float, errors, required=True)
        fn = _get(fg_s, "freq_grid", "n", int, errors, required=True)
        if not errors:
            try:
                freq_grid = FreqGrid(omega_max=om, n=fn)
            except ValueError as e:
                errors.append(f"freq_grid: {e}")

    quad_kwargs = {}
    for name in ("omega_max", "n", "rtol"):
        val = _get(tol_s, "tolerances", f"quad_{name}",
                   int if name == "n" else float, errors)
        if val is not None:
            quad_kwargs[name] = val
    djm_tol = _get(tol_s, "tolerances", "djm_tol", float, errors, 1e-9)
    djm_k_max = _get(tol_s, "tolerances", "djm_k_max", int, errors, 60)
    window = _get(tol_s, "tolerances", "response_window", float, errors, 2.5)
    edge_tol = _get(tol_s, "tolerances", "edge_tol", float, errors, 1e-3)
    plateau_tol = _get(tol_s, "tolerances", "plateau_tol", float, errors, 1e-4)
    dt_sub = _get(integ_s, "integrator", "dt_sub", float, errors, 1e-3)
    n_paths = _get(mc_s, "mc", "n_paths", int, errors, 2000)
    seed = _get(mc_s, "mc", "seed", int, errors, 12345)
    f0_kick = _get(mc_s, "mc", "f0_kick", float, errors, 0.1)
    thermal_v0 = _get(mc_s, "mc", "thermal_v0", bool, errors, False)
    q0 = _get(init_s, "initial", "q0", float, errors, 0.0)
    v0 = _get(init_s, "initial", "v0", float, errors, 0.0)
    if seed_override is not None:
        seed = seed_override
    for key, val in (("tolerances.djm_tol", djm_tol), ("tolerances.edge_tol", edge_tol),
                     ("tolerances.plateau_tol", plateau_tol),
                     ("tolerances.response_window", window),
                     ("integrator.dt_sub", dt_sub)):
        if not val > 0:
            errors.append(f"{key}: must be positive")
    for key, val, low in (("tolerances.djm_k_max", djm_k_max, 1),
                          ("mc.n_paths", n_paths, 2), ("mc.seed", seed, 0)):
        if val < low:
            errors.append(f"{key}: must be >= {low}")
    if f0_kick == 0:
        errors.append("mc.f0_kick: must be nonzero")
    if time_grid is not None and dt_sub > time_grid.dt * (1 + 1e-12):
        errors.append(f"integrator.dt_sub: must not exceed the time-grid step "
                      f"{time_grid.dt!r}")
    substeps = (t_n - 1) * _substeps_per_step(time_grid.dt, dt_sub) \
        if time_grid is not None and dt_sub > 0 else None
    for key, val, what in (
            ("time_grid.n", t_n, "time nodes"),
            ("freq_grid.n", freq_grid and freq_grid.n, "frequency nodes"),
            ("tolerances.quad_n", quad_kwargs.get("n"), "quadrature nodes"),
            ("integrator.dt_sub", substeps, "Duffing substeps")):
        if val is not None and val > MAX_NODES:
            errors.append(f"{key}: {val:.4g} {what}, past the cap of {MAX_NODES}")
    if errors:
        raise ConfigError(errors)
    try:
        quad = SpectralQuadrature(**quad_kwargs)
    except ValueError as e:
        raise ConfigError([f"tolerances.quad: {e}"])
    return RunConfig(potential, bath, time_grid, freq_grid, q0, v0, djm_tol,
                     djm_k_max, window, quad, edge_tol, plateau_tol, dt_sub,
                     n_paths, seed, f0_kick, thermal_v0, raw)


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]):
    """Numbers as %.16e (17 significant digits, exact round trip); a text
    table (the acceptance report) goes through csv quoting."""
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        if any(len(col) and isinstance(col[0], str) for col in columns):
            w.writerows(zip(*columns))
            return
        line = ",".join(["%.16e"] * len(columns)) + "\r\n"
        cols = [np.asarray(col, dtype=float).tolist() for col in columns]
        fh.write("".join([line % row for row in zip(*cols)]))


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
    m["effective"] = {
        "seed": cfg.seed,
        "djm_tol": cfg.djm_tol,
        "djm_k_max": cfg.djm_k_max,
        "response_window": cfg.response_window,
        "quad_omega_max": cfg.quad.omega_max,
        "quad_n": cfg.quad.n,
        "quad_rtol": cfg.quad.rtol,
        "edge_tol": cfg.edge_tol,
        "plateau_tol": cfg.plateau_tol,
        "dt_sub": cfg.dt_sub,
        "n_paths": cfg.n_paths,
        "f0_kick": cfg.f0_kick,
        "thermal_v0": cfg.thermal_v0,
    }
    m["diagnostics"] = {}
    return m


def _dirac_row(spec: Spectrum) -> list:
    """The Dirac at omega = 0 as [[0.0, re, im]], or [] when it is absent."""
    w = spec.dirac
    return [[0.0, w.real, w.imag]] if w else []


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
    sig2 = variance(cfg.time_grid, cfg.bath, cfg.potential, quad=cfg.quad)
    try:
        mean, sol = mean_trajectory(cfg.q0, cfg.v0, cfg.potential, cfg.bath,
                                    cfg.time_grid, sigma2=sig2,
                                    tol=cfg.djm_tol, k_max=cfg.djm_k_max)
    except ConvergenceError as e:
        m["diagnostics"]["mean_term_norms"] = e.term_norms
        raise
    write_csv(out / "moments.csv", ["t", "mean", "variance"],
              [cfg.time_grid.times, mean.values, sig2.values])
    m["diagnostics"].update({
        "mean_term_norms": sol.term_norms,
        "mean_converged": sol.converged,
    })
    fg = cfg.freq_grid
    spec = variance_spectrum(sig2, fg, plateau_tol=cfg.plateau_tol)
    write_csv(out / "variance_spectrum.csv", ["omega", "re", "im"],
              [fg.omegas, spec.values.real, spec.values.imag])
    m["diagnostics"]["sigma2_singular"] = _dirac_row(spec)
    return 0


def cmd_response(cfg: RunConfig, out: Path, m: dict) -> int:
    sig2 = variance(cfg.time_grid, cfg.bath, cfg.potential, quad=cfg.quad)
    prob = ResponseProblem(cfg.potential, cfg.bath, sig2, cfg.time_grid)
    r_djm, sols = solve_response_windowed(prob, window=cfg.response_window,
                                          tol=cfg.djm_tol, k_max=cfg.djm_k_max)
    m["diagnostics"]["window_term_norms"] = [s.term_norms for s in sols]
    m["diagnostics"]["windows_converged"] = [s.converged for s in sols]
    if not sols[-1].converged:
        raise ConvergenceError("response recursion did not converge",
                               sols[-1].term_norms)
    r_ode = integrate_duffing(prob, dt_sub=cfg.dt_sub)
    write_csv(out / "response.csv", ["t", "r_recursion", "r_integrator"],
              [cfg.time_grid.times, r_djm.values, r_ode.values])
    m["diagnostics"].update({
        "ode_residual_recursion": ode_residual(r_djm, prob),
        "ode_residual_integrator": ode_residual(r_ode, prob),
        "route_disagreement": float(np.max(np.abs(r_djm.values - r_ode.values))),
    })
    return 0


def cmd_susceptibility(cfg: RunConfig, out: Path, m: dict) -> int:
    fg = cfg.freq_grid
    sig2 = variance(cfg.time_grid, cfg.bath, cfg.potential, quad=cfg.quad)
    spec2 = variance_spectrum(sig2, fg, plateau_tol=cfg.plateau_tol)
    prob = SusceptibilityProblem(cfg.potential, cfg.bath, spec2, fg)
    chi, sol = solve_susceptibility(prob, tol=cfg.djm_tol, k_max=cfg.djm_k_max)
    m["diagnostics"]["term_norms"] = sol.term_norms
    m["diagnostics"]["converged"] = sol.converged
    if not sol.converged:
        raise ConvergenceError("susceptibility recursion did not converge",
                               sol.term_norms)
    write_csv(out / "susceptibility.csv", ["omega", "re", "im"],
              [fg.omegas, chi.values.real, chi.values.imag])
    rec, imag_resid = response_from_susceptibility(chi, cfg.time_grid,
                                                   edge_tol=cfg.edge_tol)
    write_csv(out / "response_reconstructed.csv", ["t", "r"],
              [cfg.time_grid.times, rec.values])
    m["diagnostics"].update({
        "imag_residual": imag_resid,
        "chi_singular": _dirac_row(chi),
    })
    return 0


def cmd_mc(cfg: RunConfig, out: Path, m: dict) -> int:
    noise = sample_noise(cfg.time_grid, cfg.bath, cfg.n_paths, cfg.seed)
    ens = integrate_qcle(noise, cfg.potential, q0=cfg.q0, v0=cfg.v0)
    est = estimate_moments(ens)
    write_csv(out / "mc_moments.csv",
              ["t", "mean", "stderr_mean", "variance", "stderr_variance"],
              [cfg.time_grid.times, est.mean.values, est.stderr_mean.values,
               est.variance.values, est.stderr_variance.values])
    r_hat, r_se = estimate_response(cfg.potential, noise, f0_kick=cfg.f0_kick,
                                    thermal_v0=cfg.thermal_v0)
    write_csv(out / "mc_response.csv", ["t", "r_hat", "stderr"],
              [cfg.time_grid.times, r_hat.values, r_se.values])
    m["diagnostics"]["n_excluded"] = ens.n_excluded
    return 0


def cmd_validate(cfg: Optional[RunConfig], out: Path, m: dict,
                 criteria: Optional[list[int]]) -> int:
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


def _synthesis_error(cfg: RunConfig) -> Optional[str]:
    """The MC noise synthesis must fit its FFT length and path-sample caps."""
    try:
        nfft = _synthesis_length(cfg.time_grid, cfg.bath.nu)
    except SynthesisLengthError as e:
        return f"bath.nu: {e}"
    try:
        _check_path_samples(cfg.time_grid, nfft, cfg.n_paths)
    except PathSamplesError as e:
        return f"mc.n_paths: {e}"
    return None


# subcommand -> (function, whether it needs the freq_grid section, the check
# of the config against the sizes the subcommand needs, or None)
SUBCOMMANDS = {
    "kernels": (cmd_kernels, True, None),
    "moments": (cmd_moments, True, _horizon_error),
    "response": (cmd_response, False, _horizon_error),
    "susceptibility": (cmd_susceptibility, True, _horizon_error),
    "mc": (cmd_mc, False, _synthesis_error),
    "validate": (cmd_validate, False, None),
}

# failures that exit 3 with a manifest carrying diagnostics.error
NUMERICAL_ERRORS = (ConvergenceError, NonFiniteTermError, QuadratureError,
                    PlateauError, EdgeToleranceError, StepInstabilityError,
                    kernels.MatsubaraTruncationError)


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
    cmd, needs_freq_grid, size_check = SUBCOMMANDS[sub]

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
    size_error = size_check(cfg) if size_check else None
    if size_error:
        return _config_error([f"{args.config}: {size_error}"])
    criteria = None
    if args.criteria:
        try:
            criteria = [int(x) for x in args.criteria.split(",") if x.strip()]
        except ValueError:
            return _config_error([f"bad --criteria {args.criteria!r}"])
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
