"""qcle benchmark: one workload, one seed, one fresh single-threaded process.

    python3 perfbench/run.py --workload classical-chain --seed 1 --seconds 30 --trace 0

Run from the root of a checkout holding qcle's `src/`. The run generates
its configs from the seed, drives `qcle.cli.main` in-process on them one
solve after another, checks every solve's outputs and prints the metrics;
its last stdout line is one JSON object. The number of configs is fixed by
`--seconds` and the workload's reference rate (workloads.solve_count). With
`--trace 1` the public functions of each qcle module are wrapped (see
tracing.py) and per-layer metrics are printed instead.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # setup_s starts here

import os  # noqa: E402

if __name__ == "__main__":
    # one process, one thread: pin native thread pools before numpy loads
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, generate, solve_count  # noqa: E402

OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9  # setup_s is the median of the run's own setup and 8 more
# a run stops early once its solves take this many times --seconds, so a
# much slower change still exits in time
TIME_CAP = 4
END_TO_END = {
    "solve_s_p50": "s",
    "solves_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_cli():
    """qcle.cli from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "qcle" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {src / 'qcle'} not found; run from a "
                         "checkout that holds qcle's source")
    sys.path.insert(0, str(src))
    import qcle.cli
    if Path(qcle.cli.__file__).resolve().parent != (src / "qcle").resolve():
        raise SystemExit(f"perfbench: imported qcle from {qcle.cli.__file__}, "
                         f"not from {src}")
    return qcle.cli


def setup(workload: str, seed: int, seconds: int, run_dir: Path):
    """Import qcle, then generate and write the run's configs."""
    cli = import_cli()
    configs = generate(workload, seed, solve_count(workload, seconds))
    (run_dir / "configs").mkdir(parents=True)
    paths = []
    for i, cfg in enumerate(configs):
        path = run_dir / "configs" / f"{i:04d}.json"
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True))
        paths.append(path)
    return cli, configs, paths


def time_setups(args, run_dir: Path) -> list[float]:
    """setup_s of SETUP_REPEATS - 1 fresh processes, one at a time, each
    measured as the run's own: from the first statement of this file until
    its configs are written. The processes exit after setting up."""
    times = []
    for k in range(1, SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               str(run_dir / f"setup{k}"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
        proc = subprocess.run(cmd, check=True, timeout=60, capture_output=True,
                              text=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def solve(cli, workload: str, cfg: dict, cfg_path: Path, out: Path):
    """Run one config through the workload's subcommands and check the
    outputs. Returns (wall seconds of the subcommands, error or None, CSV
    digests)."""
    error = None
    t0 = time.perf_counter()
    for sub in WORKLOADS[workload].subcommands:
        try:
            rc = cli.main([sub, "--config", str(cfg_path), "--out", str(out / sub)])
        except SystemExit as e:
            rc = e.code
        except Exception:
            rc = "exception\n" + traceback.format_exc()
        if rc != 0:
            error = f"{sub}: exit {rc}"
            break
    wall = time.perf_counter() - t0
    if error is None:
        try:
            checks.CHECKS[workload](cfg, out)
        except Exception as e:  # any malformed output fails the solve only
            error = f"check: {type(e).__name__}: {e}"
    digests = checks.csv_digests(out) if out.exists() else {}
    return wall, error, digests


def config_key(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True)


def code_digest() -> str:
    """sha256 over qcle's source files, so digests are only compared
    between runs of the same code."""
    h = hashlib.sha256()
    src = ROOT / "src" / "qcle"
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def merge_digests(workload: str, solved: dict[str, dict]) -> tuple[int, list[str]]:
    """Compare this run's CSV digests with earlier runs of the same qcle
    source (any seed, traced or not) and record them; returns how many
    configs were compared and those whose bytes differ."""
    store = OUT / f"digests-{workload}-{code_digest()}.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    compared = [k for k in solved if k in known]
    mismatched = [k for k in compared if known[k] != solved[k]]
    known.update(solved)
    tmp = store.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, sort_keys=True))
    os.replace(tmp, store)
    return len(compared), mismatched


def run(args) -> int:
    run_dir = OUT / f"run-{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        cli, configs, paths = setup(args.workload, args.seed, args.seconds, run_dir)
        setup_times = [time.perf_counter() - T0] + time_setups(args, run_dir)
        return measure(args, cli, configs, paths, run_dir, setup_times)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, cli, configs, paths, run_dir, setup_times) -> int:
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"python={platform.python_version()} numpy={np.__version__} "
          f"nproc={os.cpu_count()} machine={platform.machine()}")
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    walls, errors, solved = [], [], {}
    start = time.perf_counter()
    for i, (cfg, path) in enumerate(zip(configs, paths)):
        if time.perf_counter() - start >= TIME_CAP * args.seconds:
            break
        if tracer:
            tracer.solve = i
        out = run_dir / f"solve{i:04d}"
        wall, error, digests = solve(cli, args.workload, cfg, path, out)
        walls.append(wall)
        if error:
            errors.append(f"solve {i}: {error}")
        else:
            solved[config_key(cfg)] = digests
        if i or not tracer:
            shutil.rmtree(out, ignore_errors=True)
    problems = list(errors)
    if tracer:
        tracer.uninstall()
        metrics, trace_problems = traced_metrics(args, cli, configs, paths,
                                                 run_dir, tracer, walls)
        problems += trace_problems
        units = {k: unit for k, (unit, _) in tracing.PER_LAYER.items()}
    else:
        metrics = {
            "solve_s_p50": statistics.median(walls),
            "solves_per_s": (len(walls) - len(errors)) / sum(walls),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    compared, mismatched = merge_digests(args.workload, solved)
    problems += [f"CSV bytes differ from an earlier run: {k}" for k in mismatched]

    attempted, failed = len(walls), len(errors)
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    print(f"  failed_frac {failed / attempted:.6g} ratio ({failed}/{attempted} solves"
          f" of {len(configs)}; solve_s_p50 is the median of {attempted} samples)")
    print(f"  digests: {compared} configs compared with earlier runs in this "
          f"checkout, {len(mismatched)} differ")
    for problem in problems:
        print(f"  FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def traced_metrics(args, cli, configs, paths, run_dir, tracer, walls):
    """Per-layer metrics of a traced run, after writing its spans out.

    Config 0 is solved once more with the wrappers removed: it must succeed
    and write the same bytes, which shows the wrappers are transparent."""
    (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
        [[s.name, s.start, s.end, s.parent, s.solve, s.counts] for s in tracer.spans]))
    metrics = tracing.per_layer_metrics(tracer.spans)
    problems = layer_coverage_problems(args.workload, tracer.spans)
    _, error, digests = solve(cli, args.workload, configs[0], paths[0],
                              run_dir / "untraced")
    same = digests == checks.csv_digests(run_dir / "solve0000")
    if error is not None:
        problems.append(f"untraced re-solve of config 0: {error}")
    elif not same:
        problems.append("config 0 wrote different CSV bytes traced and untraced")
    print(f"  digests: config 0 traced and untraced {'match' if same else 'DIFFER'}")
    metrics["trace.solve_s_p50"] = statistics.median(walls)
    return metrics, problems


def layer_coverage_problems(workload: str, spans) -> list[str]:
    """The deterministic workloads never reach mc; mc-ensemble never reaches
    moments.variance."""
    calls = Counter(span.name for span in spans)
    if workload == "mc-ensemble":
        bad = [name for name in calls if name == "moments.variance"]
    else:
        bad = [name for name in calls if name.startswith("mc.")]
    return [f"{name} called {calls[name]} times on {workload}" for name in bad]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up into DIR, print the setup time and exit (see time_setups)
    parser.add_argument("--setup-only", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.setup_only:
        setup(args.workload, args.seed, args.seconds, args.setup_only)
        print(time.perf_counter() - T0)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
