"""Print every benchmark metric for every workload in one command.

    python3 perfbench/report.py [--seed 1] [--seconds 20]

For each workload it runs perfbench/run.py twice with the same seed, once
untraced and once traced, each in its own process, one after the other.
It prints the end-to-end metrics and failed_frac of the untraced run, the
per-layer metrics of the traced run, the tracing overhead (traced minus
untraced solve_s_p50) and whether the traced run wrote the same CSV bytes
as the untraced one. Exits 1 if any run is incorrect.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.run import END_TO_END  # noqa: E402
from perfbench.tracing import PER_LAYER  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args(argv)

    plain, traced = {}, {}
    for workload in WORKLOADS:
        plain[workload], _ = run_once(workload, args.seed, args.seconds, 0)
        traced[workload], text = run_once(workload, args.seed, args.seconds, 1)
        print(text.splitlines()[0] if text else workload, file=sys.stderr)

    names = list(WORKLOADS)
    width = max(map(len, PER_LAYER)) + 2
    print(f"{'metric':{width}}{'unit':7}" + "".join(f"{n:>18}" for n in names))

    def row(name, unit, values):
        print(f"{name:{width}}{unit:7}" + "".join(f"{v:>18.6g}" for v in values))

    for name, unit in END_TO_END.items():
        row(name, unit, [plain[w]["metrics"][name]["value"] for w in names])
    row("failed_frac", "ratio",
        [plain[w]["failed"] / plain[w]["attempted"] for w in names])
    row("solves (samples)", "count", [plain[w]["attempted"] for w in names])
    print()
    for name, (unit, _) in PER_LAYER.items():
        row(name, unit, [traced[w]["metrics"][name]["value"] for w in names])
    row("tracing overhead", "s",
        [traced[w]["metrics"]["trace.solve_s_p50"]["value"]
         - plain[w]["metrics"]["solve_s_p50"]["value"] for w in names])
    ok = all(r["correct"] for r in (*plain.values(), *traced.values()))
    # the traced run compares its CSV digests with the untraced run's
    print(f"\noutputs checked, traced and untraced CSV digests match: "
          f"{'yes' if ok else 'NO'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
