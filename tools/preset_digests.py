"""Exit codes and output digests of the CLI on every preset config.

    python3 tools/preset_digests.py [CHECKOUT]

Runs `qcle kernels|moments|response|susceptibility|mc` on each
`configs/*.json` of CHECKOUT (default: the checkout holding this script),
then the OVERRIDE_RUNS on presets with some keys overridden: `qcle response`
at quantum nu (every preset has nu = 1e4, where the Matsubara sum keeps one
term), the three recursions at djm_k_max 3, and one run of each recursion
that stops on a non-finite term (bistable `moments` at alpha = 3, parabolic
`response` at eta = -1 and alpha = 0.3, parabolic `susceptibility` at
epsilon = 1e200); each of these six exits 3 and writes only its manifest,
with the norms of the finite terms, the false flag and the error. The last
override run is parabolic `kernels` at freq_grid.omega_max = 1e300: it exits
0, and its mirrored `kernels_freq.csv` has every nonzero omega past 1e280 and
chi_tilde columns of signed zeros, so the mirror rows of `write_csv` take
their omega fields from `%`. Then it runs `qcle validate --criteria 1,5,6,9`
(the Hermitian, causality and Dirac checks; about 3 s), with that
checkout's `src/` on PYTHONPATH, each run in its own temporary directory.
Prints one line per run: its label, exit code and the sha256 of every CSV
and `manifest.json` the run left. Two checkouts give the same bytes
exactly when their outputs diff clean:

    python3 tools/preset_digests.py /path/to/parent > parent.txt
    python3 tools/preset_digests.py > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SUBCOMMANDS = ("kernels", "moments", "response", "susceptibility", "mc")
VALIDATE_CRITERIA = "1,5,6,9"


# (label, preset, overrides, subcommands). The quantum-response recipe of
# the benchmark (perfbench/workloads.py) on a preset, where alpha != 0 makes
# the response depend on the variance; then the two failure paths of each
# recursion, too few applications to converge and a term past the float
# range, where the manifest carries the norms, the false converged flag and
# the error; then a mirrored kernels_freq.csv whose nonzero omega fields
# write_csv formats through %, in its mirror rows as in its omega > 0 rows
OVERRIDE_RUNS = [
    ("parabolic nu=2", "parabolic",
     {"potential": {"alpha": 0.2}, "bath": {"nu": 2.0},
      "tolerances": {"quad_omega_max": 300.0, "quad_rtol": 0.1}}, ("response",)),
    ("bistable djm_k_max=3", "bistable", {"tolerances": {"djm_k_max": 3}},
     ("moments", "response", "susceptibility")),
    ("bistable alpha=3", "bistable", {"potential": {"alpha": 3.0}}, ("moments",)),
    ("parabolic eta=-1 alpha=0.3", "parabolic",
     {"potential": {"eta": -1.0, "alpha": 0.3}}, ("response",)),
    ("parabolic epsilon=1e200", "parabolic", {"potential": {"epsilon": 1e200}},
     ("susceptibility",)),
    ("parabolic omega_max=1e300", "parabolic", {"freq_grid": {"omega_max": 1e300}},
     ("kernels",)),
]


def runs(root: Path, tmp: Path) -> list[tuple[str, list[str]]]:
    """(label, CLI arguments) of every preset run of the checkout root, then
    of the OVERRIDE_RUNS, whose configs are written into tmp, then of the
    validate run."""
    out = [(f"{config.stem} {sub}", [sub, "--config", str(config)])
           for config in sorted((root / "configs").glob("*.json"))
           for sub in SUBCOMMANDS]
    for i, (label, preset, overrides, subs) in enumerate(OVERRIDE_RUNS):
        config = json.loads((root / "configs" / f"{preset}.json").read_text())
        for section, values in overrides.items():
            config.setdefault(section, {}).update(values)
        path = tmp / f"override-{i}.json"
        path.write_text(json.dumps(config))
        out += [(f"{label} {sub}", [sub, "--config", str(path)]) for sub in subs]
    return out + [(f"validate {VALIDATE_CRITERIA}",
                   ["validate", "--criteria", VALIDATE_CRITERIA])]


def run_cli(root: Path, args: list[str], out: Path) -> int:
    """Run `qcle ARGS --out OUT` on the checkout root's `src/`; its exit code."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run(
        [sys.executable, "-m", "qcle.cli", *args, "--out", str(out)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def digest_line(root: Path, label: str, args: list[str]) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code = run_cli(root, args, out)
        files = sorted(out.glob("*.csv")) + sorted(out.glob("manifest.json"))
        digests = [f"{p.name}={hashlib.sha256(p.read_bytes()).hexdigest()}"
                   for p in files]
    return " ".join([label, f"exit={code}", *digests])


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent)
    if not any((root / "configs").glob("*.json")):
        print(f"no configs/*.json under {root}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        for label, args in runs(root, Path(tmp)):
            print(digest_line(root, label, args), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
