"""Exit codes and output digests of the CLI on every preset config.

    python3 tools/preset_digests.py [CHECKOUT]

Runs `qcle kernels|moments|response|susceptibility|mc` on each
`configs/*.json` of CHECKOUT (default: the checkout holding this script),
with that checkout's `src/` on PYTHONPATH, each run in its own temporary
directory. Prints one line per run: preset, subcommand, exit code and the
sha256 of every CSV and `manifest.json` the run left. Two checkouts give the
same bytes on the presets exactly when their outputs diff clean:

    python3 tools/preset_digests.py /path/to/parent > parent.txt
    python3 tools/preset_digests.py > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SUBCOMMANDS = ("kernels", "moments", "response", "susceptibility", "mc")


def digest_line(root: Path, config: Path, sub: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "qcle.cli", sub, "--config", str(config),
             "--out", str(out)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        files = sorted(out.glob("*.csv")) + sorted(out.glob("manifest.json"))
        digests = [f"{p.name}={hashlib.sha256(p.read_bytes()).hexdigest()}"
                   for p in files]
    return " ".join([config.stem, sub, f"exit={proc.returncode}", *digests])


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent)
    configs = sorted((root / "configs").glob("*.json"))
    if not configs:
        print(f"no configs/*.json under {root}", file=sys.stderr)
        return 2
    for config in configs:
        for sub in SUBCOMMANDS:
            print(digest_line(root, config, sub), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
