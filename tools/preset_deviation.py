"""Exit codes and worst CSV column deviation of every preset run, between
two checkouts.

    python3 tools/preset_deviation.py PARENT [CHANGE]

Runs the same CLI calls as `tools/preset_digests.py` (each preset ×
`kernels|moments|response|susceptibility|mc`, the override runs of its
OVERRIDE_RUNS, then `validate --criteria 1,5,6,9`) on both checkouts (CHANGE
defaults to the checkout holding this script). Prints one line per preset
run: its label, both exit codes, and the worst column deviation
max|change - parent| / max|parent column| over every numeric CSV column,
with the file and column it occurs in. A column whose
parent maximum is below 1e-12 is pure roundoff (such as the stderr of an
alpha = 0 ensemble), so its absolute deviation is printed instead, as `abs`.
A Monte Carlo column with a standard-error column (STDERR) also gives the
worst |change - parent| / sqrt(se_parent^2 + se_change^2), as `z`, over the
nodes where that is defined; a stderr column that is pure roundoff carries
no statistics and is skipped. `text_only=N` counts the CSV fields whose
text differs while their values compare equal, such as 0.0 and -0.0. From
the two `manifest.json` files, `diag_keys` lists the diagnostics keys on one
side only (`-key`: parent only, `+key`: change only) and `diag_rel` gives
the worst relative deviation max|change - parent| / max|parent| of the
numbers of a diagnostics key on both sides (such as `term_norms`). The
validate line says whether the acceptance report bytes match. This names
and bounds a numerical change the way the digests show "same bytes".
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from preset_digests import run_cli, runs

TINY = 1e-12
# value column -> its standard-error column in the mc CSVs
STDERR = {"mean": "stderr_mean", "variance": "stderr_variance", "r_hat": "stderr"}


def _columns(path: Path) -> dict[str, np.ndarray]:
    data = np.genfromtxt(path, delimiter=",", names=True, ndmin=1)
    return {name: data[name] for name in data.dtype.names}


def _text_only_fields(p_csv: Path, c_csv: Path) -> int:
    """Fields whose text differs while their values compare equal."""
    count = 0
    for p_line, c_line in zip(p_csv.read_text().splitlines()[1:],
                              c_csv.read_text().splitlines()[1:]):
        if p_line != c_line:
            count += sum(p != c and float(p) == float(c)
                         for p, c in zip(p_line.split(","), c_line.split(",")))
    return count


def _numbers(value) -> list[float]:
    """The numbers in a manifest value (nested lists), booleans excluded."""
    if isinstance(value, list):
        return [x for v in value for x in _numbers(v)]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [float(value)]
    return []


def _diagnostics(parent: Path, change: Path) -> str:
    """'diag_keys=-K,+K' (or 'same') and 'diag_rel=R (key)' for the worst
    numeric diagnostics key of the two manifests."""
    p_man, c_man = parent / "manifest.json", change / "manifest.json"
    if not (p_man.exists() and c_man.exists()):
        return "no manifest"
    p_diag = json.loads(p_man.read_text()).get("diagnostics", {})
    c_diag = json.loads(c_man.read_text()).get("diagnostics", {})
    only = ([f"-{k}" for k in sorted(p_diag.keys() - c_diag.keys())]
            + [f"+{k}" for k in sorted(c_diag.keys() - p_diag.keys())])
    out = [f"diag_keys={','.join(only) or 'same'}"]
    worst = (0.0, "")
    for key in sorted(p_diag.keys() & c_diag.keys()):
        p, c = np.array(_numbers(p_diag[key])), np.array(_numbers(c_diag[key]))
        if p.shape != c.shape:
            worst = (float("inf"), f"{key} length {p.size}/{c.size}")
            break
        if p.size:
            scale = float(np.max(np.abs(p)))
            dev = float(np.max(np.abs(c - p)))
            dev = dev / scale if scale > 0 else dev
            if dev >= worst[0]:
                worst = (dev, key)
    if worst[1]:
        out.append(f"diag_rel={worst[0]:.1e} ({worst[1]})")
    return " ".join(out)


def _worst(parent: Path, change: Path) -> str:
    """'rel=R (file:column)', 'abs=A (file:column)' and 'z=Z (file:column)'
    for the worst columns, and 'text_only=N'."""
    worst = {"rel": (0.0, ""), "abs": (0.0, ""), "z": (0.0, "")}
    text_only = 0
    for p_csv in sorted(parent.glob("*.csv")):
        c_csv = change / p_csv.name
        if not c_csv.exists():
            return f"{p_csv.name} missing in change"
        text_only += _text_only_fields(p_csv, c_csv)
        p_cols, c_cols = _columns(p_csv), _columns(c_csv)
        for name, p_col in p_cols.items():
            c_col = c_cols.get(name)
            if c_col is None or c_col.shape != p_col.shape:
                return f"{p_csv.name}:{name} differs in shape"
            scale = float(np.max(np.abs(p_col), initial=0.0))
            kind = "abs" if scale < TINY else "rel"
            dev = float(np.max(np.abs(c_col - p_col), initial=0.0))
            dev = dev if kind == "abs" else dev / scale
            if dev >= worst[kind][0]:
                worst[kind] = (dev, f"{p_csv.name}:{name}")
            se_name = STDERR.get(name)
            if (se_name in p_cols and se_name in c_cols
                    and np.max(np.abs(p_cols[se_name])) >= TINY):
                se = np.hypot(p_cols[se_name], c_cols[se_name])
                z = float(np.max(np.abs(c_col - p_col)[se > 0] / se[se > 0],
                                 initial=0.0))
                if z >= worst["z"][0]:
                    worst["z"] = (z, f"{p_csv.name}:{name}")
    found = [f"{kind}={dev:.1e} ({where})" for kind, (dev, where) in worst.items() if where]
    return " ".join(found + [f"text_only={text_only}"]) if found else "no CSV"


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print("usage: preset_deviation.py PARENT [CHANGE]", file=sys.stderr)
        return 2
    parent = Path(argv[0])
    change = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parent.parent)
    with tempfile.TemporaryDirectory() as p_cfg, tempfile.TemporaryDirectory() as c_cfg:
        for (label, p_args), (_, c_args) in zip(runs(parent, Path(p_cfg)),
                                                runs(change, Path(c_cfg))):
            with tempfile.TemporaryDirectory() as tmp:
                p_out, c_out = Path(tmp) / "parent", Path(tmp) / "change"
                codes = f"exit={run_cli(parent, p_args, p_out)}/{run_cli(change, c_args, c_out)}"
                if p_args[0] == "validate":
                    report = "acceptance_report.csv"
                    same = (p_out / report).read_bytes() == (c_out / report).read_bytes()
                    print(label, codes, f"report_bytes={'same' if same else 'DIFFER'}",
                          flush=True)
                else:
                    print(label, codes, _worst(p_out, c_out),
                          _diagnostics(p_out, c_out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
