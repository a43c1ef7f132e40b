"""Command line front end: configs, outputs, exit codes, determinism."""

import csv
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import qcle
from qcle.cli import (CSV_BAND, CSV_BLOCK, NonFiniteOutputError, _mirrored, main,
                      write_csv)

CONFIG = {
    "potential": {"eta": 1.0, "alpha": 0.0, "epsilon": 0.0, "f0": 0.1},
    "bath": {"gamma": 1.0, "temp": 1.0, "nu": 1e4},
    "initial": {"q0": 1.0, "v0": 0.0},
    "time_grid": {"t_max": 10.0, "n": 501},
    "freq_grid": {"omega_max": 200.0, "n": 8001},
    "tolerances": {"djm_tol": 1e-9, "djm_k_max": 80, "response_window": 2.5},
    "integrator": {"dt_sub": 0.005},
    "mc": {"n_paths": 400, "seed": 99, "f0_kick": 0.1},
}


def _write_config(tmp_path, overrides=None, drop=None, base=CONFIG) -> Path:
    cfg = json.loads(json.dumps(base))
    for key, val in (overrides or {}).items():
        sec, _, field = key.partition(".")
        if field:
            cfg.setdefault(sec, {})[field] = val
        else:
            cfg[sec] = val
    for key in drop or []:
        sec, _, field = key.partition(".")
        if field:
            cfg[sec].pop(field, None)
        else:
            cfg.pop(sec, None)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def _read_csv(path: Path):
    with path.open() as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_kernels_subcommand(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["kernels", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = _read_csv(out / "kernels_time.csv")
    assert header == ["t", "chi_q", "chi_v", "chi_v_dot"]
    assert len(rows) == 501
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "kernels"
    assert manifest["effective"]["seed"] == 99
    assert manifest["effective"]["djm_tol"] == 1e-9


def test_csv_round_trip_17_digits(tmp_path):
    from qcle import chi_v
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    main(["kernels", "--config", str(cfg), "--out", str(out)])
    _, rows = _read_csv(out / "kernels_time.csv")
    t = np.array([float(r[0]) for r in rows])
    cv = np.array([float(r[2]) for r in rows])
    assert np.array_equal(cv, chi_v(t, 1.0, 1.0))  # exact round trip


def _per_value_csv(path: Path, header, columns):
    """Reference writer: every value formatted on its own through csv."""
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in zip(*columns):
            w.writerow([v if isinstance(v, str) else f"{float(v):.16e}"
                        for v in row])


def _stress_values() -> np.ndarray:
    """Values where a fast %.16e is most likely to go wrong, deterministic."""
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(np.float64)
    ks = range(-290, 291)
    decades = np.array([10.0**k for k in ks] + [float(f"1e{k}") for k in ks])
    carries = np.array([float(f"9.99999999999999995e{k}") for k in ks])
    near = [(base.view(np.int64)[:, None] + np.arange(-u, u + 1)).view(np.float64)
            for base, u in ((decades, 4), (carries, 6))]
    ints = rng.integers(10**15, 10**16, size=2000).astype(float)
    ties = (ints[:, None] + [0.25, 0.5, 0.75]).ravel()
    special = [0.0, -0.0, 5e-324, 2.2250738585072009e-308, 1e-310, 1e-300,
               np.finfo(float).max, 1e300, 0.5, 1.0]
    v = np.concatenate([*(x.ravel() for x in near), ties, np.nextafter(ties, 0),
                        np.nextafter(ties, np.inf), special])
    v = np.concatenate([bits, v, -v])
    return v[np.isfinite(v)]


def test_write_csv_matches_per_value_writer(tmp_path):
    x = np.array([-0.0, 0.0, 1e-300, -5e-324, 1.7976931348623157e308, 0.1, -2.5])
    v = _stress_values()
    n = v.size // 3
    assert n % (CSV_BLOCK // 3)  # a last block shorter than the others
    row = v[::v.size // 6][:7]
    tables = [
        (["t", "a", "b"], [np.arange(x.size) * 0.1, x, x[::-1]]),
        (["criterion", "passed", "detail"],
         [["1", "2"], ["1", "0"], ["max err 1e-3, bound 1e-6", 'say "hi"']]),
        (["t"], [np.array([])]),
        (["t"], [x]),
        (["t", "a", "b"], [[0.5], x[3:4], [-0.0]]),
        (["a", "b", "c"], [v[:n], v[n:2 * n], v[2 * n:3 * n]]),
        (["a"], [v[::9]]),
        (list("abcdefg"), [row[i:i + 1] for i in range(7)]),
    ]
    for i, (header, columns) in enumerate(tables):
        ours, ref = tmp_path / f"ours{i}.csv", tmp_path / f"ref{i}.csv"
        write_csv(ours, header, columns)
        _per_value_csv(ref, header, columns)
        assert hashlib.sha256(ours.read_bytes()).hexdigest() \
            == hashlib.sha256(ref.read_bytes()).hexdigest()


def _mirror(half: np.ndarray, odd: bool) -> np.ndarray:
    """A mirrored column of 2z + 1 rows, z = len(half) - 1: row z + k holds
    half[k], and row z - k holds half[k], negated when odd."""
    return np.concatenate([-half[:0:-1] if odd else half[:0:-1], half])


def _mirrored_stress_table(z: int) -> list[np.ndarray]:
    """Three mirrored columns of 2z + 1 rows, an even one, an odd one and an
    even one, whose omega >= 0 halves sample _stress_values() and hold +-0.0
    at their first rows."""
    v = np.random.default_rng(7).permutation(_stress_values())
    halves = v[:3 * (z + 1)].reshape(3, z + 1)
    halves[:, 1:5] = [0.0, -0.0, -0.0, 0.0]
    return [_mirror(h, odd) for h, odd in zip(halves, (False, True, False))]


def test_write_csv_mirror_matches_per_value_writer(tmp_path):
    # a mirrored table formats its band once and reuses it for the mirror
    # rows: the bytes stay those of the per-value writer
    n_rows, band = CSV_BLOCK // 3, CSV_BAND // 3
    z = band + 8155
    # the band starts and ends inside a block of the unbanded table
    assert (z - band) % n_rows and (band + 1) % n_rows
    big = _mirrored_stress_table(z)
    odd_half = big[1][z:]
    # positive slow fields on the omega > 0 side, negative in their mirrors:
    # subnormals, |x| >= 1e280 and near-ties (17 digits and about a half)
    near_tie = np.array([f"{x:.24e}"[18:22] in ("5000", "4999") for x in odd_half])
    for slow in (odd_half < 2.2250738585072014e-308, odd_half >= 1e280, near_tie):
        assert np.count_nonzero(slow & (odd_half > 0))
    omega = (np.arange(2001) - 1000) * 0.37
    small = [omega, *(c[z - 1000:z + 1001] for c in big), np.exp(-omega * omega)]
    off_by_one_ulp = [c.copy() for c in big]
    off_by_one_ulp[2][5] = np.nextafter(off_by_one_ulp[2][5], np.inf)
    tables = [
        (["a", "b", "c"], big, True),
        (list("abcde"), small, True),
        (["w", "a"], [[-1e300, 0.0, 1e300], [5e-324, -0.0, -5e-324]], True),
        (["w"], [[-0.0]], True),
        (["a", "b", "c"], off_by_one_ulp, False),
    ]
    for i, (header, columns, mirrored) in enumerate(tables):
        arrays = [np.asarray(c, dtype=float) for c in columns]
        assert _mirrored(arrays) is mirrored
        ours, ref = tmp_path / f"ours{i}.csv", tmp_path / f"ref{i}.csv"
        write_csv(ours, header, columns)
        _per_value_csv(ref, header, columns)
        assert ours.read_bytes() == ref.read_bytes()


def _write_csv_peak(path: Path, columns) -> int:
    tracemalloc.start()
    try:
        write_csv(path, ["t", "a", "b", "c"], columns)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_csv_memory_is_bounded(tmp_path):
    # formatted block by block: the writer holds no table-sized text
    t = np.linspace(0.0, 1.0, 200_001)
    columns = [t, np.sin(t), np.cos(t) * 1e-30, np.zeros_like(t)]
    assert _write_csv_peak(tmp_path / "big.csv", columns) < 8e6


def test_write_csv_memory_is_bounded_on_a_mirrored_table(tmp_path):
    # a mirrored table keeps at most CSV_BAND formatted values for its
    # mirror rows, not its whole omega >= 0 half
    t = (np.arange(200_001) - 100_000) * 1e-5
    columns = [t, t * t * t, np.exp(-t * t) * 1e-30, np.zeros_like(t)]
    assert _mirrored(columns)
    assert _write_csv_peak(tmp_path / "big.csv", columns) < 8e6


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_csv_refuses_non_finite(tmp_path, bad):
    path = tmp_path / "t.csv"
    with pytest.raises(NonFiniteOutputError, match="column.* b"):
        write_csv(path, ["t", "a", "b"], [np.arange(3.0), np.ones(3), [0.0, bad, 1.0]])
    assert not path.exists()


def test_moments_and_response_subcommands(tmp_path):
    cfg = _write_config(tmp_path)
    out1 = tmp_path / "m"
    assert main(["moments", "--config", str(cfg), "--out", str(out1)]) == 0
    assert (out1 / "moments.csv").exists()
    header, rows = _read_csv(out1 / "variance_spectrum.csv")
    assert header == ["omega", "re", "im"] and len(rows) == 8001
    # the spectrum is real: its mirrored half is written with 0.0, not -0.0
    assert {r[2] for r in rows} == {"0.0000000000000000e+00"}
    out2 = tmp_path / "r"
    assert main(["response", "--config", str(cfg), "--out", str(out2)]) == 0
    m = json.loads((out2 / "manifest.json").read_text())
    assert m["diagnostics"]["route_disagreement"] < 1e-4
    assert m["diagnostics"]["ode_residual_recursion"] < 1e-2


def test_susceptibility_subcommand(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "s"
    assert main(["susceptibility", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = _read_csv(out / "susceptibility.csv")
    assert header == ["omega", "re", "im"] and len(rows) == 8001
    # the omega < 0 rows mirror the omega > 0 rows: re equal, im negated
    re, im = (np.array([float(r[i]) for r in rows]) for i in (1, 2))
    assert np.array_equal(re, re[::-1]) and np.array_equal(im, -im[::-1])
    assert (out / "response_reconstructed.csv").exists()


def test_mc_subcommand_and_seed_override(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "mc"
    assert main(["mc", "--config", str(cfg), "--out", str(out)]) == 0
    m = json.loads((out / "manifest.json").read_text())
    assert m["effective"]["seed"] == 99
    assert m["diagnostics"] == {"n_excluded": 0, "n_excluded_pair": 0}
    out2 = tmp_path / "mc2"
    main(["mc", "--config", str(cfg), "--out", str(out2), "--seed", "123"])
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m2["effective"]["seed"] == 123
    assert (out / "mc_moments.csv").read_bytes() \
        != (out2 / "mc_moments.csv").read_bytes()


def test_determinism_byte_identical(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["mc", "--config", str(cfg), "--out", str(out1)])
    main(["mc", "--config", str(cfg), "--out", str(out2)])
    for name in ("mc_moments.csv", "mc_response.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_mc_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the MC step and its reducer are BLAS products: one OpenBLAS thread and
    # the default count give the same CSV bytes, each run in a fresh
    # interpreter, on the bistable preset (2000 paths) and on its 12 000-path
    # twin on a 3/301 grid, where OpenBLAS would split a dot product over
    # every path across its threads (past 10 000 elements). A 1-CPU host runs
    # one thread either way, so there the two cannot differ
    root = Path(__file__).resolve().parent.parent
    preset = root / "configs" / "bistable.json"
    wide = _write_config(tmp_path, base=json.loads(preset.read_text()), overrides={
        "mc.n_paths": 12_000, "time_grid": {"t_max": 3.0, "n": 301}})
    for config in (preset, wide):
        outputs = []
        for threads in ("1", None):
            env = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                "OMP_NUM_THREADS")}
            env["PYTHONPATH"] = str(root / "src")
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = tmp_path / f"{config.stem}_threads_{threads}"
            subprocess.run([sys.executable, "-m", "qcle.cli", "mc", "--config",
                            str(config), "--out", str(out)],
                           env=env, capture_output=True, check=True, timeout=300)
            outputs.append([(out / name).read_bytes()
                            for name in ("mc_moments.csv", "mc_response.csv")])
        assert outputs[0] == outputs[1], config.name


def test_missing_required_field_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, drop=["bath.nu"])
    assert main(["moments", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 2
    assert "bath.nu" in capsys.readouterr().err


def test_invalid_values_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, overrides={"potential.alpha": -1.0})
    assert main(["kernels", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 2
    cfg2 = _write_config(tmp_path, overrides={"time_grid.n": 1})
    assert main(["kernels", "--config", str(cfg2), "--out",
                 str(tmp_path / "o")]) == 2
    assert main(["kernels", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["response", "--out", str(tmp_path / "o")]) == 2  # no config


def test_unknown_sections_and_keys_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, overrides={
        "bogus": 1, "tolerances.djm_tol_": 1e-9, "mc.sed": 3})
    assert main(["kernels", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    for message in ("bogus: unknown section", "tolerances.djm_tol_: unknown key",
                    "mc.sed: unknown key"):
        assert message in err


@pytest.mark.parametrize("sub,norms,converged", [
    ("moments", "mean_term_norms", "mean_converged"),
    ("response", "window_term_norms", "windows_converged"),
    ("susceptibility", "term_norms", "converged"),
], ids=["moments", "response", "susceptibility"])
def test_nonconvergence_exits_3_with_manifest(tmp_path, capsys, sub, norms,
                                              converged):
    # every recursion returns its record; the CLI turns an unconverged one
    # into exit 3, with the norms and the false flag in the manifest
    cfg = _write_config(tmp_path, base=BISTABLE,
                        overrides={"tolerances.djm_k_max": 3})
    out = tmp_path / "o"
    assert main([sub, "--config", str(cfg), "--out", str(out)]) == 3
    diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert diag[norms]
    flag = diag[converged]
    assert (flag[-1] if sub == "response" else flag) is False
    assert "recursion not converged after" in diag["error"]
    assert capsys.readouterr().err == f"numerical error: {diag['error']}\n"


def test_validate_subset(tmp_path, capsys):
    out = tmp_path / "v"
    assert main(["validate", "--criteria", "1,5", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "[criterion 1] PASS" in printed and "[criterion 5] PASS" in printed
    header, rows = _read_csv(out / "acceptance_report.csv")
    assert header == ["criterion", "passed", "description", "detail"]
    assert [r[0] for r in rows] == ["1", "5"]


def test_validate_reports_known_defect(tmp_path, capsys):
    out = tmp_path / "v6"
    # criterion 6 carries the documented unattainable tolerance: nonzero exit
    assert main(["validate", "--criteria", "6", "--out", str(out)]) == 1
    assert "UNATTAINABLE" in capsys.readouterr().out
    m = json.loads((out / "manifest.json").read_text())
    assert m["results"][0]["known_unattainable"] is True


def test_validate_bad_criteria_exit_2(tmp_path):
    assert main(["validate", "--criteria", "1,zap",
                 "--out", str(tmp_path / "o")]) == 2


def test_cli_import_leaves_the_acceptance_suite_out():
    # only validate imports qcle.acceptance, so the other subcommands start
    # without importing it; a fresh interpreter sees what the import pulls in
    src = str(Path(qcle.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import qcle.cli; "
            "print('qcle.acceptance' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True)
    assert res.stdout == "False\n"


BISTABLE = json.loads(
    (Path(__file__).resolve().parent.parent / "configs" / "bistable.json").read_text())
PARABOLIC = json.loads(
    (Path(__file__).resolve().parent.parent / "configs" / "parabolic.json").read_text())
# the Matsubara sum would need more than kernels.MAX_MATSUBARA_TERMS terms
TINY_NU = {"bath.nu": 1e-4, "tolerances.quad_rtol": 1e9}
# on the bistable preset these made the unwindowed mean's recursion and the
# susceptibility's, with the plateau inside psi, overflow; both converge now
BLOWUP = {"bath.gamma": 2.0, "bath.temp": 1.0, "potential.alpha": 0.5}
# quantum nu at the default quad_rtol: the variance quadrature is cutoff-sensitive
QUANTUM_NU = {"potential.alpha": 0.3, "bath.nu": 1.0, "time_grid.t_max": 2.0,
              "time_grid.n": 101}
# past pi/d_omega of the default variance quadrature (62.8)
LONG_HORIZON = {"time_grid.t_max": 100.0, "time_grid.n": 2001}
# on the bistable preset every path leaves the MC blow-up guard
ESCAPED = {"initial.q0": 1000.0, "mc.n_paths": 50}
# the bistable preset cut to 3/301 with 50 paths, a short MC run
SHORT_MC = {"time_grid.t_max": 3.0, "time_grid.n": 301, "mc.n_paths": 50}
# the pure quartic well: chi_tilde is singular at the omega = 0 node
QUARTIC = {"potential.eta": 0.0, "potential.alpha": 0.3}
# on the parabolic preset the mean's f = chi_q q0 + chi_v v0 overflows
HUGE_F = {"initial.q0": 1.5e308, "initial.v0": 1.5e308}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _strict_manifest(out: Path) -> dict:
    """The run's manifest.json, refusing the NaN and Infinity tokens that
    json.dumps writes for non-finite floats."""
    return json.loads((out / "manifest.json").read_text(),
                      parse_constant=_reject_constant)


def _tree(root: Path) -> dict:
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.mark.parametrize("sub,config,extra,code", [
    pytest.param("mc", {"overrides": {"mc.n_paths": 1}}, [], 2, id="n_paths"),
    pytest.param("mc", {"overrides": {"mc.seed": -1}}, [], 2, id="seed"),
    pytest.param("mc", {}, ["--seed", "-1"], 2, id="seed_override"),
    pytest.param("mc", {"overrides": {"mc.f0_kick": 0.0}}, [], 2, id="f0_kick"),
    pytest.param("response", {"overrides": {"tolerances.djm_k_max": 0}}, [], 2,
                 id="djm_k_max"),
    pytest.param("response", {"overrides": {"tolerances.response_window": -1.0}},
                 [], 2, id="response_window"),
    # a window of at least t_max is one window, however long
    pytest.param("response", {"base": PARABOLIC,
                              "overrides": {"tolerances.response_window": 1e308}},
                 [], 0, id="response_window_huge"),
    pytest.param("response", {"overrides": {"integrator.dt_sub": 0.05}}, [], 2,
                 id="dt_sub"),
    pytest.param("kernels", {"drop": ["freq_grid"]}, [], 2, id="no_freq_grid"),
    pytest.param("validate", None, ["--criteria", "99"], 2, id="criteria"),
    pytest.param("kernels", {"overrides": {"potential.f0": float("nan")}}, [], 2,
                 id="nan_float"),
    pytest.param("response", {"overrides": {"time_grid.t_max": float("inf")}}, [],
                 2, id="inf_float"),
    pytest.param("kernels", {"overrides": {"potential.eta": True}}, [], 2,
                 id="bool_float"),
    pytest.param("kernels", {"overrides": {"bath.gamma": "1.0"}}, [], 2,
                 id="str_float"),
    pytest.param("kernels", {"overrides": {"tolerances.djm_k_max": "7"}}, [], 2,
                 id="str_int"),
    pytest.param("kernels", {"overrides": {"bath.gamma": 10**400}}, [], 2,
                 id="huge_int_float"),
    pytest.param("kernels", {"overrides": {"time_grid.n": 10**400}}, [], 2,
                 id="huge_int_int"),
    pytest.param("mc", {"overrides": {"bath.nu": 1e-6}}, [], 2, id="mc_synthesis"),
    pytest.param("mc", {"overrides": {"mc.n_paths": 10**9}}, [], 2,
                 id="mc_path_samples"),
    pytest.param("moments", {"overrides": LONG_HORIZON}, [], 2, id="horizon"),
    # sizes past cli.MAX_NODES that numpy would refuse outright: 72.8 TiB of
    # Duffing substeps, 745 GiB of frequency or of quadrature nodes
    pytest.param("response", {"base": PARABOLIC,
                              "overrides": {"integrator.dt_sub": 1e-15}}, [], 2,
                 id="duffing_substeps"),
    pytest.param("kernels", {"base": PARABOLIC,
                             "overrides": {"freq_grid.n": 100000000001}}, [], 2,
                 id="freq_nodes"),
    pytest.param("moments", {"base": PARABOLIC,
                             "overrides": {"tolerances.quad_n": 100000000001}},
                 [], 2, id="quad_nodes"),
    pytest.param("kernels", {}, ["--out", "config.json"], 2, id="out_is_file"),
    pytest.param("kernels", {"overrides": {"bogus": {}}}, [], 2,
                 id="unknown_section"),
    pytest.param("kernels", {"overrides": {"tolerances.djm_tol_": 1e-9}}, [], 2,
                 id="unknown_key"),
    pytest.param("moments", {"base": BISTABLE, "overrides": BLOWUP}, [], 0,
                 id="moments_blowup_converges"),
    # q0^3 overflows in the first application, at every window length
    pytest.param("moments", {"base": BISTABLE, "overrides": {"initial.q0": 1e200}},
                 [], 3, id="moments_overflow"),
    # at alpha = 0 no cubic force is formed, so the mean does not overflow
    pytest.param("moments", {"base": PARABOLIC, "overrides": {"initial.q0": 1e200}},
                 [], 0, id="moments_alpha_zero_huge_q0"),
    # but chi_q q0 + chi_v v0 itself does, so f is no finite term
    pytest.param("moments", {"base": PARABOLIC, "overrides": HUGE_F}, [], 3,
                 id="moments_alpha_zero_non_finite_f"),
    pytest.param("susceptibility", {"base": BISTABLE, "overrides": BLOWUP}, [], 0,
                 id="susceptibility_blowup_converges"),
    pytest.param("response", {"overrides": QUANTUM_NU}, [], 3, id="quadrature"),
    pytest.param("response", {"base": PARABOLIC, "overrides": TINY_NU}, [], 3,
                 id="matsubara_truncation"),
    # the preparation term's explicit Matsubara terms would take 1.11 EiB at
    # gamma = 1e20 and more than numpy can index at eta = 1e50
    pytest.param("moments", {"base": PARABOLIC, "overrides": {"bath.gamma": 1e20}},
                 [], 3, id="preparation_terms_gamma"),
    pytest.param("response", {"base": PARABOLIC, "overrides": {"potential.eta": 1e50}},
                 [], 3, id="preparation_terms_eta"),
    # every chi row overflows to NaN; no CSV of them is written
    pytest.param("kernels", {"base": PARABOLIC, "overrides": {"bath.gamma": 1e200}},
                 [], 3, id="kernels_non_finite"),
    # f0^2 is inf past 1.3e154: at alpha = 0 the response's recursion makes
    # no application, so the integrator's RK4 guard stops `response`, and
    # the first psi application of `susceptibility` is not finite
    pytest.param("response", {"base": PARABOLIC, "overrides": {"potential.f0": 1e200}},
                 [], 3, id="f0_square_response"),
    pytest.param("susceptibility",
                 {"base": PARABOLIC, "overrides": {"potential.f0": 1e200}},
                 [], 3, id="f0_square_susceptibility"),
    # the tilt Dirac weight -2 pi (eps/f0)/eta is finite, but its square in
    # the first psi application is not
    pytest.param("susceptibility",
                 {"base": PARABOLIC, "overrides": {"potential.epsilon": 1e200}},
                 [], 3, id="epsilon_square_1e200"),
    pytest.param("susceptibility",
                 {"base": PARABOLIC, "overrides": {"potential.epsilon": 1e300}},
                 [], 3, id="epsilon_square_1e300"),
    # nu^2 is inf: the classical limit (test_huge_nu_is_the_classical_limit)
    pytest.param("moments", {"base": PARABOLIC, "overrides": {"bath.nu": 1e200}},
                 [], 0, id="nu_square"),
    pytest.param("mc", {"base": BISTABLE, "overrides": ESCAPED}, [], 3,
                 id="mc_no_survivors"),
    # below the resolution of the preset's thermal base velocities, where
    # v0 + f0_kick == v0 and R_hat would read 0 at every node
    pytest.param("mc", {"base": BISTABLE,
                        "overrides": {**SHORT_MC, "mc.f0_kick": 1e-100}},
                 [], 3, id="mc_kick_1e-100"),
    pytest.param("mc", {"base": BISTABLE,
                        "overrides": {**SHORT_MC, "mc.f0_kick": 1e-300}},
                 [], 3, id="mc_kick_1e-300"),
    pytest.param("mc", {"base": BISTABLE,
                        "overrides": {**SHORT_MC, "mc.f0_kick": 5e-324}},
                 [], 3, id="mc_kick_subnormal"),
    # a two-node grid has no interior node for the ODE residual
    pytest.param("response", {"base": BISTABLE, "overrides": {"time_grid.n": 2}},
                 [], 0, id="response_two_nodes"),
    pytest.param("kernels", {"base": PARABOLIC, "overrides": QUARTIC}, [], 2,
                 id="kernels_eta_zero"),
    pytest.param("susceptibility", {"base": PARABOLIC, "overrides": QUARTIC}, [],
                 2, id="susceptibility_eta_zero"),
])
def test_failure_contract(tmp_path, monkeypatch, capsys, sub, config, extra,
                          code):
    # config errors exit 2 before any file is written; numerical failures
    # exit 3 with a manifest that records the error; neither gives a traceback,
    # and a run that succeeds prints nothing
    monkeypatch.chdir(tmp_path)  # a relative --out names a file in tmp_path
    out = tmp_path / "o"
    argv = [sub, "--out", str(out), *extra]
    if config is not None:
        argv += ["--config", str(_write_config(tmp_path, **config))]
    before = _tree(tmp_path)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("config error:")
        assert _tree(tmp_path) == before
    elif code == 3:
        assert err.startswith("numerical error:")
        assert _strict_manifest(out)["diagnostics"]["error"]
    else:
        assert err == ""
        manifest = _strict_manifest(out)
        assert "error" not in manifest["diagnostics"]
        for key in ("converged", "mean_converged"):
            assert manifest["diagnostics"].get(key, True) is True


@pytest.mark.parametrize("sub,config,error,norms,count,flag", [
    ("moments", {"base": BISTABLE, "overrides": {"potential.alpha": 3}},
     "term 10 of window 1 (t in [0, 2.5])", "mean_term_norms", 10, False),
    ("response", {"base": PARABOLIC,
                  "overrides": {"potential.eta": -1, "potential.alpha": 0.3}},
     "term 8 of window 2 (t in [2.5, 5])", "window_term_norms", [11, 8],
     [True, False]),
    ("susceptibility", {"base": PARABOLIC, "overrides": {"potential.epsilon": 1e200}},
     "term 1", "term_norms", 1, False),
    ("moments", {"base": PARABOLIC, "overrides": HUGE_F},
     "term 0 of window 1 (t in [0, 15])", "mean_term_norms", 0, False),
], ids=["moments", "response", "susceptibility", "moments_term_0"])
def test_non_finite_stop_exits_3_with_its_norms(tmp_path, capsys, sub, config,
                                                error, norms, count, flag):
    # a non-finite term stops a recursion as k_max does: the manifest keeps
    # the norms of the finite terms before it (every window's, for the
    # response) and the false flag, next to the one-line error
    out = tmp_path / "o"
    argv = [sub, "--config", str(_write_config(tmp_path, **config)), "--out", str(out)]
    assert main(argv) == 3
    diag = _strict_manifest(out)["diagnostics"]
    assert diag["error"] == f"non-finite values in recursion {error}"
    assert capsys.readouterr().err == f"numerical error: {diag['error']}\n"
    kept = diag[norms]
    assert (list(map(len, kept)) if sub == "response" else len(kept)) == count
    assert diag[{"moments": "mean_converged", "response": "windows_converged",
                 "susceptibility": "converged"}[sub]] == flag


@pytest.mark.parametrize("overrides", [BLOWUP, {"potential.alpha": 0.6}],
                         ids=["blowup", "alpha_0.6"])
def test_split_susceptibility_solves_the_unsplit_equation(tmp_path, overrides):
    # where the recursion with the plateau inside psi diverges, the split one
    # converges, and its chi meets the paper's equation chi = phi + psi[chi]
    cfg = _write_config(tmp_path, base=BISTABLE, overrides=overrides)
    assert main(["susceptibility", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 0
    diag = json.loads((tmp_path / "o" / "manifest.json").read_text())["diagnostics"]
    assert diag["converged"] is True and len(diag["term_norms"]) <= 12
    assert diag["unsplit_residual"] <= 10 * BISTABLE["tolerances"]["djm_tol"]


def test_numerical_error_is_all_of_stderr(tmp_path, capsys):
    # the numpy warnings of a failing run neither reach stderr nor, turned
    # into errors, escape as an exception
    cfg = _write_config(tmp_path, base=PARABOLIC, overrides={"bath.gamma": 1e200})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["kernels", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error:") and err.count("\n") == 1


@pytest.mark.parametrize("sub", ["moments", "response", "susceptibility"])
def test_huge_nu_is_the_classical_limit(tmp_path, sub):
    # past nu = 1.3e154 the Matsubara tail's nu^2 is inf and the tail 0; at
    # nu = 1e150 it is below the last bit already: the same bytes
    outs = []
    for nu in (1e150, 1e200):
        run = tmp_path / f"nu{nu:g}"
        run.mkdir()
        cfg = _write_config(run, base=PARABOLIC, overrides={"bath.nu": nu})
        assert main([sub, "--config", str(cfg), "--out", str(run / "o")]) == 0
        outs.append(run / "o")
    names = sorted(p.name for p in outs[0].glob("*.csv"))
    assert names and names == sorted(p.name for p in outs[1].glob("*.csv"))
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


# every tolerances, integrator and mc key, each at a valid value other than
# its default
SETTINGS = {
    "tolerances": {"djm_tol": 1e-8, "djm_k_max": 70, "response_window": 3.0,
                   "quad_omega_max": 250.0, "quad_n": 5001, "quad_rtol": 2e-3,
                   "edge_tol": 2e-3, "plateau_tol": 2e-4},
    "integrator": {"dt_sub": 0.004},
    "mc": {"n_paths": 300, "seed": 7, "f0_kick": 0.05, "thermal_v0": True},
}


def test_every_setting_reaches_the_manifest(tmp_path):
    cfg = _write_config(tmp_path, overrides=SETTINGS)
    out = tmp_path / "k"
    assert main(["kernels", "--config", str(cfg), "--out", str(out)]) == 0
    effective = json.loads((out / "manifest.json").read_text())["effective"]
    assert effective == {k: v for sec in SETTINGS.values() for k, v in sec.items()}


def test_mc_records_exclusions_before_the_estimators(tmp_path):
    cfg = _write_config(tmp_path, base=BISTABLE, overrides=ESCAPED)
    out = tmp_path / "o"
    assert main(["mc", "--config", str(cfg), "--out", str(out)]) == 3
    diagnostics = json.loads((out / "manifest.json").read_text())["diagnostics"]
    # both counts come from the one pass, before the survivors are checked:
    # every path from q0 = 1000 escapes, every kick pair from q0 = 0 stays
    assert diagnostics["n_excluded"] == 50
    assert diagnostics["n_excluded_pair"] == 0
    assert "0 of 50" in diagnostics["error"]


def test_long_horizon_rejected_only_where_the_variance_runs(tmp_path):
    # kernels and mc never evaluate the variance quadrature
    cfg = _write_config(tmp_path, overrides=LONG_HORIZON)
    out = tmp_path / "k"
    assert main(["kernels", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "kernels_time.csv").exists()


def test_config_integer_too_long_to_parse_exits_2(tmp_path, capsys):
    # Python's int parser refuses more than 4300 digits
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG).replace('"gamma": 1.0', '"gamma": 1' + "0" * 5000))
    assert main(["kernels", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_mc_path_samples_cap_rejected_fast(tmp_path, capsys):
    # a billion paths would ask for a 12 TB (n_paths, n) noise array; the
    # pre-check refuses them first
    cfg = _write_config(tmp_path, base=PARABOLIC, overrides={"mc.n_paths": 10**9})
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(["mc", "--config", str(cfg), "--out", str(tmp_path / "o")])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and elapsed < 1.0 and peak < 1e6
    assert "mc.n_paths" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_mc_draws_the_noise_once(tmp_path, monkeypatch):
    # the moments ensemble and the response pair share one noise draw
    import qcle.cli
    import qcle.mc
    calls = []
    real = qcle.mc.sample_noise

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(qcle.cli, "sample_noise", counting)
    monkeypatch.setattr(qcle.mc, "sample_noise", counting)
    cfg = _write_config(tmp_path, overrides={"mc.n_paths": 50})
    assert main(["mc", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


def test_mc_frees_the_noise_before_writing(tmp_path, monkeypatch):
    # no name holds the noise past the pass, so its buffer (24 MB on the
    # preset) is not alive while the CSVs are written
    import qcle.cli
    refs, alive = [], []
    draw, write = qcle.cli.sample_noise, qcle.cli.write_csv

    def drawing(*args, **kwargs):
        noise = draw(*args, **kwargs)
        refs.extend([weakref.ref(noise), weakref.ref(noise.values)])
        return noise

    def writing(*args, **kwargs):
        alive.append([r() is not None for r in refs])
        return write(*args, **kwargs)

    monkeypatch.setattr(qcle.cli, "sample_noise", drawing)
    monkeypatch.setattr(qcle.cli, "write_csv", writing)
    cfg = _write_config(tmp_path, overrides={"mc.n_paths": 50})
    assert main(["mc", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert alive == [[False, False]] * 2


def test_mc_holds_one_trajectory_set_at_a_time(tmp_path):
    # the preset's 2000 x 1501 paths: the time-major noise is 24 MB, and the
    # one pass steps the moments ensemble and the kick pair on a ring of
    # BLOCK_ROWS + 1 = 17 rows (0.8 MB) and reduces 16-row blocks (0.26 MB
    # per temporary): 27.3 MB in all, against 30.7 MB on 65-row rings and
    # 64-row blocks; one stored trajectory set or a copy of the noise would
    # add another 24 MB. tracemalloc counts numpy's own temporaries (the FFT,
    # vecdot), so the 1 MB headroom follows numpy's allocation pattern as
    # measured on numpy 2.4.6; a failure after a numpy upgrade may be numpy's
    cfg = _write_config(tmp_path, base=BISTABLE)
    tracemalloc.start()
    try:
        assert main(["mc", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 28.3e6


def test_mc_synthesis_cap_rejected_fast(tmp_path):
    # nu = 1e-6 on the parabolic grid asks for an FFT of 2^31 points
    cfg = _write_config(tmp_path, base=PARABOLIC, overrides={"bath.nu": 1e-6})
    start = time.perf_counter()
    assert main(["mc", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - start < 0.5
    assert not (tmp_path / "o").exists()
