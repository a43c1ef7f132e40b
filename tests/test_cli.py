"""Command line front end: configs, outputs, exit codes, determinism."""

import csv
import hashlib
import json
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from qcle.cli import CSV_BLOCK, NonFiniteOutputError, main, write_csv

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


def test_write_csv_memory_is_bounded(tmp_path):
    # formatted block by block: the writer holds no table-sized text
    t = np.linspace(0.0, 1.0, 200_001)
    columns = [t, np.sin(t), np.cos(t) * 1e-30, np.zeros_like(t)]
    tracemalloc.start()
    try:
        write_csv(tmp_path / "big.csv", ["t", "a", "b", "c"], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


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


def test_nonconvergence_exits_3_with_manifest(tmp_path):
    cfg = _write_config(tmp_path, overrides={
        "potential.alpha": 0.3,
        "tolerances.djm_k_max": 2,
        "tolerances.djm_tol": 1e-12,
        "tolerances.response_window": 10.0,
    })
    out = tmp_path / "o"
    assert main(["response", "--config", str(cfg), "--out", str(out)]) == 3
    m = json.loads((out / "manifest.json").read_text())
    assert m["diagnostics"]["windows_converged"][0] is False
    assert m["diagnostics"]["window_term_norms"]


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
# the pure quartic well: chi_tilde is singular at the omega = 0 node
QUARTIC = {"potential.eta": 0.0, "potential.alpha": 0.3}


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
    # f0^2 is inf past 1.3e154, so the first recursion term is not finite
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
        assert json.loads((out / "manifest.json").read_text())["diagnostics"]["error"]
    else:
        assert err == ""
        manifest = json.loads((out / "manifest.json").read_text())
        assert "error" not in manifest["diagnostics"]
        for key in ("converged", "mean_converged"):
            assert manifest["diagnostics"].get(key, True) is True


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


def test_mc_holds_one_trajectory_set_at_a_time(tmp_path):
    # the preset's 2000 x 1501 paths: the time-major noise is 24 MB, and the
    # one pass steps the moments ensemble and the kick pair on a ring of
    # BLOCK_ROWS + 1 rows (3 MB); one stored trajectory set or a copy of the
    # noise would add another 24 MB
    cfg = _write_config(tmp_path, base=BISTABLE)
    tracemalloc.start()
    try:
        assert main(["mc", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40e6


def test_mc_synthesis_cap_rejected_fast(tmp_path):
    # nu = 1e-6 on the parabolic grid asks for an FFT of 2^31 points
    cfg = _write_config(tmp_path, base=PARABOLIC, overrides={"bath.nu": 1e-6})
    start = time.perf_counter()
    assert main(["mc", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - start < 0.5
    assert not (tmp_path / "o").exists()
