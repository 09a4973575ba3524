"""Tests for the command-line driver: sweeps, formats, exit codes."""

import csv
import json
import os
import subprocess
import sys
import warnings
from types import SimpleNamespace

import pytest

import qscissors
from qscissors import cli, nqs, verify
from qscissors.cli import main, parse_range


def _exit_code(argv):
    """main's exit code, whether returned or raised by argparse."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _write_config(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_parse_range():
    assert parse_range("0.5") == [0.5]
    got = parse_range("0:1:5")
    assert len(got) == 5
    assert got[0] == 0.0 and got[-1] == 1.0
    assert parse_range("2:7:1") == [2.0]
    for bad in ("a", "1:2", "1:2:3:4", "0:1:0", "0:1:x"):
        with pytest.raises(Exception):
            parse_range(bad)


def test_malformed_range_exits_2():
    with pytest.raises(SystemExit) as ei:
        main(["lqs", "--alpha", "nope"])
    assert ei.value.code == 2


def test_missing_parameter_exits_2(capsys):
    rc = main(["lqs", "--alpha", "0.5"])
    assert rc == 2
    assert "missing" in capsys.readouterr().err


def test_lqs_csv_columns_and_ppb_blank(capsys):
    rc = main(["lqs", "--alpha", "0:1:3", "--eta", "0.9",
               "--gamma-bs", "0.02", "--r-sq", "0.49"])
    assert rc == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["alpha_abs", "eta", "gamma_bs", "r_sq", "F_closed", "F_ppb"]
    assert len(rows) == 4
    assert all(r[5] == "" for r in rows[1:])  # lossy: no PPB column
    assert float(rows[1][4]) == 1.0  # alpha = 0


def test_lqs_ppb_column_when_lossless_balanced(capsys):
    rc = main(["lqs", "--alpha", "0.5:1:2", "--eta", "0.8",
               "--gamma-bs", "0", "--r-sq", "0.5"])
    assert rc == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    for r in rows[1:]:
        assert r[5] != ""
        assert float(r[4]) == pytest.approx(float(r[5]), abs=1e-14)


def test_lqs_json_meta(capsys):
    rc = main(["lqs", "--alpha", "0.3", "--eta", "1", "--gamma-bs", "0",
               "--r-sq", "0.5", "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["meta"]["command"] == "lqs"
    assert doc["meta"]["swept_axis"] == "alpha"
    assert "version" in doc["meta"]
    assert "timestamp" not in doc["meta"]
    assert doc["rows"][0]["alpha_abs"] == 0.3


def test_lqs_multi_axis_needs_out(tmp_path, capsys):
    args = ["lqs", "--alpha", "0:1:3", "--eta", "0.5:1:2",
            "--gamma-bs", "0", "--r-sq", "0.5"]
    assert main(args) == 2
    assert "--out" in capsys.readouterr().err
    out = tmp_path / "sweep.csv"
    assert main(args + ["--out", str(out)]) == 0
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["sweep_eta0.5.csv", "sweep_eta1.csv"]
    for f in files:
        rows = _read_csv(tmp_path / f)
        assert len(rows) == 4  # header + swept alpha axis


def test_lqs_file_tags_keep_fifteen_digits(tmp_path):
    # values equal to six significant digits still get one file each
    args = ["lqs", "--alpha", "0:1:3", "--eta", "0.9", "--gamma-bs", "0",
            "--r-sq", "0.1234561:0.1234562:2", "--out", str(tmp_path / "o.csv")]
    assert main(args) == 0
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["o_r_sq0.1234561.csv", "o_r_sq0.1234562.csv"]


def test_lqs_colliding_file_tags_exit_2(tmp_path, capsys):
    # a repeated value would write one path twice: refuse before writing
    args = ["lqs", "--alpha", "0:1:3", "--eta", "0.9", "--gamma-bs", "0",
            "--r-sq", "0.3:0.3:2", "--out", str(tmp_path / "o.csv")]
    assert main(args) == 2
    assert "o_r_sq0.3.csv" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_removed_flags_exit_2(tmp_path, capsys):
    # each subcommand takes only the options it reads; nqs takes the damping
    # only as --lambda, not as the raw --kappa and --gamma
    lqs = ["lqs", "--alpha", "0.5", "--eta", "1", "--gamma-bs", "0", "--r-sq", "0.5"]
    nqs = ["nqs", "--epsilon", "0.1", "--kicks", "1", "--cutoff", "8"]
    for argv in (lqs + ["--jobs", "2"], lqs + ["--seed", "3"], nqs + ["--jobs", "2"],
                 nqs + ["--seed", "3"], ["verify", "--suite", "lqs-ppb", "--jobs", "1"],
                 nqs + ["--kappa", "2"], nqs + ["--gamma", "0.04"]):
        assert _exit_code(argv) == 2
        err = capsys.readouterr()
        assert "unrecognized arguments" in err.err and err.out == ""
    for key in ("kappa", "gamma"):
        doc = {"epsilon": 0.1, "kicks": 1, "cutoff": 8, key: 2.0}
        assert _exit_code(["nqs", "--config", _write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr()
        assert f"unknown key {key!r}" in err.err and err.out == ""


_NQS_ZERO_T = ["nqs", "--epsilon", "0.1", "--lambda", "0.01", "--kicks", "5", "--cutoff", "20"]
_NQS_THERMAL = ["nqs", "--epsilon", "0.1", "--lambda", "0.05", "--nbar", "0.2", "--kicks", "5",
                "--cutoff", "20"]


@pytest.mark.parametrize("args", [
    pytest.param(["lqs", "--alpha", "0:2:9", "--eta", "0.9", "--gamma-bs", "0.02",
                  "--r-sq", "0.49"], id="lqs"),
    pytest.param(_NQS_ZERO_T, id="nqs-zero-T-csv"),
    pytest.param(_NQS_ZERO_T + ["--format", "json"], id="nqs-zero-T-json"),
    pytest.param(_NQS_THERMAL, id="nqs-thermal-csv"),
    pytest.param(_NQS_THERMAL + ["--format", "json"], id="nqs-thermal-json"),
    pytest.param(["verify", "--suite", "lqs-gram"], id="verify-csv"),
    pytest.param(["verify", "--suite", "nqs-rk4", "--format", "json"], id="verify-json"),
])
def test_byte_identical_reruns(tmp_path, args):
    a, b = tmp_path / "a.out", tmp_path / "b.out"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_nqs_trajectory_columns(capsys):
    rc = main(["nqs", "--epsilon", "0.1", "--lambda", "0.01",
               "--kicks", "3", "--cutoff", "15"])
    assert rc == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["kick_index", "tau", "fidelity", "trace", "purity",
                       "mean_n", "rho_00", "re_rho_01", "im_rho_01", "rho_11"]
    assert len(rows) == 1 + 7  # header + 2K+1 records
    assert float(rows[1][2]) == 1.0


def test_nqs_zero_kicks_single_row(capsys):
    rc = main(["nqs", "--epsilon", "0.1", "--kicks", "0", "--cutoff", "8"])
    assert rc == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 2


def test_nqs_cutoff_error_exits_1(capsys):
    with pytest.warns(UserWarning):  # small thermal cutoff warns before failing
        rc = main(["nqs", "--epsilon", "0.1", "--lambda", "1", "--nbar", "2",
                   "--kicks", "2", "--cutoff", "1"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 47.8 PiB for an array with shape (2000000000001, 41, 41) "
     "and data type complex128", "error: Unable to allocate 47.8 PiB"),
    ("", "error: MemoryError"),
])
def test_memory_error_exits_1(monkeypatch, capsys, message, line):
    # a trajectory too long to hold is a numerical failure with one error
    # line; the refusal is simulated, so nothing large is allocated
    def refuse(p, initial=None):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "evolve_kicked", refuse)
    rc = main(["nqs", "--epsilon", "0.1", "--kicks", "1000000000000", "--cutoff", "40"])
    assert rc == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(line) and out.err.count("\n") == 1


def test_config_file_with_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": "0:1:3", "eta": 0.9, "gamma-bs": 0.02,
                               "r-sq": 0.49, "format": "json"}))
    rc = main(["lqs", "--config", str(cfg), "--eta", "0.7"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"][0]["eta"] == 0.7  # explicit flag beats config
    assert len(doc["rows"]) == 3


def test_config_file_missing_exits_2(capsys):
    rc = main(["lqs", "--config", "/no/such/file.json", "--alpha", "0.5",
               "--eta", "1", "--gamma-bs", "0", "--r-sq", "0.5"])
    assert rc == 2


@pytest.mark.parametrize("sub, doc", [
    ("nqs", {"epsilon": 0.1, "kicks": 2.5, "cutoff": 5}),  # bad type
    ("nqs", {"epsilon": "x", "kicks": 2, "cutoff": 5}),
    ("nqs", [1, 2]),  # top level not an object
    ("lqs", "{not json"),
    ("lqs", {"alhpa": "0:1:3", "format": "xml"}),  # unknown key
    ("lqs", {"alpha": "0:1:3", "eta": 1, "gamma-bs": 0, "r-sq": 0.5, "format": "xml"}),
    ("nqs", {"epsilon": 0.1, "kicks": 1, "cutoff": 8, "lam": 0.1}),  # old alias
    ("lqs", {"alpha": "0:1:3", "eta": 1, "gamma-bs": 0, "r-sq": 0.5, "fmt": "json"}),
    # complete configs that a prefix match or an ignored key would let run
    ("lqs", {"alpha": "0:1:3", "eta": 1, "gamma": 0, "r-sq": 0.5}),
    ("lqs", {"alpha": "0:1:3", "eta": 1, "gamma-bs": 0, "r-sq": 0.5, "seed": 3}),
    ("lqs", {"alpha": "0:1:3", "eta": 1, "gamma-bs": 0, "r-sq": 0.5, "config": "o.json"}),
    ("lqs", {"eta": [0.5, 1]}),  # non-scalar values
    ("lqs", {"eta": {"value": 1}}),
    ("lqs", {"eta": None}),
    ("lqs", {"eta": True}),
])
def test_config_defects_exit_2(tmp_path, capsys, sub, doc):
    argv = [sub, "--config", _write_config(tmp_path, doc)]
    assert _exit_code(argv) == 2
    err = capsys.readouterr()
    assert err.out == ""
    assert "error:" in err.err and "Traceback" not in err.err


@pytest.mark.parametrize("doc, flags", [
    ({"alpha": "0:2:21", "eta": 0.85, "gamma_bs": 0, "r-sq": 0.5},
     ["lqs", "--alpha", "0:2:21", "--eta", "0.85", "--gamma-bs", "0", "--r-sq", "0.5"]),
    ({"alpha": -0.7, "eta": 0.123456789012345678, "gamma-bs": 0.02, "r_sq": 0.49,
      "format": "json"},
     ["lqs", "--alpha", "-0.7", "--eta", repr(0.123456789012345678), "--gamma-bs", "0.02",
      "--r-sq", "0.49", "--format", "json"]),
    ({"epsilon": 0.1, "lambda": 0.01, "kicks": 3, "cutoff": 15, "format": "json"},
     ["nqs", "--epsilon", "0.1", "--lambda", "0.01", "--kicks", "3", "--cutoff", "15",
      "--format", "json"]),
    # a string value parses exactly as the flag would
    ({"epsilon": "0.1", "lambda": "0.02", "tau_k": 1.5, "kicks": "2", "cutoff": 10},
     ["nqs", "--epsilon", "0.1", "--lambda", "0.02", "--tau-k", "1.5",
      "--kicks", "2", "--cutoff", "10"]),
    ({"suite": "lqs-ppb", "seed": 7, "format": "json"},
     ["verify", "--suite", "lqs-ppb", "--seed", "7", "--format", "json"]),
])
def test_config_output_matches_flags(tmp_path, capsys, doc, flags):
    assert main(flags) == 0
    want = capsys.readouterr().out
    assert main([flags[0], "--config", _write_config(tmp_path, doc)]) == 0
    assert capsys.readouterr().out == want


def test_out_unwritable_exits_2(tmp_path, capsys):
    base = ["lqs", "--alpha", "0.5", "--eta", "1", "--gamma-bs", "0", "--r-sq", "0.5"]
    for out in (tmp_path, tmp_path / "no" / "such.csv"):
        assert main(base + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write --out") and err.count("\n") == 1
    assert main(["verify", "--suite", "lqs-ppb", "--out", str(tmp_path)]) == 2


def test_abbreviated_flags_exit_2(capsys):
    # --gamma must not stand for --gamma-bs, nor --r for --r-sq
    full = ["lqs", "--alpha", "1", "--eta", "0.9", "--gamma-bs", "0.02", "--r-sq", "0.49"]
    assert _exit_code(full) == 0
    capsys.readouterr()
    for i, abbrev in ((5, "--gamma"), (7, "--r")):
        argv = list(full)
        argv[i] = abbrev
        assert _exit_code(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert _exit_code(["--vers"]) == 2


def test_verify_unwritable_out_checked_before_suites(tmp_path, monkeypatch, capsys):
    def suite(seed):
        raise AssertionError("suites ran before --out was checked")

    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name, suite)
    assert main(["verify", "--suite", "lqs-ppb", "--out", str(tmp_path)]) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error: cannot write --out") and "PASS" not in out.err


def test_multi_axis_lqs_unwritable_path_writes_nothing(tmp_path, capsys):
    (tmp_path / "o_eta0.9.csv").mkdir()
    argv = ["lqs", "--alpha", "0:1:3", "--eta", "0.8:0.9:2", "--gamma-bs", "0",
            "--r-sq", "0.5", "--out", str(tmp_path / "o.csv")]
    assert main(argv) == 2
    assert "o_eta0.9.csv" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o_eta0.9.csv"]
    (tmp_path / "o_eta0.9.csv").rmdir()
    assert main(argv) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o_eta0.8.csv", "o_eta0.9.csv"]


_LQS = ["lqs", "--alpha", "1", "--eta", "0.9"]
_NQS = ["nqs", "--epsilon", "0.1", "--kicks", "2", "--cutoff", "10"]


@pytest.mark.parametrize("argv, field", [
    (_LQS + ["--gamma-bs", "0", "--r-sq", "-0.25"], "--r-sq"),
    (_LQS + ["--gamma-bs", "0.6", "--r-sq", "0.6"], "gamma_bs"),
    (_LQS + ["--gamma-bs", "0", "--r-sq", "1.5"], "--r-sq"),
    (_LQS + ["--gamma-bs", "0", "--r-sq", "nan"], "--r-sq"),
    (_LQS + ["--gamma-bs", "nan", "--r-sq", "0.5"], "gamma_bs"),
    (["lqs", "--alpha", "nan", "--eta", "0.9", "--gamma-bs", "0", "--r-sq", "0.5"], "alpha"),
    (["lqs", "--alpha", "inf", "--eta", "0.9", "--gamma-bs", "0", "--r-sq", "0.5"], "alpha"),
    (["lqs", "--alpha", "1", "--eta", "nan", "--gamma-bs", "0", "--r-sq", "0.5"], "eta"),
    (["lqs", "--alpha", "1", "--eta", "1", "--gamma-bs", "0", "--r-sq", "1"], "heralding"),
    (["nqs", "--epsilon", "nan", "--kicks", "2", "--cutoff", "10"], "epsilon"),
    (_NQS + ["--lambda", "nan"], "lambda"),
    (_NQS + ["--lambda", "inf"], "lambda"),
    (_NQS + ["--nbar", "nan"], "nbar"),
    (_NQS + ["--tau-k", "inf"], "tau_k"),
    (_LQS + ["--gamma-bs", "0.1", "--r-sq", "0"], "r_mag = 0"),
    (["lqs", "--alpha", "0:1:3", "--eta", "1", "--gamma-bs", "0.3", "--r-sq", "0.7"],
     "F is undefined: the heralding event has probability zero"),
    (["lqs", "--alpha", "1e200", "--eta", "0.9", "--gamma-bs", "0.1", "--r-sq", "0.5"], "alpha"),
])
def test_out_of_domain_inputs_exit_2(capsys, argv, field):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _exit_code(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert field in out.err
    assert caught == []


_ONE_KICK = ["nqs", "--kicks", "1", "--cutoff", "20"]


@pytest.mark.parametrize("argv, message", [
    pytest.param(_ONE_KICK + ["--epsilon", "10"], "kick: trace drifted", id="argv0-kick"),
    pytest.param(_NQS + ["--lambda", "0.1", "--nbar", "1e10"], "thermal step: trace drifted",
                 id="argv1-thermal step"),
    pytest.param(_NQS + ["--lambda", "0.1", "--nbar", "1e160"], "thermal step: trace drifted",
                 id="argv2-thermal step"),
    pytest.param(_ONE_KICK + ["--epsilon", "0.1", "--lambda", "1e-200", "--nbar", "0.1"],
                 "thermal propagator family at lambda=1e-200", id="tiny-lambda"),
    pytest.param(_ONE_KICK + ["--epsilon", "0.1", "--lambda", "1e300", "--nbar", "0.1"],
                 "thermal propagator family at lambda=1e+300", id="huge-lambda"),
    pytest.param(_ONE_KICK + ["--epsilon", "1e10"], "kick matrix at epsilon=1e+10",
                 id="huge-epsilon"),
])
def test_trace_loss_exits_1(capsys, argv, message):
    # a kick or a thermal step that pushes the state past the cutoff, or a
    # propagator family or kick matrix with a non-finite entry, is a
    # numerical failure with one error line: never a usage error, a
    # traceback, a RuntimeWarning or a nan
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _exit_code(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: {message}") and out.err.count("\n") == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("gamma_bs, r_sq", [("0.1", "0.9"), ("0.3", "0.7")])
def test_zero_transmission_herald_exits_2_without_table(tmp_path, capsys, gamma_bs, r_sq):
    # r^2 + Gamma = 1 leaves t = 0, exactly or within rounding of the
    # subtraction; the alpha = 0 row's herald has probability zero either way
    argv = ["lqs", "--alpha", "0:1:3", "--eta", "1", "--gamma-bs", gamma_bs,
            "--r-sq", r_sq, "--out", str(tmp_path / "o.csv")]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: F is undefined: the heralding event has probability zero")
    assert list(tmp_path.iterdir()) == []


def test_lqs_bad_point_writes_no_table(tmp_path, capsys):
    # the (gamma_bs 0.9, r_sq 0.3) table is invalid; the tables before it
    # must not be written either
    argv = ["lqs", "--alpha", "0:1:3", "--eta", "0.9", "--gamma-bs", "0:0.9:2",
            "--r-sq", "0.3:0.5:2", "--out", str(tmp_path / "o.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: r_mag^2 + Gamma")
    assert list(tmp_path.iterdir()) == []


def test_verify_single_suite_exit_0(capsys):
    rc = main(["verify", "--suite", "lqs-ppb"])
    assert rc == 0
    out = capsys.readouterr()
    rows = list(csv.reader(out.out.splitlines()))
    assert rows[0] == ["suite", "passed", "max_dev", "tolerance", "detail"]
    assert rows[1][0] == "lqs-ppb" and rows[1][1] == "true"
    assert "PASS" in out.err


@pytest.mark.parametrize("suite", ["lqs-ppb", "lqs-identity"])
def test_verify_negative_seed_exits_2(tmp_path, capsys, suite):
    for argv in (["verify", "--suite", suite, "--seed", "-1"],
                 ["verify", "--config", _write_config(tmp_path, {"suite": suite, "seed": -1})]):
        assert _exit_code(argv) == 2
        err = capsys.readouterr().err
        assert "argument --seed" in err and "non-negative" in err


def test_verify_row_reports_worst_subcheck(monkeypatch, capsys):
    # the nbar=0 chain (tolerance 1e-12) fails while the lambda->0 chain
    # (tolerance 1e-8) passes: the row must report the failing sub-check
    thermal = nqs.analytic_damped_step_thermal
    monkeypatch.setattr(nqs, "analytic_damped_step_thermal",
                        lambda *a: SimpleNamespace(elements=thermal(*a).elements + 1e-10))
    assert main(["verify", "--suite", "nqs-limits", "--format", "json"]) == 1
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert row["passed"] is False
    assert row["max_dev"] >= row["tolerance"] == 1e-12


def test_verify_unknown_suite_exit_2(capsys):
    assert _exit_code(["verify", "--suite", "bogus"]) == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_csv_uses_crlf(tmp_path):
    out = tmp_path / "t.csv"
    main(["lqs", "--alpha", "0.5", "--eta", "1", "--gamma-bs", "0",
          "--r-sq", "0.5", "--out", str(out)])
    assert b"\r\n" in out.read_bytes()


def test_csv_fifteen_significant_digits(capsys):
    main(["lqs", "--alpha", "1", "--eta", "0.9", "--gamma-bs", "0.02",
          "--r-sq", "0.49"])
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[1][4] == "0.963216804371254"


def test_lqs_half_efficiency_benchmark_point(capsys):
    # lossless 50/50 scissors at |alpha| = 1, eta = 0.5 gives exactly 0.9
    rc = main(["lqs", "--alpha", "1", "--eta", "0.5", "--gamma-bs", "0",
               "--r-sq", "0.5"])
    assert rc == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert abs(float(rows[1][4]) - 0.9) < 1e-12
    assert abs(float(rows[1][5]) - 0.9) < 1e-12  # PPB column agrees


def test_nqs_negative_epsilon_exits_2(capsys):
    rc = main(["nqs", "--epsilon", "-0.1", "--kicks", "1", "--cutoff", "10"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_lqs_invalid_loss_names_constraint(capsys):
    rc = main(["lqs", "--alpha", "1", "--eta", "0.5", "--gamma-bs", "-0.1",
               "--r-sq", "0.5"])
    assert rc == 2
    assert "Gamma" in capsys.readouterr().err


def test_nqs_lossless_single_kick_fidelity(capsys):
    rc = main(["nqs", "--epsilon", "0.1", "--kicks", "1", "--cutoff", "15"])
    assert rc == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    want = 0.9999502223009453  # e^{-eps^2} (cos eps + eps sin eps)^2
    assert abs(float(rows[2][2]) - want) < 1e-9
    # lossless free evolution leaves the qubit block alone
    assert abs(float(rows[3][2]) - want) < 1e-9


def test_import_defers_scipy():
    # lqs and nqs runs never need expm or the physical constants, so a fresh
    # interpreter must not pay for scipy.linalg or scipy.constants; RK4
    # integration is numpy-only and must not load them either
    src = os.path.dirname(os.path.dirname(qscissors.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    code = ("import sys, numpy as np, qscissors, qscissors.cli\n"
            "from qscissors.lindblad import integrate\n"
            "from qscissors.nqs import NqsParams\n"
            "integrate(np.diag([0.5, 0.5, 0.0]).astype(complex), 0.1,\n"
            "          NqsParams(epsilon=0.1, kicks=1, cutoff=2, lam=0.2, nbar=0.1))\n"
            "print(sorted(m for m in ('scipy.linalg', 'scipy.constants') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"
