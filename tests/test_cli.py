"""Tests for the command-line driver: sweeps, formats, exit codes."""

import contextlib
import csv
import io
import itertools
import json
import os
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qscissors
from qscissors import cli, lqs, nqs, verify
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


def test_lqs_file_tags_go_before_the_extension_of_the_file_name(tmp_path):
    # a dot in a directory name is not the file's extension
    (tmp_path / "run.v2").mkdir()
    args = ["lqs", "--alpha", "0:1:3", "--eta", "0.9", "--gamma-bs", "0:0.1:2",
            "--r-sq", "0.5", "--out", str(tmp_path / "run.v2" / "sweep")]
    assert main(args) == 0
    assert sorted(p.name for p in (tmp_path / "run.v2").iterdir()) == [
        "sweep_gamma_bs0", "sweep_gamma_bs0.1"]


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

    monkeypatch.setattr(cli, "_trajectory", refuse)
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


def test_calls_in_one_process_match_fresh_interpreters(tmp_path, capsys):
    # the parser is built once and reused: successive main calls, a usage
    # error and a --config call among them, must each print exactly what
    # the same command prints in a fresh interpreter
    cfg = _write_config(tmp_path, {"alpha": "0:1:3", "eta": 0.9, "gamma-bs": 0.02})
    calls = [
        ["lqs", "--alpha", "0:2:5", "--eta", "0.8", "--gamma-bs", "0.02", "--r-sq", "0.49"],
        ["nqs", "--epsilon", "0.1", "--lambda", "0.01", "--kicks", "3", "--cutoff", "15",
         "--format", "json"],
        ["verify", "--suite", "lqs-ppb", "--seed", "7"],
        ["lqs", "--alpha", "1", "--eta", "0.9", "--gamma", "0.02", "--r-sq", "0.49"],
        ["lqs", "--config", cfg, "--r-sq", "0.5", "--format", "json"],
        ["verify", "--suite", "no-such-suite"],
        ["nqs", "--config", cfg],
    ]
    src = os.path.dirname(os.path.dirname(qscissors.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    for argv in calls:
        rc = _exit_code(argv)
        got = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "qscissors.cli", *argv], env=env,
                               capture_output=True, timeout=60)  # bytes: CSV ends rows in \r\n
        assert ((rc, got.out.encode(), got.err.encode())
                == (fresh.returncode, fresh.stdout, fresh.stderr)), argv


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
    (_LQS + ["--gamma-bs", "0", "--r-sq", "-0.25"], "r_sq"),
    (_LQS + ["--gamma-bs", "0.6", "--r-sq", "0.6"], "gamma_bs"),
    (_LQS + ["--gamma-bs", "0", "--r-sq", "1.5"], "r_sq"),
    (_LQS + ["--gamma-bs", "0", "--r-sq", "nan"], "r_sq"),
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
    (_LQS + ["--gamma-bs", "0.1", "--r-sq", "-0"], "r_mag = 0,"),
    (["nqs", "--epsilon", "0.1", "--kicks", "2"], "missing required nqs parameter(s): cutoff"),
    # the first failing point is reported by its first failing check: point 0
    # fails r_mag^2 + Gamma before point 1 fails the r^2 range, and vice versa
    (_LQS + ["--gamma-bs", "0.6", "--r-sq", "0.5:1.5:2"], "= 1.1 exceeds 1"),
    (_LQS + ["--gamma-bs", "0.6", "--r-sq", "1.5:0.5:2"], "r_sq must lie in [0, 1], got 1.5"),
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


@pytest.mark.parametrize("lam", ["1e-150", "1e-153", "1e-200", "1e-300"])
def test_tiny_lambda_thermal_run_exits_0(capsys, lam):
    # (x/lambda)^2 is past the float range below lambda of about
    # cutoff/1.3e154; the run must still succeed, and with so weak a
    # coupling it is the lossless run to rounding
    tables = []
    for argv in (["--lambda", lam, "--nbar", "0.1"], ["--lambda", "0"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["nqs", "--epsilon", "0.1", "--kicks", "3", "--cutoff", "20"] + argv) == 0
        assert caught == []
        tables.append(np.array([row for row in csv.reader(
            capsys.readouterr().out.splitlines()[1:])], dtype=float))
    assert np.all(np.isfinite(tables[0]))
    assert np.max(np.abs(tables[0] - tables[1])) < 1e-14


def test_lqs_tiny_eta_and_reflection_exit_0(capsys):
    # eta r^2 = 1e-400, or |alpha|^2 = 1e-340 at t = 0, is below the float
    # range, but the herald's probability is not zero: F is defined, and it
    # is 1 - 1e-200/4 at Gamma = 0 and 1 - 1e-340 at t = 0
    for argv in (["lqs", "--alpha", "1", "--eta", "1e-200", "--gamma-bs", "0", "--r-sq", "1e-200"],
                 ["lqs", "--alpha", "1e-170", "--eta", "1", "--gamma-bs", "0.3", "--r-sq", "0.7"]):
        assert main(argv) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[1][rows[0].index("F_closed")] == "1"


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


@pytest.mark.parametrize("seed", ["1257", "0", "7", "101"])
def test_verify_gram_passes_at_seed(capsys, seed):
    # seed 1257 draws N near 3e2, where a Gram oracle good to 5e-13 relative failed
    assert main(["verify", "--suite", "lqs-gram", "--seed", seed]) == 0
    assert capsys.readouterr().err.startswith("PASS lqs-gram")


@pytest.mark.parametrize("suite", ["lqs-ppb", "lqs-identity"])
def test_verify_negative_seed_exits_2(tmp_path, capsys, suite):
    for argv in (["verify", "--suite", suite, "--seed", "-1"],
                 ["verify", "--config", _write_config(tmp_path, {"suite": suite, "seed": -1})]):
        assert _exit_code(argv) == 2
        err = capsys.readouterr().err
        assert "argument --seed" in err and "non-negative" in err


def test_verify_row_reports_worst_subcheck(monkeypatch, capsys):
    # the nbar=0 chain (tolerance 1e-12) fails while the lambda->0 chain
    # (tolerance 3e-11) passes: the row must report the failing sub-check
    thermal = nqs.analytic_damped_step_thermal
    monkeypatch.setattr(nqs, "analytic_damped_step_thermal",
                        lambda *a: SimpleNamespace(elements=thermal(*a).elements + 1e-10))
    assert main(["verify", "--suite", "nqs-limits", "--format", "json"]) == 1
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert row["passed"] is False
    assert row["max_dev"] >= row["tolerance"] == 1e-12


def test_verify_row_nan_deviation_fails():
    row = verify._row("s", [("a", [0.0, np.nan], 1e-12), ("b", [1e-9], 1e-8)])
    assert row["passed"] is False and np.isnan(row["max_dev"]) and row["tolerance"] == 1e-12


def test_verify_row_worst_ratio_and_detail():
    # b deviates more, but a is nearer its tolerance (ratio 0.3 against 0.2)
    row = verify._row("s", [("a", [1e-13, 3e-13], 1e-12), ("b", [2e-9], 1e-8)])
    assert row == {"suite": "s", "passed": True, "max_dev": 3e-13, "tolerance": 1e-12,
                   "detail": "a 3.00e-13 (tol 1e-12), b 2.00e-09 (tol 1e-08)"}
    assert verify._row("s", [("lone check", [3.0, 1.0], 2.0)]) == {
        "suite": "s", "passed": False, "max_dev": 3.0, "tolerance": 2.0, "detail": "lone check"}


def _ratio(dev, tol):
    return np.inf if np.isnan(dev) else dev / tol


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.lists(st.floats(min_value=0.0) | st.just(np.nan), min_size=1,
                                   max_size=3),
                          st.floats(min_value=1e-300, max_value=1e300)),
                min_size=1, max_size=4))
def test_verify_row_passes_only_if_every_subcheck_passes(checks):
    row = verify._row("s", [(f"check{i}", devs, tol) for i, (devs, tol) in enumerate(checks)])
    worst = [(float(np.max(devs)), tol) for devs, tol in checks]
    assert row["passed"] == (row["max_dev"] < row["tolerance"])
    assert row["passed"] == all(dev < tol for dev, tol in worst)
    assert _ratio(row["max_dev"], row["tolerance"]) == max(_ratio(*w) for w in worst)
    if len(checks) > 1:
        assert row["detail"].split(", ") == [f"check{i} {dev:.2e} (tol {tol:.0e})"
                                             for i, (dev, tol) in enumerate(worst)]


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


def test_import_defers_scipy(tmp_path):
    # the package is numpy-only: importing it, RK4 integration, the
    # three-mode projection oracle and every qscissors verify suite must
    # leave no scipy module loaded in a fresh interpreter
    src = os.path.dirname(os.path.dirname(qscissors.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    code = ("import sys, numpy as np, qscissors, qscissors.cli\n"
            "from qscissors.lindblad import integrate\n"
            "from qscissors.lqs import lqs_projection_oracle\n"
            "from qscissors.nqs import NqsParams\n"
            "integrate(np.diag([0.5, 0.5, 0.0]).astype(complex), 0.1,\n"
            "          NqsParams(epsilon=0.1, kicks=1, cutoff=2, lam=0.2, nbar=0.1))\n"
            "lqs_projection_oracle(0.5, 0.6, 0.8j, 12)\n"
            "assert qscissors.cli.main(['verify', '--out', sys.argv[1]]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "verify.csv")],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


_FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, 2.5e-310, 1e300, -1e300]))
_CELLS = st.one_of(st.none(), st.booleans(), st.integers(-10**6, 10**6), _FLOATS,
                   st.text(alphabet=st.sampled_from(list('ab ,"\'\n\r;%é€😀')), max_size=6))


@st.composite
def _tables(draw):
    """{name: column}: lists of mixed cells, and float arrays (fixed
    parameters repeat one value), the shapes the subcommands emit."""
    names = draw(st.lists(st.text(max_size=5), min_size=1, max_size=5, unique=True))
    n = draw(st.integers(0, 6))
    columns = {}
    for name in names:
        kind = draw(st.sampled_from(["cells", "floats", "fixed"]))
        if kind == "cells":
            columns[name] = draw(st.lists(_CELLS, min_size=n, max_size=n))
        else:
            size = 1 if kind == "fixed" else n
            values = np.array(draw(st.lists(_FLOATS, min_size=size, max_size=size)), dtype=float)
            columns[name] = np.broadcast_to(values, n) if kind == "fixed" else values
    return columns


def _stdlib_cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return f"{v:.15g}" if isinstance(v, float) else str(v)


@settings(max_examples=300, deadline=None)
# the corners of csv.writer's quoting: a line holding one empty field is
# written "", and a lone comma or quote is quoted like any other
@example(columns={"a": [None]}, meta={})
@example(columns={"a": [""]}, meta={})
@example(columns={"a": [","]}, meta={})
@example(columns={"a": ['"']}, meta={})
@example(columns={"": []}, meta={})
@example(columns={'q"': [1.0], "c,d": ["x"], "l\nf": [None], "r\r": [True]}, meta={})
@given(columns=_tables(), meta=st.dictionaries(st.text(max_size=4), st.one_of(
    _FLOATS, st.text(max_size=4), st.lists(st.text(max_size=3), max_size=3)), max_size=3))
def test_emit_writes_what_the_stdlib_writes(columns, meta):
    rows = list(zip(*(v.tolist() if isinstance(v, np.ndarray) else v for v in columns.values())))
    want_json = json.dumps({"meta": meta, "rows": [dict(zip(columns, r)) for r in rows]},
                           indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(columns)
    w.writerows([_stdlib_cell(v) for v in r] for r in rows)
    for fmt, want in (("json", want_json), ("csv", buf.getvalue())):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit(columns, fmt, meta, None)
        assert out.getvalue() == want


def _stdlib_table(columns, fmt, meta):
    """One table as json.dumps or csv.writer writes it, from numpy columns."""
    rows = list(zip(*(v.tolist() for v in columns.values())))
    if fmt == "json":
        return json.dumps({"meta": meta, "rows": [dict(zip(columns, r)) for r in rows]},
                          indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    csv.writer(buf).writerows([list(columns), *([_stdlib_cell(v) for v in r] for r in rows)])
    return buf.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("flags, files", [
    ({"alpha": "-1:1:7", "eta": "0.3:1:3", "gamma_bs": "0:0.2:2", "r_sq": "0.2:0.49:3"}, 18),
    ({"alpha": "-0:2:5", "eta": "0.9", "gamma_bs": "0:0.1:2", "r_sq": "0.5:0.3:2"}, 4),
])
def test_lqs_tables_equal_the_stdlib_rendering(tmp_path, flags, files, fmt):
    # every file of a multi-table sweep, meta with its shared axes included,
    # is what json.dumps or csv.writer writes for one sweep call per table
    argv = ["lqs", *(f"--{k.replace('_', '-')}={v}" for k, v in flags.items()),
            "--format", fmt, "--out", str(tmp_path / f"t.{fmt}")]
    assert main(argv) == 0
    axes = {k: parse_range(v) for k, v in flags.items()}
    extra = [k for k in ("eta", "gamma_bs", "r_sq") if len(axes[k]) > 1]
    want = {}
    for combo in itertools.product(*(axes[k] for k in extra)):
        fixed = dict(zip(extra, combo))
        columns = lqs.sweep(*(np.array(v) if k == "alpha" else fixed.get(k, v[0])
                              for k, v in axes.items()))
        meta = {"command": "lqs", "version": qscissors.__version__, "format": fmt,
                "swept_axis": "alpha",
                "axes": {k: [f"{v:.15g}" for v in vs] for k, vs in axes.items()},
                "fixed": {k: f"{v:.15g}" for k, v in fixed.items()}}
        tag = "_".join(f"{k}{v:.15g}" for k, v in fixed.items())
        want[f"t_{tag}.{fmt}"] = _stdlib_table(columns, fmt, meta)
    assert len(want) == files
    assert {p.name: p.read_bytes().decode() for p in tmp_path.iterdir()} == want
