"""Tests for the command-line driver: sweeps, formats, exit codes."""

import csv
import json

import pytest

from qscissors.cli import main, parse_range


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


def test_jobs_below_one_exits_2(capsys):
    base = ["lqs", "--alpha", "0.5", "--eta", "1", "--gamma-bs", "0", "--r-sq", "0.5"]
    for jobs in ("0", "-4"):
        assert main(base + ["--jobs", jobs]) == 2
        err = capsys.readouterr()
        assert "--jobs" in err.err and err.out == ""


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["lqs", "--alpha", "0:2:9", "--eta", "0.9", "--gamma-bs", "0.02",
            "--r-sq", "0.49"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b), "--jobs", "2"]) == 0
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


def test_nqs_raw_rates_echoed_in_meta(capsys):
    rc = main(["nqs", "--epsilon", "0.1", "--kappa", "2", "--gamma", "0.04",
               "--kicks", "1", "--cutoff", "10", "--format", "json"])
    assert rc == 0
    meta = json.loads(capsys.readouterr().out)["meta"]
    assert meta["params"]["lambda"] == pytest.approx(0.02)
    assert meta["params"]["kappa"] == 2.0
    assert meta["params"]["gamma"] == 0.04


def test_nqs_cutoff_error_exits_1(capsys):
    with pytest.warns(UserWarning):  # small thermal cutoff warns before failing
        rc = main(["nqs", "--epsilon", "0.1", "--lambda", "1", "--nbar", "2",
                   "--kicks", "2", "--cutoff", "1"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


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


def test_verify_single_suite_exit_0(capsys):
    rc = main(["verify", "--suite", "lqs-ppb"])
    assert rc == 0
    out = capsys.readouterr()
    rows = list(csv.reader(out.out.splitlines()))
    assert rows[0] == ["suite", "passed", "max_dev", "tolerance", "detail"]
    assert rows[1][0] == "lqs-ppb" and rows[1][1] == "true"
    assert "PASS" in out.err


def test_verify_unknown_suite_exit_2(capsys):
    rc = main(["verify", "--suite", "bogus"])
    assert rc == 2
    assert "unknown suite" in capsys.readouterr().err


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
