import collections
import enum
import importlib
import importlib.util
import inspect
import json
import math
import os
import random
import re
import subprocess
import sys
import textwrap
import threading
import typing

import numpy as np
import pytest

import rankmatch
from rankmatch import analysis, cli
from rankmatch.cli import main
from rankmatch.core import MarketInstance, RankList, RhoSchedule, reports_to_json_dict
from rankmatch.equilibrium import SymmetricInstance


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def src_env(**extra):
    """The environment for a fresh interpreter that imports this rankmatch."""
    src = os.path.dirname(os.path.dirname(rankmatch.__file__))
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture
def appd_files(tmp_path):
    reports = {"reports": [[0, 3, 1, 2], [0, 1, 2, 3], [0, 1, 3, 2], [3, 2, 1, 0]]}
    rp = tmp_path / "appd.json"
    rp.write_text(json.dumps(reports))
    market = {"n": 4, "goods": ["pizza", "chips", "soda", "pretzels"],
              "values": [[120, 80, 40, 20]] * 4, "rho": [10, 5, 0, 0]}
    mp = tmp_path / "market.json"
    mp.write_text(json.dumps(market))
    return rp, mp


def test_mechanism_boston_worked_example(appd_files, capsys):
    rp, mp = appd_files
    code, out, _ = run_cli(["mechanism", "--kind", "boston", "--reports", str(rp),
                            "--order", "1,0,2,3", "--market", str(mp)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["assignment"] == [2, 0, 1, 3]
    assert doc["goods"] == ["soda", "pizza", "chips", "pretzels"]


def test_expect(appd_files, capsys):
    rp, mp = appd_files
    code, out, _ = run_cli(["expect", "--kind", "rsd", "--reports", str(rp),
                            "--market", str(mp)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["expected_utility"]) == 4


def test_equilibrium_e1(tmp_path, capsys):
    inst = {"n": 5, "v1": 2824, "v2": 2256, "vbar": 700, "rho": [800, 200, 0, 0, 0]}
    path = tmp_path / "e1.json"
    path.write_text(json.dumps(inst))
    code, out, _ = run_cli(["equilibrium", "--instance", str(path), "--brute-force"],
                           capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["boston"]["n1_set"] == [3]
    assert doc["rsd"]["n1_set"] == [4]
    assert doc["boston"]["brute_force_n1_set"] == [3]
    assert doc["boston"]["welfare"]["3"]["rho"]["cents"] == 1800.0
    assert doc["rsd"]["welfare"]["4"]["rho"]["cents"] == 1240.0


E1_DOC = {"n": 5, "v1": 2824, "v2": 2256, "vbar": 700, "rho": [800, 200, 0, 0, 0]}


@pytest.mark.parametrize("field,value,message", [
    ("v1", 2824.7, "symmetric instance JSON: v1 cents must be a whole number, got 2824.7"),
    ("vbar", 1e999, "symmetric instance JSON: vbar cents must be a whole number, got inf"),
    ("v2", 1e300, "symmetric instance JSON: v2 cents must be below 10**100, got 1e+300"),
    ("n", 5.9, "symmetric instance JSON: n must be a whole number, got 5.9"),
    ("n", None, "symmetric instance JSON: n must be a whole number, got None"),
    ("rho", [10.7, 0, 0, 0, 0], "rho cents must be a whole number, got 10.7"),
    ("rho", 5, "symmetric instance JSON 'rho' must be a list, got 5"),
    ("rho", None, "symmetric instance JSON 'rho' must be a list, got None"),
])
def test_bad_symmetric_instance_is_data_error(tmp_path, capsys, field, value, message):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(dict(E1_DOC, **{field: value})))
    for args in (["equilibrium", "--instance", str(path), "--brute-force"],
                 ["simulate", "--kind", "rsd", "--market", str(path),
                  "--structured-n1", "3", "--reps", "10"]):
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (1, ""), args
        assert err == f"error: {path}: {message}\n", args


@pytest.mark.parametrize("doc", [[1, 2], 5, "e1", None])
def test_json_not_an_object_is_data_error(appd_files, tmp_path, capsys, doc):
    rp, mp = appd_files
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    for args, what in (
            (["equilibrium", "--instance", str(path)], "symmetric instance"),
            (["simulate", "--kind", "boston", "--market", str(path), "--structured-n1", "3"],
             "symmetric instance"),
            (["expect", "--kind", "rsd", "--reports", str(rp), "--market", str(path)], "market"),
            (["expect", "--kind", "rsd", "--reports", str(path), "--market", str(mp)], "reports")):
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (1, ""), args
        assert err == f"error: {path}: {what} JSON must be an object, got {doc!r}\n", args


@pytest.mark.parametrize("which,doc,message", [
    ("market", {"values": None, "rho": [10, 5, 0, 0]},
     "market JSON 'values' must be a list of lists, got None"),
    ("market", {"values": [[120, 80, 40, 20]] * 3 + [5], "rho": [10, 5, 0, 0]},
     "market JSON 'values' must be a list of lists, got [[120, 80, 40, 20], "
     "[120, 80, 40, 20], [120, 80, 40, 20], 5]"),
    ("market", {"values": [[120, 80, 40, 20]] * 4, "rho": 5},
     "market JSON 'rho' must be a list, got 5"),
    ("reports", {"reports": 5}, "reports JSON 'reports' must be a list of lists, got 5"),
    ("reports", {"reports": [[0, 1, 2, 3]] * 3 + [None]},
     "reports JSON 'reports' must be a list of lists, got [[0, 1, 2, 3], [0, 1, 2, 3], "
     "[0, 1, 2, 3], None]"),
    ("reports", {"reports": [[0, 1, 2, 3]] * 3 + [[0, 1, 2, 2.5]]},
     "good id must be a whole number, got 2.5"),
    ("reports", {"reports": [[0, 1, 2, 3]] * 3}, "3 reports must each rank 3 goods, got 4"),
])
def test_malformed_market_and_reports_are_data_errors(appd_files, capsys, which, doc, message):
    rp, mp = appd_files
    path = mp if which == "market" else rp
    path.write_text(json.dumps(doc))
    for args in (["expect", "--kind", "rsd", "--reports", str(rp), "--market", str(mp)],
                 ["simulate", "--kind", "boston", "--market", str(mp),
                  "--profile-reports", str(rp), "--reps", "10"]):
        code, out, err = run_cli(args, capsys)
        assert (code, out, err) == (1, "", f"error: {path}: {message}\n"), args


def test_fractional_market_cents_are_data_errors(appd_files, tmp_path, capsys):
    rp, mp = appd_files
    for field, doc in (("value", {"values": [[120, 80.5, 40, 20]] * 4, "rho": [10, 5, 0, 0]}),
                       ("rho", {"values": [[120, 80, 40, 20]] * 4, "rho": [10, 5, 0.25, 0]})):
        mp.write_text(json.dumps(doc))
        for args in (["expect", "--kind", "rsd", "--reports", str(rp), "--market", str(mp)],
                     ["simulate", "--kind", "rsd", "--market", str(mp),
                      "--profile-reports", str(rp), "--reps", "10"]):
            code, out, err = run_cli(args, capsys)
            assert (code, out) == (1, ""), args
            assert err.startswith(f"error: {mp}: {field} cents must be a whole number"), err
    # integral floats are whole cents: the same output as the ints
    doc = {"values": [[120.0, 80, 40, 20]] * 4, "rho": [10.0, 5, 0, 0]}
    mp.write_text(json.dumps(doc))
    code, floats, _ = run_cli(["expect", "--kind", "boston", "--reports", str(rp),
                               "--market", str(mp)], capsys)
    mp.write_text(json.dumps({"values": [[120, 80, 40, 20]] * 4, "rho": [10, 5, 0, 0]}))
    assert run_cli(["expect", "--kind", "boston", "--reports", str(rp),
                    "--market", str(mp)], capsys) == (0, floats, "") and code == 0


def test_simulate_structured(tmp_path, capsys):
    inst = {"n": 5, "v1": 2824, "v2": 2256, "vbar": 700, "rho": [800, 200, 0, 0, 0]}
    path = tmp_path / "e1.json"
    path.write_text(json.dumps(inst))
    args = ["simulate", "--kind", "boston", "--market", str(path),
            "--structured-n1", "3", "--reps", "20000", "--seed", "7"]
    code, out1, _ = run_cli(args, capsys)
    assert code == 0
    code, out2, _ = run_cli(args + ["--threads", "8"], capsys)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["replications"] == 20000
    assert sum(doc["rank_histogram"]) == 20000 * 5


def test_simulate_fixed_profile_threads(appd_files, capsys):
    rp, mp = appd_files
    args = ["simulate", "--kind", "boston", "--market", str(mp), "--profile-reports",
            str(rp), "--reps", "140000", "--seed", "7"]  # three blocks
    code, out1, _ = run_cli(args + ["--threads", "1"], capsys)
    assert code == 0
    code, out2, _ = run_cli(args + ["--threads", "2"], capsys)
    assert code == 0 and out1 == out2
    assert sum(json.loads(out1)["rank_histogram"]) == 140000 * 4


def test_simulate_csv_report_matches_simulate(appd_files, tmp_path, capsys):
    rp, mp = appd_files
    reps = 70_000  # two blocks
    args = ["simulate", "--kind", "rsd", "--market", str(mp), "--profile-reports",
            str(rp), "--reps", str(reps), "--seed", "7"]
    code, plain, _ = run_cli(args, capsys)
    assert code == 0
    code, threaded, _ = run_cli(args + ["--threads", "2"], capsys)
    assert code == 0 and threaded == plain
    path = tmp_path / "reps.csv"
    code, with_csv, _ = run_cli(args + ["--csv", str(path)], capsys)
    assert code == 0 and with_csv == plain
    assert len(path.read_text().splitlines()) == 1 + reps * 4


def test_simulate_requires_one_profile(tmp_path, capsys, appd_files):
    rp, mp = appd_files
    code, _, err = run_cli(["simulate", "--kind", "rsd", "--market", str(mp),
                            "--reps", "10"], capsys)
    assert code == 1 and "profile" in err


def test_analyze(tmp_path, capsys):
    recs = analysis.generate_session(6, (287, 100, 50, 0, -69), 0.0, seed=3)
    path = tmp_path / "s.csv"
    analysis.save_session(recs, path)
    code, out, _ = run_cli(["analyze", "--session", str(path), "--tolerance", "2.00"],
                           capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["n_subjects"] == 30
    assert doc["net_value_by_rank"]["1"]["mean_cents"] == 287.0


def test_analyze_non_finite_money(tmp_path, capsys):
    recs = analysis.generate_session(2, (287, 100, 50, 0, -69), 0.0, seed=3)
    path = tmp_path / "s.csv"
    analysis.save_session(recs, path)
    lines = path.read_text().splitlines()
    header, row = lines[0].split(","), lines[2].split(",")
    row[header.index("v_mug")] = "inf"
    lines[2] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(["analyze", "--session", str(path)], capsys)
    assert code == 1 and out == ""
    assert f"{path}:3:" in err
    analysis.save_session(recs, path)
    code, out, err = run_cli(["analyze", "--session", str(path), "--tolerance", "inf"],
                             capsys)
    assert code == 1 and out == ""
    assert "not a money amount" in err


def test_analyze_out_of_range_covariates(tmp_path, capsys):
    recs = analysis.generate_session(2, (287, 100, 50, 0, -69), 0.0, seed=3)
    path = tmp_path / "s.csv"
    for column, cell, message in (
            ("risk_row", "99", "risk_row must be in 1..50, got 99"),
            ("loss_row", "0", "loss_row must be in 1..50, got 0"),
            ("practice", "-3", "practice must be >= 0, got -3"),
            ("subject_id", "", "subject_id must be non-empty"),
            ("group_id", "", "group_id must be non-empty")):
        analysis.save_session(recs, path)
        lines = path.read_text().splitlines()
        row = lines[3].split(",")
        row[analysis.CSV_COLUMNS.index(column)] = cell
        lines[3] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(["analyze", "--session", str(path)], capsys)
        assert (code, out, err) == (1, "", f"error: {path}:4: {message}\n")


def test_analyze_cells_too_large_for_a_float(tmp_path, capsys):
    recs = analysis.generate_session(2, (287, 100, 50, 0, -69), 0.0, seed=3)
    path = tmp_path / "s.csv"
    phase2 = "1" + "0" * 307 + ".00"  # 10**307 dollars
    for column, cell, message in (
            ("practice", "1" + "0" * 400, "practice must be below 10**100"),
            ("phase2_value", phase2,
             f"not a money amount: {phase2!r} (10**100 cents or more)")):
        analysis.save_session(recs, path)
        lines = path.read_text().splitlines()
        row = lines[3].split(",")
        row[analysis.CSV_COLUMNS.index(column)] = cell
        lines[3] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(["analyze", "--session", str(path), "--ols"], capsys)
        assert (code, out, err) == (1, "", f"error: {path}:4: {message}\n")


def test_analyze_csv_error_is_data_error(tmp_path, capsys):
    recs = analysis.generate_session(2, (287, 100, 50, 0, -69), 0.0, seed=3)
    path = tmp_path / "s.csv"
    analysis.save_session(recs, path)
    lines = path.read_text().splitlines()
    lines[3] = "x" * 200_000 + lines[3]  # past csv's field limit
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(["analyze", "--session", str(path)], capsys)
    assert (code, out, err) == (
        1, "", f"error: {path}:4: field larger than field limit (131072)\n")


def test_undecodable_session_is_data_error(tmp_path, capsys):
    recs = analysis.generate_session(2, (287, 100, 50, 0, -69), 0.0, seed=3)
    path = tmp_path / "s.csv"
    analysis.save_session(recs, path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\n\xff", 1))
    code, out, err = run_cli(["analyze", "--session", str(path)], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")


def test_undecodable_json_is_data_error(tmp_path, capsys):
    path = tmp_path / "e1.json"
    path.write_bytes(b"\xff\xfe" + json.dumps({"n": 5}).encode())
    code, out, err = run_cli(["equilibrium", "--instance", str(path)], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")


def test_analyze_tables(tmp_path, capsys):
    recs = analysis.generate_session(8, (287, 100, 50, 0, -69), 100.0, seed=5,
                                     misreport_rate=0.3)
    path = tmp_path / "s.csv"
    analysis.save_session(recs, path)
    tables = tmp_path / "tables"
    code, _, _ = run_cli(["analyze", "--session", str(path), "--ols",
                          "--tables", str(tables)], capsys)
    assert code == 0
    names = sorted(p.name for p in tables.iterdir())
    assert names == ["net_value_by_rank.csv", "net_value_ols.csv",
                     "truth_rates.csv", "welfare.csv"]
    lines = (tables / "net_value_by_rank.csv").read_text().splitlines()
    assert lines[0] == "rank,n,mean_cents,sd_cents" and len(lines) == 6


def test_analyze_empty_session(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    analysis.save_session([], path)
    code, out, _ = run_cli(["analyze", "--session", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["n_subjects"] == 0


def test_analyze_negative_tolerance_is_data_error(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    analysis.save_session([], empty)
    full = tmp_path / "full.csv"
    analysis.save_session(analysis.generate_session(2, (287, 100, 50, 0, -69), 0.0, seed=3),
                          full)
    out_path = tmp_path / "out.json"
    # rejected before the session is read, so even a missing file gives this error
    for path in (empty, full, tmp_path / "missing.csv"):
        code, out, err = run_cli(["analyze", "--session", str(path), "--tolerance", "-1.00",
                                  "--out", str(out_path)], capsys)
        assert code == 1 and out == ""
        assert err == "error: tolerance must be >= 0, got -100\n"
    assert not out_path.exists()


def test_elicit_decode(capsys):
    code, out, _ = run_cli(["elicit-decode", "--screen1", "16", "--screen2", "28"],
                           capsys)
    assert code == 0
    assert json.loads(out)["value_cents"] == 1656


def test_selftest(capsys):
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 0
    assert "FAIL" not in out


def test_missing_file_is_data_error(capsys):
    code, _, err = run_cli(["mechanism", "--kind", "rsd", "--reports", "/nope.json",
                            "--order", "0,1"], capsys)
    assert code == 1 and err


def test_usage_error_exit_2():
    proc = subprocess.run([sys.executable, "-m", "rankmatch.cli", "bogus"],
                          capture_output=True)
    assert proc.returncode == 2


def test_out_flag_writes_file(tmp_path, capsys):
    code, out, _ = run_cli(["elicit-decode", "--screen1", "1", "--screen2", "50",
                            "--out", str(tmp_path / "o.json")], capsys)
    assert code == 0 and out == ""
    assert json.loads((tmp_path / "o.json").read_text())["value_cents"] == 200


def test_directory_paths_are_data_errors(tmp_path, capsys):
    code, out, err = run_cli(["analyze", "--session", str(tmp_path)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(tmp_path) in err
    code, out, err = run_cli(["elicit-decode", "--screen1", "1", "--screen2", "50",
                              "--out", str(tmp_path)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(tmp_path) in err


def test_tables_on_existing_file_is_data_error(tmp_path, capsys):
    session = tmp_path / "s.csv"
    analysis.save_session(analysis.generate_session(2, (287, 100, 50, 0, -69), 0.0,
                                                    seed=3), session)
    code, out, err = run_cli(["analyze", "--session", str(session),
                              "--tables", str(session)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(session) in err


def test_empty_paths_are_data_errors(appd_files, tmp_path, monkeypatch, capsys):
    # "" is a path that names no file, not a flag left out
    rp, mp = appd_files
    session = tmp_path / "s.csv"
    analysis.save_session(analysis.generate_session(2, (287, 100, 50, 0, -69), 0.0,
                                                    seed=3), session)
    simulate = ["simulate", "--kind", "rsd", "--market", str(mp), "--reps", "10"]
    argvs = [simulate + ["--profile-reports", ""],
             simulate + ["--profile-reports", str(rp), "--csv", ""],
             ["elicit-decode", "--screen1", "1", "--screen2", "50", "--out", ""],
             ["mechanism", "--kind", "rsd", "--reports", str(rp), "--order", "0,1,2,3",
              "--market", ""],
             ["analyze", "--session", str(session), "--tables", ""]]
    monkeypatch.chdir(tmp_path)
    before = sorted(os.listdir(tmp_path))
    for argv in argvs:
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and "No such file or directory: ''" in err, argv
        assert "error: : " not in err, argv
    # a missing JSON input is named once, as a missing session is
    missing = str(tmp_path / "missing.json")
    for argv in (["mechanism", "--kind", "rsd", "--reports", missing, "--order", "0,1,2,3"],
                 ["analyze", "--session", missing]):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: [Errno 2] ") and err.count(missing) == 1, argv
    assert sorted(os.listdir(tmp_path)) == before


def test_json_value_errors_name_the_file(appd_files, tmp_path, capsys):
    """A value a JSON reader rejects names the file once, for every JSON
    flag and both market forms, and so does a valid market without the
    symmetric form a structured profile needs; so does a missing file."""
    rp, mp = appd_files
    bad = {"reports": tmp_path / "bad_reports.json", "market": tmp_path / "bad_market.json",
           "instance": tmp_path / "bad_instance.json"}
    bad["reports"].write_text(json.dumps({"reports": [[0, 0, 1, 2]] * 4}))
    bad["market"].write_text(json.dumps({"values": [[120, "x", 40, 20]] * 4,
                                         "rho": [10, 5, 0, 0]}))
    bad["instance"].write_text(json.dumps(dict(E1_DOC, v2="x")))
    # valid markets with no symmetric form, which a structured profile needs
    asymmetric = {"differ": [[300, 200, 100], [300, 200, 100], [250, 300, 0]],
                  "order": [[100, 100, 0]] * 3, "tail": [[300, 200, 100, 50]] * 4,
                  "short": [[300, 200]] * 2}
    for name, values in asymmetric.items():
        bad[name] = tmp_path / f"{name}_market.json"
        bad[name].write_text(json.dumps({"values": values, "rho": [10] + [0] * (len(values) - 1)}))
    simulate = ["simulate", "--kind", "rsd", "--reps", "10"]
    cases = (
        (["mechanism", "--kind", "rsd", "--order", "0,1,2,3", "--reports"], "reports", []),
        (["mechanism", "--kind", "rsd", "--order", "0,1,2,3", "--reports", str(rp),
          "--market"], "market", []),
        (["expect", "--kind", "boston", "--market", str(mp), "--reports"], "reports", []),
        (["expect", "--kind", "boston", "--reports", str(rp), "--market"], "market", []),
        (["equilibrium", "--brute-force", "--instance"], "instance", []),
        (simulate + ["--profile-reports", str(rp), "--market"], "market", []),
        (simulate + ["--market"], "instance", ["--structured-n1", "3"]),
        *((simulate + ["--market"], name, ["--structured-n1", "1"]) for name in asymmetric),
        (simulate + ["--market", str(mp), "--profile-reports"], "reports", []))
    missing = str(tmp_path / "missing.json")
    for head, which, tail in cases:
        for path in (str(bad[which]), missing):
            argv = head + [path] + tail
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (1, ""), argv
            assert err.count("\n") == 1 and err.endswith("\n"), argv
            assert err.count(path) == 1, argv
            if path != missing:
                assert err.startswith(f"error: {path}: "), argv


def test_size_limit_errors_name_the_file(tmp_path, capsys):
    """An input too large to enumerate is a data error naming its file; the
    brute force still runs at its cap, n = 12."""
    market, reports, i12, inst = (tmp_path / f"{name}.json"
                                  for name in ("m9", "r9", "i12", "i13"))
    market.write_text(json.dumps({"values": [[100] * 9] * 9, "rho": [0] * 9}))
    reports.write_text(json.dumps({"reports": [list(range(9))] * 9}))
    for path, n in ((i12, 12), (inst, 13)):
        path.write_text(json.dumps({"n": n, "v1": 3000, "v2": 2000, "vbar": 100,
                                    "rho": [50, 40, 30, 20, 10] + [0] * (n - 5)}))
    code, out, err = run_cli(["equilibrium", "--instance", str(i12), "--brute-force"], capsys)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert all(doc[k]["brute_force_n1_set"] == doc[k]["n1_set"] for k in ("rsd", "boston"))
    code, out, err = run_cli(["expect", "--kind", "rsd", "--market", str(market),
                              "--reports", str(reports)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {market}: exact enumeration limited to n <= 8 (got 9)")
    assert err.count("\n") == 1
    code, out, err = run_cli(["equilibrium", "--instance", str(inst), "--brute-force"], capsys)
    assert (code, out, err) == (1, "", f"error: {inst}: brute force limited to n <= 12\n")


def test_reports_that_do_not_fit_the_market_name_both_files(appd_files, tmp_path, capsys):
    """Reports for another number of agents than the market's n are a data
    error naming both files, for every subcommand that reads both."""
    _, mp = appd_files
    e1 = tmp_path / "e1.json"
    e1.write_text(json.dumps(E1_DOC))
    rp = tmp_path / "reports.json"
    for reports in ([[0, 1, 2]] * 3, [[0, 1, 2, 3, 4]] * 5, []):
        rp.write_text(json.dumps({"reports": reports}))
        for market in (mp, e1):
            argvs = [["simulate", "--kind", "rsd", "--market", str(market),
                      "--profile-reports", str(rp), "--reps", "5"]]
            if market == mp:
                argvs += [["expect", "--kind", "boston", "--reports", str(rp),
                           "--market", str(mp)],
                          ["mechanism", "--kind", "rsd", "--reports", str(rp),
                           "--order", "0,1,2,3", "--market", str(mp)]]
            for argv in argvs:
                code, out, err = run_cli(argv, capsys)
                n = 4 if market == mp else 5
                if len(reports) == n:
                    assert (code, err) == (0, ""), argv
                    continue
                assert (code, out) == (1, ""), argv
                assert err == (f"error: {rp}: {len(reports)} reports do not fit the n = {n} "
                               f"market of {market}\n"), argv


def test_order_of_the_wrong_length_names_the_flag_and_file(appd_files, tmp_path, capsys):
    """An --order that does not order one agent per report is a data error
    naming --order and the reports file, with or without --market."""
    rp, mp = appd_files
    r9 = tmp_path / "r9.json"
    r9.write_text(json.dumps({"reports": [list(range(9))] * 9}))
    for reports, order, market in ((r9, "0,1,2", []), (rp, "0,1,2", []),
                                   (rp, "0,1,2,3,4", ["--market", str(mp)])):
        argv = ["mechanism", "--kind", "rsd", "--reports", str(reports), "--order", order]
        code, out, err = run_cli(argv + market, capsys)
        n = len(json.loads(reports.read_text())["reports"])
        assert (code, out) == (1, ""), argv
        assert err == (f"error: --order '{order}' orders {len(order.split(','))} agents, "
                       f"but {reports} has {n} reports\n"), argv


def test_market_goods_default_labels(appd_files, tmp_path, capsys):
    rp, _ = appd_files
    mp = tmp_path / "bare.json"
    mp.write_text(json.dumps({"values": [[120, 80, 40, 20]] * 4, "rho": [10, 5, 0, 0]}))
    code, out, _ = run_cli(["mechanism", "--kind", "boston", "--reports", str(rp),
                            "--order", "1,0,2,3", "--market", str(mp)], capsys)
    assert code == 0
    assert json.loads(out)["goods"] == ["g2", "g0", "g1", "g3"]
    code, out, _ = run_cli(["simulate", "--kind", "rsd", "--market", str(mp),
                            "--profile-reports", str(rp), "--reps", "100"], capsys)
    assert code == 0
    assert sum(json.loads(out)["rank_histogram"]) == 100 * 4
    for goods in (5, "abcd"):
        mp.write_text(json.dumps({"values": [[120, 80, 40, 20]] * 4, "rho": [10, 5, 0, 0],
                                  "goods": goods}))
        code, out, err = run_cli(["mechanism", "--kind", "boston", "--reports", str(rp),
                                  "--order", "1,0,2,3", "--market", str(mp)], capsys)
        assert code == 1 and out == ""
        assert "'goods' must be a list of strings" in err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_simulate_threads_below_one_is_data_error(appd_files, tmp_path, capsys, threads):
    rp, mp = appd_files
    argv = ["simulate", "--kind", "rsd", "--market", str(mp), "--profile-reports", str(rp),
            "--reps", "100", "--threads", threads]
    csv_path = tmp_path / "reps.csv"
    for extra in ([], ["--csv", str(csv_path)]):
        code, out, err = run_cli(argv + extra, capsys)
        assert code == 1 and out == ""
        assert f"threads must be >= 1, got {threads}" in err
    assert not csv_path.exists()


def test_no_subcommand_needs_scipy(appd_files, tmp_path):
    """A fresh interpreter in which ``import scipy`` fails: every subcommand,
    ``analyze --ols --robust --tables`` among them, and the approximate
    JT/rank-sum branches still succeed.  Run out of process, because this
    test module's own imports may load scipy."""
    rp, mp = appd_files
    e1 = tmp_path / "e1.json"
    e1.write_text(json.dumps({"n": 5, "v1": 2824, "v2": 2256, "vbar": 700,
                              "rho": [800, 200, 0, 0, 0]}))
    session = tmp_path / "s.csv"
    analysis.save_session(analysis.generate_session(6, (287, 100, 50, 0, -69), 120.0,
                                                    seed=4, misreport_rate=0.2), session)
    out = str(tmp_path / "out.json")
    tables = str(tmp_path / "tables")
    script = textwrap.dedent(f"""
        import sys
        sys.modules["scipy"] = None  # any import of scipy now raises
        import rankmatch
        from rankmatch import cli, stats
        runs = [
            ["selftest"],
            ["elicit-decode", "--screen1", "16", "--screen2", "28", "--out", {out!r}],
            ["mechanism", "--kind", "boston", "--reports", {str(rp)!r},
             "--order", "1,0,2,3", "--market", {str(mp)!r}, "--out", {out!r}],
            ["expect", "--kind", "rsd", "--reports", {str(rp)!r},
             "--market", {str(mp)!r}, "--out", {out!r}],
            ["equilibrium", "--instance", {str(e1)!r}, "--brute-force", "--out", {out!r}],
            ["simulate", "--kind", "boston", "--market", {str(mp)!r},
             "--profile-reports", {str(rp)!r}, "--reps", "1000", "--out", {out!r}],
            ["simulate", "--kind", "rsd", "--market", {str(e1)!r},
             "--structured-n1", "3", "--reps", "1000", "--out", {out!r}],
            ["analyze", "--session", {str(session)!r}, "--out", {out!r}],
            ["analyze", "--session", {str(session)!r}, "--ols", "--out", {out!r}],
            ["analyze", "--session", {str(session)!r}, "--ols", "--robust",
             "--tables", {tables!r}, "--out", {out!r}],
        ]
        for argv in runs:
            assert cli.main(argv) == 0, argv
        groups = [[i % 7 for i in range(g, g + 9)] for g in range(3)]
        for alternative in ("decreasing", "increasing"):
            assert 0 < stats.jonckheere_terpstra(groups, alternative, method="approx")[1] < 1
        assert 0 < stats.wilcoxon_ranksum(groups[0], groups[2], method="approx")[1] <= 1
        assert "scipy" not in {{name.partition(".")[0] for name in sys.modules
                               if sys.modules[name] is not None}}
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=src_env())
    assert proc.returncode == 0, proc.stderr


def test_one_order_subcommands_need_no_numpy(appd_files, capsys, tmp_path):
    """A fresh interpreter in which ``import numpy`` fails: ``import
    rankmatch.cli`` loads neither numpy nor a module of the package that uses
    it, and ``mechanism`` (with and without ``--market``), ``elicit-decode``,
    ``expect --kind rsd`` and ``equilibrium`` without ``--brute-force`` exit 0
    and write the bytes of a run with numpy.  Run out of process, because
    this test module's own imports load numpy."""
    rp, mp = appd_files
    e1 = tmp_path / "e1.json"
    e1.write_text(json.dumps({"n": 5, "v1": 2824, "v2": 2256, "vbar": 700,
                              "rho": [800, 200, 0, 0, 0]}))
    mechanism = ["mechanism", "--kind", "boston", "--reports", str(rp), "--order", "1,0,2,3"]
    runs = [mechanism, mechanism + ["--market", str(mp)],
            ["elicit-decode", "--screen1", "16", "--screen2", "28"],
            ["expect", "--kind", "rsd", "--reports", str(rp), "--market", str(mp)],
            ["equilibrium", "--instance", str(e1)]]
    script = textwrap.dedent(f"""
        import sys
        sys.modules["numpy"] = None  # any import of numpy now raises
        import rankmatch.cli
        numpy_users = {{"numpy", "rankmatch.batch", "rankmatch.analysis", "rankmatch.simulation",
                       "rankmatch.stats", "rankmatch.prng"}}
        assert not numpy_users & {{name for name, module in sys.modules.items() if module}}
        for argv in {runs!r}:
            assert rankmatch.cli.main(argv) == 0, argv
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=src_env())
    assert proc.returncode == 0, proc.stderr.decode()
    want = []
    for argv in runs:
        code, out, _ = run_cli(argv, capsys)
        assert code == 0, argv
        want.append(out)
    assert proc.stdout == "".join(want).encode()


def test_cli_type_hints_resolve(monkeypatch):
    """Every function of ``cli`` has annotations that resolve as a type
    checker sees the module: a copy of it run with ``TYPE_CHECKING`` true
    gives ``typing.get_type_hints`` every name they use."""
    monkeypatch.setattr(typing, "TYPE_CHECKING", True)
    spec = importlib.util.find_spec("rankmatch.cli")
    typed = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(typed)
    functions = [f for f in vars(typed).values()
                 if inspect.isfunction(f) and f.__module__ == "rankmatch.cli"]
    assert len(functions) > 10
    for function in functions:
        typing.get_type_hints(function)


def test_package_exports_load_lazily():
    """Every name the package exported when it imported its modules eagerly
    resolves from ``rankmatch`` to its module's object and is in
    ``__all__``; any other name raises ``AttributeError``."""
    exports = {
        "core": ["DataFormatError", "Good", "MarketInstance", "Matching", "Outcome",
                 "RankList", "RhoSchedule", "SizeLimitError", "ValueMatrix", "cents",
                 "dollars"],
        "mechanisms": ["MechanismKind", "TieBreakOrder", "exact_expected_utilities",
                       "is_pareto_efficient", "run_boston", "run_mechanism", "run_random",
                       "run_rsd"],
        "equilibrium": ["EquilibriumSolution", "SymmetricInstance", "brute_force_equilibria",
                        "check_truthtelling_equilibrium", "equilibrium_welfare",
                        "solve_equilibrium", "symmetric_params"],
        "simulation": ["SimReport", "StrategyProfile", "rank_distribution", "simulate"],
    }
    for module, names in exports.items():
        home = importlib.import_module(f"rankmatch.{module}")
        for name in names:
            assert getattr(rankmatch, name) is getattr(home, name), name
    assert sorted(rankmatch.__all__) == sorted(sum(exports.values(), []))
    with pytest.raises(AttributeError, match="no_such_name"):
        rankmatch.no_such_name
    from rankmatch import simulate, stats
    assert simulate is rankmatch.simulation.simulate and stats.__name__ == "rankmatch.stats"


def test_thread_pool_is_imported_only_for_threads(appd_files, tmp_path):
    """``import rankmatch.cli`` and a one-thread run leave ``concurrent.futures``
    unloaded; ``--threads 2`` loads it where there are two cores and writes the
    bytes ``--threads 1`` writes.  Run out of process, because this test
    module's own imports may load the pool."""
    rp, mp = appd_files
    outs = [str(tmp_path / f"t{threads}.json") for threads in (1, 2)]
    script = textwrap.dedent(f"""
        import os, sys
        from rankmatch import cli
        assert "concurrent.futures" not in sys.modules
        args = ["simulate", "--kind", "boston", "--market", {str(mp)!r},
                "--profile-reports", {str(rp)!r}, "--reps", "70000", "--seed", "3"]
        assert cli.main(args + ["--threads", "1", "--out", {outs[0]!r}]) == 0
        assert "concurrent.futures" not in sys.modules
        assert cli.main(args + ["--threads", "2", "--out", {outs[1]!r}]) == 0
        assert ("concurrent.futures" in sys.modules) == ((os.cpu_count() or 1) > 1)
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=src_env())
    assert proc.returncode == 0, proc.stderr
    with open(outs[0], "rb") as one, open(outs[1], "rb") as two:
        assert one.read() == two.read()


def test_inputs_are_read_as_utf8_under_any_locale(appd_files, tmp_path):
    """With the C locale, and UTF-8 mode and locale coercion off, the
    process encoding is not UTF-8; a session with non-ASCII ids (written by
    ``save_session`` and read by ``analyze``), a response CSV and a market
    JSON with non-ASCII text give what they give in UTF-8 mode.  Run out of
    process, because the encoding is fixed when the interpreter starts."""
    rp, mp = appd_files
    market = json.loads(mp.read_text())
    market["goods"][0] = "caf\u00e9"
    mp.write_text(json.dumps(market, ensure_ascii=False), encoding="utf-8")
    responses = tmp_path / "responses.csv"
    responses.write_text("subject_id,task_id,screen1_row,screen2_row,switch_row\n"
                         "s\u00e9,mpl,16,28,\ns\u00e9,holt_laury,,,12\n", encoding="utf-8")
    results = {}
    for utf8 in ("0", "1"):
        session = str(tmp_path / f"session{utf8}.csv")
        script = textwrap.dedent(f"""
            import codecs, dataclasses, json, locale
            from rankmatch import analysis, cli, elicitation
            records = analysis.generate_session(2, (287, 100, 50, 0, -69), 120.0, seed=4)
            records[:5] = [dataclasses.replace(r, group_id="g\\u00e9") for r in records[:5]]
            records[0] = dataclasses.replace(records[0], subject_id="s\\u00e9")
            analysis.save_session(records, {session!r})
            assert cli.main(["analyze", "--session", {session!r}, "--ols"]) == 0
            assert cli.main(["mechanism", "--kind", "boston", "--reports", {str(rp)!r},
                             "--order", "1,0,2,3", "--market", {str(mp)!r}]) == 0
            print(json.dumps([(subject, repr(response)) for subject, response
                              in elicitation.load_responses({str(responses)!r})]))
            print(codecs.lookup(locale.getpreferredencoding(False)).name)
        """)
        env = src_env(LC_ALL="C", PYTHONUTF8=utf8, PYTHONCOERCECLOCALE="0")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        results[utf8] = proc.stdout.rsplit("\n", 2)
    (c_out, c_encoding, _), (utf8_out, utf8_encoding, _) = results["0"], results["1"]
    assert c_encoding != "utf-8" and utf8_encoding == "utf-8"
    assert c_out == utf8_out
    assert '"s\\u00e9"' in c_out and '"caf\\u00e9"' in c_out


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_analyze_ols_without_residual_df_is_strict_json(tmp_path, capsys):
    """11 rows for 11 regressors leave no degree of freedom for the standard
    errors: the regression is reported as an error, not as NaN tokens."""
    recs = analysis.generate_session(8, (287, 100, 50, 0, -69), 120.0, seed=11,
                                     misreport_rate=0.3)
    path = tmp_path / "s.csv"
    analysis.save_session(recs[:11], path)
    for extra in ([], ["--robust"]):
        with pytest.warns(UserWarning, match="excluded from welfare"):
            code, out, _ = run_cli(["analyze", "--session", str(path), "--ols", *extra],
                                   capsys)
        assert code == 0
        doc = json.loads(out, parse_constant=_reject_constant)
        assert doc["net_value_ols"] == {"error": "need more than 11 rows, got 11"}


def test_non_finite_report_is_data_error(tmp_path):
    out = tmp_path / "o.json"
    with pytest.raises(ValueError, match="cannot write the report as JSON"):
        cli._emit({"p": float("nan")}, str(out))
    assert not out.exists()


class _Level(enum.IntEnum):
    LOW = -3
    HUGE = 2 ** 70


class _Tag(str, enum.Enum):
    PLAIN = "tag"
    ODD = 'caf\u00e9 "\\ \x01\U0001f600'


_JSON_SCALARS = (-0.0, 0.0, 5e-324, 1e16, 1e-7, -1.5e300, 0.1, 2 ** 64, -(2 ** 70) - 1, 0,
                 True, False, None, np.float64(-2.5e-8), _Level.LOW, _Level.HUGE,
                 _Tag.PLAIN, _Tag.ODD, "")
_KEY_FAMILIES = (
    lambda rng: _random_text(rng),
    lambda rng: rng.choice((_Tag.PLAIN, _Tag.ODD, "tag", "zz")),
    lambda rng: rng.choice((-(2 ** 66), -1, 0, 7, 2 ** 64, True, False, _Level.LOW)),
    lambda rng: rng.choice((-0.0, 0.5, 5e-324, 1e16, -2.25, 3, np.float64(1.75))),
    lambda rng: None,
)


def _random_text(rng):
    pool = ('a', 'Z', ' ', '"', '\\', '\n', '\t', '\x00', '\x1f', '\x7f', '\u00e9',
            '\u2028', '\ufeff', '\U0001f600')
    return "".join(rng.choice(pool) for _ in range(rng.randrange(5)))


def _random_document(rng, depth=0):
    """Nested dicts, lists and tuples (some empty) of the scalars json.dumps
    writes specially; each dict's keys come from one family, so they sort."""
    pick = rng.randrange(6 if depth < 4 else 3)
    if pick == 0:
        return rng.choice(_JSON_SCALARS)
    if pick == 1:
        return _random_text(rng)
    if pick == 2:
        return rng.choice((1, -1)) * rng.random() * 10.0 ** rng.randint(-30, 30)
    if pick == 3:
        key = rng.choice(_KEY_FAMILIES)
        return {key(rng): _random_document(rng, depth + 1) for _ in range(rng.randrange(5))}
    items = [_random_document(rng, depth + 1) for _ in range(rng.randrange(5))]
    return items if pick == 4 else tuple(items)


def _json_dumps_or_error(doc):
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except (TypeError, ValueError) as exc:
        return exc


def test_emit_writes_json_dumps_text(tmp_path, capsys):
    """_emit's own writer gives json.dumps' indented, sorted, strict text,
    or an error of the type json.dumps raises (a ValueError as a data
    error that writes no file)."""
    rng = random.Random(29)
    docs = [{"doc": _random_document(rng)} for _ in range(2000)]
    docs += [{"k": {1.5: [float("nan")]}}, {"k": (1, -math.inf)}, {math.inf: 1},
             {"k": np.float64("nan")}, {"k": object()}, {"k": np.int64(3)},
             {(1, 2): 0}, {1: 0, "a": 1}, {None: 0, True: 1}, {"k": {b"x": 1}},
             {"k": collections.OrderedDict(b=1, a=[])},
             {"k": collections.namedtuple("Pair", "x y")(2.5, _Tag.ODD)}]
    out = tmp_path / "o.json"
    for doc in docs:
        expected = _json_dumps_or_error(doc)
        if isinstance(expected, str):
            cli._emit(doc)
            assert capsys.readouterr().out == expected, doc
            continue
        kind = cli.DataFormatError if isinstance(expected, ValueError) else type(expected)
        with pytest.raises(kind):
            cli._emit(doc, str(out))
        assert not out.exists(), doc


def _one_of_each(tmp_path, appd_files):
    """One argv per subcommand that takes --out, given without it."""
    rp, mp = appd_files
    e1 = tmp_path / "e1.json"
    e1.write_text(json.dumps(E1_DOC))
    session = tmp_path / "s.csv"
    analysis.save_session(analysis.generate_session(2, (287, 100, 50, 0, -69), 120.0,
                                                    seed=4, misreport_rate=0.2), session)
    return {
        "mechanism": ["mechanism", "--kind", "boston", "--reports", str(rp),
                      "--order", "1,0,2,3", "--market", str(mp)],
        "expect": ["expect", "--kind", "rsd", "--reports", str(rp), "--market", str(mp)],
        "equilibrium": ["equilibrium", "--instance", str(e1), "--brute-force"],
        "simulate": ["simulate", "--kind", "rsd", "--market", str(e1),
                     "--structured-n1", "3", "--reps", "500", "--seed", "9"],
        "analyze": ["analyze", "--session", str(session), "--ols", "--robust"],
        "elicit-decode": ["elicit-decode", "--screen1", "16", "--screen2", "28"],
    }


def test_parser_is_built_once_and_reused(appd_files, tmp_path, capsys, monkeypatch):
    """Every subcommand twice in one process, with a usage error and a data
    error between the rounds: the same bytes each round, from one parser."""
    built = []
    build_parser = cli.build_parser

    def counting_build_parser():
        built.append(1)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    argvs = _one_of_each(tmp_path, appd_files)

    def run_round(tag):
        outputs = {}
        for name, argv in argvs.items():
            out = tmp_path / f"{tag}-{name}.json"
            assert main(argv + ["--out", str(out)]) == 0, argv
            outputs[name] = out.read_bytes()
        assert main(["selftest"]) == 0
        outputs["selftest"] = capsys.readouterr().out.encode()
        return outputs

    try:
        first = run_round("a")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--kind", "rsd", "--reps", "many"])
        assert exc.value.code == 2
        assert main(["mechanism", "--kind", "rsd", "--reports", str(tmp_path / "none.json"),
                     "--order", "0,1"]) == 1
        capsys.readouterr()
        second = run_round("b")
    finally:
        cli._parser.cache_clear()
    assert second == first
    assert len(built) == 1
    assert build_parser() is not build_parser()

    env = src_env()
    # defaults such as equilibrium's --kind must not carry over from earlier calls
    for name in ("equilibrium", "analyze"):
        fresh = tmp_path / f"fresh-{name}.json"
        proc = subprocess.run([sys.executable, "-m", "rankmatch.cli", *argvs[name],
                               "--out", str(fresh)], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert fresh.read_bytes() == first[name], name


def test_parser_shared_by_threads(appd_files, tmp_path):
    """More threads than cores, switching as often as the interpreter allows,
    each calling main with its own --out: every output equals the serial one."""
    argvs = _one_of_each(tmp_path, appd_files)
    argvs["equilibrium"].remove("--brute-force")  # keep the rounds short
    serial = {}
    for name, argv in argvs.items():
        out = tmp_path / f"serial-{name}.json"
        assert main(argv + ["--out", str(out)]) == 0, argv
        serial[name] = out.read_bytes()

    n_threads, rounds = 4, 3
    results = [dict() for _ in range(n_threads)]

    def worker(i):
        for r in range(rounds):
            for name, argv in argvs.items():
                out = tmp_path / f"t{i}-{r}-{name}.json"
                code = main(argv + ["--out", str(out)])
                results[i][r, name] = (code, out.read_bytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got in results:
        assert got == {(r, name): (0, serial[name])
                       for r in range(rounds) for name in argvs}


FUZZ_CASES = 3000
FUZZ_MARKET_CASES = 1500
FUZZ_TOKENS = (b"0", b"-1", b"3", b"6", b"7", b"-300", b"5000", b"1e3", b"100.0", b"2.5",
               b"1e999", b"-1e999", b"NaN", b"1e300", b"9" * 120, b"true", b"null", b'"x"',
               b"[]", b"{}", b"[1, 2]", b'"n"', b"")
FUZZ_BYTES = b'{}[],:"-.+0123456789eE \\'
# a JSON token; a number or a string that is not a key is a value
FUZZ_TOKEN = rb'(?P<value>-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?|"[^"]*"(?!:))|"[^"]*"|[][{},:]'


def _fuzz_edit(rng, data):
    """One random edit: a JSON value (or, less often, any token) replaced from
    ``FUZZ_TOKENS``, or a byte deleted, replaced or inserted."""
    pick = rng.random()
    tokens = [m for m in re.finditer(FUZZ_TOKEN, data) if pick >= 0.6 or m["value"]]
    if pick < 0.75 and tokens:
        m = rng.choice(tokens)
        return data[:m.start()] + rng.choice(FUZZ_TOKENS) + data[m.end():]
    i = rng.randrange(len(data) + 1)
    byte = bytes([rng.choice(FUZZ_BYTES) if rng.random() < 0.9 else rng.randrange(256)])
    op = rng.randrange(3)  # delete, replace, insert
    return data[:i] + (byte if op else b"") + data[i + (op != 2):]


def _check_fuzzed(capsys, rng, cases, path, docs, argvs, partner=None):
    """Run ``cases`` mutants, each 1-2 ``_fuzz_edit``s of the first document
    of a random pair in ``docs`` written to ``path`` (the second, unedited,
    to ``partner``), through every argv: exit 0 with strict JSON on stdout,
    or exit 1 with nothing on stdout and one stderr line naming ``path``."""
    codes = []
    for _ in range(cases):
        data, other = rng.choice(docs)
        for _ in range(rng.randint(1, 2)):
            data = _fuzz_edit(rng, data)
        path.write_bytes(data)
        if partner is not None:
            partner.write_bytes(other)
        for argv in argvs:
            code, out, err = run_cli(argv, capsys)
            codes.append(code)
            if code == 0:
                json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} in output of {data!r}"))
                assert err == "", data
            else:
                assert code == 1 and out == "", data
                assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, (data, err)
    assert 0 < codes.count(0) < len(codes)


def test_instance_reader_fuzz(tmp_path, capsys):
    """Seeded byte and token edits of symmetric-instance documents through
    ``equilibrium --brute-force``."""
    insts = [SymmetricInstance.from_json_dict(E1_DOC),
             SymmetricInstance(3, 1900, 1750, 150, RhoSchedule((640, 310, -220))),
             SymmetricInstance(4, 100000, 300, 200, RhoSchedule((50, 40, 30, 20))),
             SymmetricInstance(6, 3300, 2875, 1260, RhoSchedule((900, 250, 120, 0, -75, -300)))]
    docs = [(json.dumps(inst.to_json_dict()).encode(), None) for inst in insts]
    path = tmp_path / "inst.json"
    argv = ["equilibrium", "--instance", str(path), "--kind", "both", "--brute-force"]
    _check_fuzzed(capsys, random.Random(1923), FUZZ_CASES, path, docs, [argv])


FUZZ_MARKETS = [
    (MarketInstance.from_cents([[100, 80, 0]] * 3, [10, 0, 0]), [[0, 1, 2], [0, 1, 2], [1, 2, 0]]),
    (MarketInstance.from_cents([[120, 80, 40, 20]] * 4, [10, 5, 0, 0],
                               ["pizza", "chips", "soda", "pretzels"]),
     [[0, 3, 1, 2], [0, 1, 2, 3], [0, 1, 3, 2], [3, 2, 1, 0]]),
    (MarketInstance.from_cents([[2824, 2256, 700, 700, 700], [2600, 2900, 500, 400, 300],
                                [900, 800, 3000, 100, 0], [1500, 1400, 1300, 1200, 1100],
                                [50, 0, 10**15, 7, 7]], [800, 200, 0, -10, -10**12]),
     [[0, 1, 2, 3, 4], [1, 0, 2, 3, 4], [2, 3, 4, 0, 1], [0, 2, 1, 4, 3], [4, 3, 2, 1, 0]]),
]


@pytest.mark.parametrize("reader", ["market", "reports"])
def test_market_and_reports_reader_fuzz(tmp_path, capsys, reader):
    """Seeded byte and token edits of ``to_json_dict`` market documents, or
    of reports documents, each with its unedited partner, through ``expect``
    and ``simulate --profile-reports``; markets also through ``simulate
    --structured-n1``."""
    pairs = [(json.dumps(market.to_json_dict()).encode(),
              json.dumps(reports_to_json_dict([RankList(tuple(r)) for r in reports])).encode())
             for market, reports in FUZZ_MARKETS]
    mp, rp = tmp_path / "market.json", tmp_path / "reports.json"
    argvs = [["expect", "--kind", "boston", "--reports", str(rp), "--market", str(mp)],
             ["simulate", "--kind", "rsd", "--market", str(mp), "--profile-reports", str(rp),
              "--reps", "20", "--seed", "3"]]
    if reader == "market":
        argvs.append(["simulate", "--kind", "rsd", "--market", str(mp), "--structured-n1", "1",
                      "--reps", "20"])
        _check_fuzzed(capsys, random.Random(2031), FUZZ_MARKET_CASES, mp, pairs, argvs, rp)
    else:
        pairs = [(r, m) for m, r in pairs]
        _check_fuzzed(capsys, random.Random(2032), FUZZ_MARKET_CASES, rp, pairs, argvs, mp)


def test_order_fuzz(tmp_path, capsys):
    """Seeded byte and token edits of --order texts through ``mechanism``:
    exit 0 with strict JSON on stdout, or exit 1 with nothing on stdout and
    one stderr line naming --order; never a usage error or a traceback.
    Every order text goes with every reports file, so many mutants that
    are still permutations have the wrong length."""
    rng = random.Random(2121)
    orders, paths = [], []
    for market, reports in FUZZ_MARKETS:
        paths.append(tmp_path / f"reports{market.n}.json")
        paths[-1].write_text(json.dumps({"reports": reports}))
        order = list(range(market.n))
        rng.shuffle(order)
        orders.append(",".join(map(str, order)).encode())
    cases = [(order, path) for order in orders for path in paths]
    codes = []
    for _ in range(FUZZ_CASES):
        data, path = rng.choice(cases)
        for _ in range(rng.randint(1, 2)):
            data = _fuzz_edit(rng, data)
        text = data.decode("latin-1")
        argv = ["mechanism", "--kind", rng.choice(["rsd", "boston"]), "--reports", str(path),
                f"--order={text}"]
        try:
            code, out, err = run_cli(argv, capsys)
        except SystemExit as exc:
            pytest.fail(f"exit {exc.code} for --order {text!r}")
        codes.append(code)
        if code == 0:
            json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} for {text!r}"))
            assert err == "", text
        else:
            assert code == 1 and out == "", text
            assert err.startswith("error: ") and "--order" in err, (text, err)
            assert err.count("\n") == 1, (text, err)
    assert 0 < codes.count(0) < len(codes)
