"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench/check_bench.py

Each output check must reject a corrupted output, so ``failed`` is shown to
count errors; a broken engine must show up as failed jobs; every workload
must run end to end and print exactly the metrics BENCHMARK.json declares;
and the benchmark must refuse a directory without the package sources.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from rankmatch import analysis, cli, elicitation, mechanisms  # noqa: E402
from rankmatch.mechanisms import MechanismKind  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _cli_json(argv: list, out: Path) -> dict:
    assert cli.main(argv + ["--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """Real outputs of small jobs, for the checks to accept and then reject."""
    import random

    work = tmp_path_factory.mktemp("small")
    rng = random.Random(3)
    market, reports = wl.random_market(rng, 4)
    m, r = wl._market_files(work, "4", market, reports)
    sim = _cli_json(["simulate", "--kind", "rsd", "--market", m, "--profile-reports", r,
                     "--reps", "3000", "--seed", "5", "--csv", str(work / "rep.csv")],
                    work / "sim.json")
    expect = _cli_json(["expect", "--kind", "boston", "--reports", r, "--market", m],
                       work / "expect.json")
    inst = wl._write_json(work / "inst.json", wl.random_symmetric(rng, 4).to_json_dict())
    eq = _cli_json(["equilibrium", "--instance", inst, "--brute-force"], work / "eq.json")
    records = wl.session_records(9, wl.SESSION_GROUPS)
    analysis.save_session(records, work / "session.csv")
    counts = {k.value: sum(x.treatment == k for x in records) for k in wl.KINDS}
    with pytest.warns(UserWarning, match="excluded"):
        analyzed = _cli_json(["analyze", "--session", str(work / "session.csv"), "--ols",
                              "--tables", str(work / "tables")], work / "analyze.json")
    bounds = [(min(market.values.rows[i]) + market.rho.values[-1],
               max(market.values.rows[i]) + market.rho.values[0]) for i in range(4)]
    return {"work": work, "sim": sim, "csv": (work / "rep.csv").read_text(),
            "expect": expect, "bounds": bounds,
            "welfare": float(sum(mechanisms.exact_expected_utilities(
                MechanismKind.BOSTON, reports, market))),
            "eq": eq, "analyzed": analyzed, "counts": counts}


def test_histogram_check(small):
    doc = small["sim"]
    assert wl.check_histogram(doc, 3000, 4) == []
    bad = dict(doc, rank_histogram=[doc["rank_histogram"][0] + 1] + doc["rank_histogram"][1:])
    assert wl.check_histogram(bad, 3000, 4)


def test_near_check():
    assert wl.check_near(100.0, 100.4, 0.1, "x") == []
    assert wl.check_near(100.0, 100.6, 0.1, "x")
    assert wl.check_near(100.0, 100.0, 0.0, "x") == []
    assert wl.check_near(100.0, 100.1, 0.0, "x")
    assert wl.check_near(100.0, 100.0, -1.0, "x")


def test_identical_check():
    assert wl.check_identical("a", "a", "x") == []
    assert wl.check_identical("a", "b", "x")


def test_csv_check(small):
    text, mean = small["csv"], small["sim"]["welfare_mean_cents"]
    assert wl.check_replication_csv(text, 3000, 4, mean) == []
    lines = text.splitlines(keepends=True)
    assert wl.check_replication_csv("".join(lines[:-1]), 3000, 4, mean)
    last = lines[-1].rstrip("\r\n").split(",")
    last[-1] = str(int(last[-1]) + 1)
    assert wl.check_replication_csv("".join(lines[:-1]) + ",".join(last) + "\n", 3000, 4, mean)


def test_expect_check(small):
    doc, bounds, welfare = small["expect"], small["bounds"], small["welfare"]
    assert wl.check_expect(doc, 4, bounds, welfare, 1.0) == []
    assert wl.check_expect(doc, 4, bounds, welfare + 10.0, 1.0)
    bad = json.loads(json.dumps(doc))
    bad["expected_utility"][0]["exact"] = "1/7"
    assert wl.check_expect(bad, 4, bounds, welfare, 1.0)


def test_equilibrium_check(small):
    doc = small["eq"]
    assert wl.check_equilibrium(doc) == []
    bad = json.loads(json.dumps(doc))
    bad["boston"]["brute_force_n1_set"] = bad["boston"]["brute_force_n1_set"] + [99]
    assert wl.check_equilibrium(bad)


def test_truthtelling_check():
    assert wl.check_truthtelling([(True, True), (False, True), (False, False)]) == []
    assert wl.check_truthtelling([(True, False)])


def test_pvalue_checks():
    assert wl.check_pvalues(0.4, 0.7, exact=True) == []
    assert wl.check_pvalues(0.3, 0.5, exact=True)
    assert wl.check_pvalues(0.0, 1.0, exact=True)
    assert wl.check_pvalues(1.2, 0.1, exact=False)
    assert wl.check_two_sided(30.0, 0.5, 6, 6, exact=True) == []
    assert wl.check_two_sided(10.0, 0.5, 6, 6, exact=True)
    assert wl.check_two_sided(30.0, 0.0, 6, 6, exact=True)


def test_selftest_check():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["selftest"])
    assert wl.check_selftest(code, buf.getvalue()) == []
    assert wl.check_selftest(code, buf.getvalue().replace("PASS", "FAIL", 1))
    assert wl.check_selftest(1, buf.getvalue())


def test_analyze_checks(small):
    doc, counts = small["analyzed"], small["counts"]
    assert wl.check_analyze(doc, counts, wl.SESSION_RHO) == []
    assert wl.check_analyze(dict(doc, n_subjects=doc["n_subjects"] + 1), counts, wl.SESSION_RHO)
    shifted = (wl.SESSION_RHO[0],) + tuple(r + 100 for r in wl.SESSION_RHO[1:])
    assert wl.check_analyze(doc, counts, shifted)
    assert wl.check_tables(small["work"] / "tables") == []
    (small["work"] / "tables" / "welfare.csv").unlink()
    assert wl.check_tables(small["work"] / "tables")
    assert wl.check_excluded(["group 'g000' has 4 subjects ... excluded from welfare"], 1) == []
    assert wl.check_excluded([], 1)


def test_responses_check(tmp_path):
    import random

    responses = wl.random_responses(random.Random(1), 50)
    path = tmp_path / "responses.csv"
    wl.write_responses(path, responses)
    parsed = elicitation.load_responses(path)
    assert wl.check_responses(parsed, responses) == []
    assert wl.check_responses(parsed[:-1], responses)
    changed = list(parsed)
    changed[0] = (changed[0][0], elicitation.LotteryResponse(
        elicitation.LotteryTask.HOLT_LAURY, 51 - getattr(changed[0][1], "switch_row", 1)))
    assert wl.check_responses(changed, responses)


def test_broken_engine_fails_jobs(tmp_path, monkeypatch):
    """Boston answering with the RSD engine must fail the Boston jobs."""
    workload = wl.build_simulate(4, tmp_path)
    monkeypatch.setattr(mechanisms, "run_boston", mechanisms.run_rsd)
    tally = run.Tally()
    run.run_pass(workload, tally)
    failed = {f["job"] for f in tally.failures}
    assert "fixed_n4_boston" in failed
    assert not any(job.endswith("_rsd") for job in failed)


def test_scaled_wall():
    """Each pass is scaled by its own reference loop time; the median wins."""
    ref = run.REFERENCE_LOOP_S
    passes = [({"a": 1.0, "b": 1.0}, ref), ({"a": 2.0, "b": 2.0}, 2 * ref),
              ({"a": 9.0, "b": 0.0}, ref)]
    assert run.scaled_wall(passes) == pytest.approx(2.0)


def test_importtime_parser():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       100 |        300 |     numpy\n"
            "import time:       200 |        200 |       scipy.linalg\n"
            "import time:        50 |       1000 | rankmatch.cli\n")
    assert run.parse_importtime(text) == {"cli.import_s": 0.001, "cli.import.scipy_s": 0.0002,
                                          "cli.import.numpy_s": 0.0001}


def _bench(args: list, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_untraced(workload):
    proc = _bench(["--workload", workload, "--seed", "1", "--seconds", "0.1",
                   "--trace", "0"], ROOT)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_smoke_traced():
    proc = _bench(["--workload", "exact", "--seed", "1", "--seconds", "0.1", "--trace", "1"], ROOT)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    assert doc["metrics"]["analysis.groups_excluded"]["value"] == 1


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(["--workload", "simulate", "--seed", "1", "--seconds", "1", "--trace", "0"],
                  tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
