"""Workload inputs, jobs and output checks.

Every input is drawn from the workload seed; the program only sees the files
and arguments built here.  A job is one user-facing operation, mostly
``rankmatch.cli.main(argv)`` with ``--out``; the few operations without a
subcommand (JT, Wilcoxon, truth-telling, response ingestion) call the
library.  Each check is a plain function over the job's output that returns
a list of failure messages, so the benchmark's tests can feed it corrupted
outputs.  Checks hold for any seed: invariants, exact identities, and
agreement with an independent estimate within 5 standard errors.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from rankmatch import analysis, cli, elicitation, equilibrium, stats
from rankmatch.core import MarketInstance, RankList, RhoSchedule
from rankmatch.equilibrium import SymmetricInstance
from rankmatch.mechanisms import MechanismKind, exact_expected_utilities
from rankmatch.simulation import StrategyProfile, simulate

KINDS = (MechanismKind.RSD, MechanismKind.BOSTON)
E1 = SymmetricInstance(5, 2824, 2256, 700, RhoSchedule((800, 200, 0, 0, 0)))
E1_N1 = 3
SE_TOLERANCE = 5.0

# Sizes keep one pass near 1 s on 2 cores, so a run holds many passes and
# the median pass rides out this machine's second-scale speed swings.
SIM_STRUCTURED_REPS = 200_000
SIM_FIXED_N4_REPS = 40_000
SIM_FIXED_N10_REPS = 4_000
SIM_CSV_REPS = 2_000
EXPECT_N = 7
EXPECT_SIM_REPS = 20_000
EQ_INSTANCES_PER_N = 8
EQ_SIZES = (3, 4, 5, 6)
JT_EXACT_SIZES = (4, 4, 4)
WILCOXON_EXACT_DESIGNS = 4
SESSION_GROUPS = 1_000  # per treatment
SESSION_RHO = (800, 500, 300, 100, 0)
SESSION_NOISE_SD = 100.0
SESSION_MISREPORT = 0.2
OLS_TOLERANCE_DOLLARS = 0.25
JT_APPROX_PER_RANK = 150
RESPONSE_ROWS = 5_000


@dataclass
class Job:
    """``run`` is timed; ``check(result, warned)`` is not.  ``outputs`` are
    deleted before each run, so a check never reads a previous pass's file."""

    name: str
    run: Callable[[], object]
    check: Callable[[object, list], list]
    outputs: tuple = ()


@dataclass
class Workload:
    name: str
    jobs: list
    # named throughput -> (units of work per pass, jobs whose median times sum)
    rates: dict


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_histogram(doc: dict, reps: int, n: int) -> list:
    hist = doc.get("rank_histogram", [])
    out = []
    if len(hist) != n:
        out.append(f"rank_histogram has {len(hist)} entries, expected {n}")
    if sum(hist) != reps * n:
        out.append(f"rank_histogram sums to {sum(hist)}, expected {reps * n}")
    if doc.get("replications") != reps:
        out.append(f"replications {doc.get('replications')} != {reps}")
    return out


def check_near(value: float, expected: float, se: float, what: str) -> list:
    """Within 5 SE; with SE 0 (every replication alike) the two must agree."""
    if se < 0 or math.isnan(se):
        return [f"{what}: standard error {se} is invalid"]
    if se == 0:
        if math.isclose(value, expected, rel_tol=1e-9, abs_tol=1e-9):
            return []
        return [f"{what}: {value} != {expected} with zero standard error"]
    if abs(value - expected) > SE_TOLERANCE * se:
        return [f"{what}: {value} is {abs(value - expected) / se:.1f} SE from {expected}"]
    return []


def check_identical(a: str, b: str, what: str) -> list:
    return [] if a == b else [f"{what}: outputs differ"]


def check_replication_csv(text: str, reps: int, n: int, welfare_mean: float) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["rep", "agent", "good", "rank", "utility_cents"]:
        return ["csv header is wrong"]
    body = rows[1:]
    out = []
    if len(body) != reps * n:
        out.append(f"csv has {len(body)} rows, expected {reps * n}")
    total = sum(int(r[4]) for r in body)
    # the CSV replays the same tie-break streams as the JSON report
    if not math.isclose(total / reps, welfare_mean, rel_tol=1e-9):
        out.append(f"csv mean welfare {total / reps} != report {welfare_mean}")
    return out


def check_expect(doc: dict, n: int, bounds: list, sim_mean: float, sim_se: float) -> list:
    eus = doc.get("expected_utility", [])
    if len(eus) != n:
        return [f"expected_utility has {len(eus)} entries, expected {n}"]
    out = []
    values = [Fraction(e["exact"]) for e in eus]
    for i, (v, (lo, hi)) in enumerate(zip(values, bounds)):
        if (v * math.factorial(n)).denominator != 1:
            out.append(f"agent {i}: {v} is not a multiple of 1/{n}!")
        if not lo <= v <= hi:
            out.append(f"agent {i}: {v} outside [{lo}, {hi}]")
    out += check_near(float(sum(values)), sim_mean, sim_se, "expected welfare vs simulation")
    return out


def check_equilibrium(doc: dict) -> list:
    out = []
    for kind in KINDS:
        rep = doc.get(kind.value)
        if rep is None:
            out.append(f"{kind.value} report missing")
            continue
        if rep["n1_set"] != rep.get("brute_force_n1_set"):
            out.append(f"{kind.value}: n1_set {rep['n1_set']} != brute force "
                       f"{rep.get('brute_force_n1_set')}")
        if sorted(int(k) for k in rep["welfare"]) != rep["n1_set"]:
            out.append(f"{kind.value}: welfare keys do not match n1_set")
    return out


def check_truthtelling(pairs: list) -> list:
    """Truth-telling in Boston implies truth-telling in RSD."""
    return [f"instance {i}: Boston truthful but RSD not"
            for i, (boston, rsd) in enumerate(pairs) if boston and not rsd]


def check_pvalues(p_dec: float, p_inc: float, exact: bool) -> list:
    out = []
    lo_ok = (lambda p: 0.0 < p <= 1.0) if exact else (lambda p: 0.0 <= p <= 1.0)
    for name, p in (("decreasing", p_dec), ("increasing", p_inc)):
        if not lo_ok(p):
            out.append(f"{name} p-value {p} out of range")
    if p_dec + p_inc < 1.0 - 1e-9:
        out.append(f"one-sided p-values sum to {p_dec + p_inc} < 1")
    return out


def check_two_sided(stat: float, p: float, na: int, nb: int, exact: bool) -> list:
    out = []
    if not (0.0 < p <= 1.0 if exact else 0.0 <= p <= 1.0):
        out.append(f"p-value {p} out of range")
    lo = na * (na + 1) / 2
    if not lo <= stat <= lo + na * nb:
        out.append(f"rank sum {stat} outside [{lo}, {lo + na * nb}]")
    return out


def check_selftest(code: int, text: str) -> list:
    lines = text.splitlines()
    out = [] if code == 0 else [f"selftest exit code {code}"]
    if not lines:
        out.append("selftest printed nothing")
    out += [f"selftest line not PASS: {line!r}" for line in lines
            if not line.startswith("PASS")]
    return out


def check_analyze(doc: dict, counts: dict, planted: tuple) -> list:
    rows = sum(counts.values())
    out = []
    if doc.get("n_subjects") != rows:
        out.append(f"n_subjects {doc.get('n_subjects')} != rows written {rows}")
    by_rank = sum(d["n"] for d in doc.get("net_value_by_rank", {}).values())
    if by_rank != rows:
        out.append(f"net_value_by_rank counts {by_rank} != rows written {rows}")
    for treat, n in counts.items():
        got = doc.get("truth_rates", {}).get(treat, {}).get("n")
        if got != n:
            out.append(f"truth_rates[{treat}].n {got} != {n}")
    if set(doc.get("welfare_mean_cents", {})) != set(counts):
        out.append("welfare_mean_cents treatments are wrong")
    ols = doc.get("net_value_ols", {})
    if "coef" not in ols:
        return out + [f"net_value_ols missing: {ols.get('error')}"]
    if ols["nobs"] != rows:
        out.append(f"ols nobs {ols['nobs']} != {rows}")
    coef = dict(zip(ols["columns"], ols["coef"]))
    for rank in range(2, 6):
        want = (planted[rank - 1] - planted[0]) / 100.0
        if abs(coef[f"rank{rank}"] - want) > OLS_TOLERANCE_DOLLARS:
            out.append(f"rank{rank} coefficient {coef[f'rank{rank}']:.3f} != planted {want:.2f}")
    return out


def check_tables(directory: Path) -> list:
    expected = {"net_value_by_rank.csv": 6, "truth_rates.csv": 13, "welfare.csv": 3,
                "net_value_ols.csv": 12}
    out = []
    for name, lines in expected.items():
        path = directory / name
        if not path.is_file():
            out.append(f"table {name} missing")
        elif len(path.read_text().splitlines()) != lines:
            out.append(f"table {name} does not have {lines} lines")
    return out


def check_excluded(warned: list, expected: int) -> list:
    got = sum("excluded from welfare" in w for w in warned)
    return [] if got == expected else [f"{got} groups excluded, expected {expected}"]


def check_responses(parsed: list, expected: list) -> list:
    if len(parsed) != len(expected):
        return [f"{len(parsed)} responses read, expected {len(expected)}"]
    bad = sum(p != e for p, e in zip(parsed, expected))
    return [f"{bad} responses differ from the rows written"] if bad else []


# ---------------------------------------------------------------------------
# input helpers
# ---------------------------------------------------------------------------

def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def random_market(rng: random.Random, n: int) -> tuple[MarketInstance, list]:
    values = [[rng.randint(0, 3000) for _ in range(n)] for _ in range(n)]
    rho = sorted((rng.randint(0, 800) for _ in range(n)), reverse=True)
    reports = [RankList(tuple(rng.sample(range(n), n))) for _ in range(n)]
    return MarketInstance.from_cents(values, rho), reports


def random_symmetric(rng: random.Random, n: int) -> SymmetricInstance:
    vbar = rng.randint(0, 500)
    v2 = vbar + rng.randint(1, 2000)
    v1 = v2 + rng.randint(1, 2000)
    tail = sorted((rng.randint(0, 700) for _ in range(n - 1)), reverse=True)
    return SymmetricInstance(n, v1, v2, vbar,
                             RhoSchedule(tuple([tail[0] + rng.randint(1, 300)] + tail)))


def _market_files(work: Path, tag: str, market: MarketInstance, reports: list):
    m = _write_json(work / f"market{tag}.json", market.to_json_dict())
    r = _write_json(work / f"reports{tag}.json", {"reports": [list(x.order) for x in reports]})
    return m, r


def _cli(argv: list) -> Callable[[], int]:
    return lambda: cli.main(argv)


def _read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _per_kind(prefix: str) -> list:
    return [f"{prefix}_{k.value}" for k in KINDS]


def _with_exit(check: Callable[[], list]) -> Callable[[object, list], list]:
    """Wrap a file-reading check: a non-zero exit code fails the job."""
    def run(code, warned):
        if code != 0:
            return [f"exit code {code}"]
        return check()
    return run


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def build_simulate(seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    e1 = _write_json(work / "e1.json", E1.to_json_dict())
    market4, reports4 = random_market(rng, 4)
    m4, r4 = _market_files(work, "4", market4, reports4)
    m10, r10 = _market_files(work, "10", *random_market(rng, 10))
    jobs = []

    def sim(tag, kind, args, reps, n, extra_check):
        """``extra_check(doc, text)`` adds checks beyond the histogram."""
        out = work / f"{tag}.json"
        argv = ["simulate", "--kind", kind.value, *args, "--reps", str(reps),
                "--seed", str(seed), "--out", str(out)]

        def check():
            text = out.read_text()
            doc = json.loads(text)
            return check_histogram(doc, reps, n) + extra_check(doc, text)
        jobs.append(Job(tag, _cli(argv), _with_exit(check), (out,)))
        return out

    def near(expected, what):
        return lambda doc, text: check_near(doc["welfare_mean_cents"], expected,
                                            doc["welfare_se_cents"], what)

    for kind in KINDS:
        struct = ["--market", e1, "--structured-n1", str(E1_N1)]
        t1 = sim(f"structured_t1_{kind.value}", kind, struct + ["--threads", "1"],
                 SIM_STRUCTURED_REPS, E1.n,
                 near(float(equilibrium.equilibrium_welfare(kind, E1, E1_N1)[1]),
                      "welfare vs equilibrium"))
        sim(f"structured_t2_{kind.value}", kind, struct + ["--threads", "2"],
            SIM_STRUCTURED_REPS, E1.n,
            lambda doc, text, t1=t1: check_identical(text, t1.read_text(),
                                                     "threads 1 vs 2"))
        sim(f"fixed_n4_{kind.value}", kind, ["--market", m4, "--profile-reports", r4],
            SIM_FIXED_N4_REPS, 4,
            near(float(sum(exact_expected_utilities(kind, reports4, market4))),
                 "welfare vs exact"))
        sim(f"fixed_n10_{kind.value}", kind, ["--market", m10, "--profile-reports", r10],
            SIM_FIXED_N10_REPS, 10, lambda doc, text: [])

    csv_path = work / "replications.csv"
    csv_out = work / "csv_n10.json"
    argv = ["simulate", "--kind", "rsd", "--market", m10, "--profile-reports", r10,
            "--reps", str(SIM_CSV_REPS), "--seed", str(seed), "--csv", str(csv_path),
            "--out", str(csv_out)]
    jobs.append(Job("csv_n10_rsd", _cli(argv), _with_exit(
        lambda: check_replication_csv(csv_path.read_text(), SIM_CSV_REPS, 10,
                                      _read_json(csv_out)["welfare_mean_cents"])),
        (csv_path, csv_out)))

    return Workload("simulate", jobs, {
        "sim_structured_reps_per_s": (2 * SIM_STRUCTURED_REPS, _per_kind("structured_t1")),
        "sim_structured_t2_reps_per_s": (2 * SIM_STRUCTURED_REPS, _per_kind("structured_t2")),
        "sim_fixed_n4_reps_per_s": (2 * SIM_FIXED_N4_REPS, _per_kind("fixed_n4")),
        "sim_fixed_n10_reps_per_s": (2 * SIM_FIXED_N10_REPS, _per_kind("fixed_n10")),
        "sim_csv_rows_per_s": (SIM_CSV_REPS * 10, ["csv_n10_rsd"]),
    })


def build_exact(seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    market, reports = random_market(rng, EXPECT_N)
    m7, r7 = _market_files(work, "7", market, reports)
    rho = market.rho.values
    bounds = [(min(market.values.rows[i]) + rho[-1], max(market.values.rows[i]) + rho[0])
              for i in range(EXPECT_N)]
    jobs = []
    for kind in KINDS:
        sim = simulate(kind, market, StrategyProfile.fixed_reports(reports),
                       EXPECT_SIM_REPS, seed)
        out = work / f"expect_{kind.value}.json"
        argv = ["expect", "--kind", kind.value, "--reports", r7, "--market", m7,
                "--out", str(out)]
        jobs.append(Job(f"expect_n{EXPECT_N}_{kind.value}", _cli(argv), _with_exit(
            lambda o=out, s=sim: check_expect(_read_json(o), EXPECT_N, bounds,
                                              s.welfare_mean, s.welfare_se)), (out,)))

    instances = [random_symmetric(rng, n) for n in EQ_SIZES
                 for _ in range(EQ_INSTANCES_PER_N)]
    paths = [_write_json(work / f"instance{i}.json", inst.to_json_dict())
             for i, inst in enumerate(instances)]
    outs = [work / f"equilibrium{i}.json" for i in range(len(paths))]

    def run_equilibria():
        return [cli.main(["equilibrium", "--instance", p, "--kind", "both",
                          "--brute-force", "--out", str(o)]) for p, o in zip(paths, outs)]

    def check_equilibria(codes, warned):
        out = [f"instance {i}: exit code {c}" for i, c in enumerate(codes) if c]
        for i, o in enumerate(outs):
            out += [f"instance {i}: {m}" for m in check_equilibrium(_read_json(o))]
        return out
    jobs.append(Job("equilibrium_brute_force", run_equilibria, check_equilibria, tuple(outs)))

    def run_truthtelling():
        return [(equilibrium.check_truthtelling_equilibrium(MechanismKind.BOSTON, inst),
                 equilibrium.check_truthtelling_equilibrium(MechanismKind.RSD, inst))
                for inst in instances]
    jobs.append(Job("truthtelling", run_truthtelling, lambda r, w: check_truthtelling(r)))

    jt_groups = [[rng.randint(0, 20) for _ in range(k)] for k in JT_EXACT_SIZES]

    def run_jt():
        return (stats.jonckheere_terpstra(jt_groups, "decreasing", method="exact")[1],
                stats.jonckheere_terpstra(jt_groups, "increasing", method="exact")[1])
    jobs.append(Job("jt_exact_3x4", run_jt, lambda r, w: check_pvalues(*r, exact=True)))

    designs = [([rng.randint(0, 30) for _ in range(6)], [rng.randint(0, 30) for _ in range(6)])
               for _ in range(WILCOXON_EXACT_DESIGNS)]

    def run_wilcoxon():
        return [stats.wilcoxon_ranksum(a, b, method="exact") for a, b in designs]
    jobs.append(Job("wilcoxon_exact_n12", run_wilcoxon, lambda r, w: [
        m for stat, p in r for m in check_two_sided(stat, p, 6, 6, exact=True)]))

    def run_selftest():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["selftest"])
        return code, buf.getvalue()
    jobs.append(Job("selftest", run_selftest, lambda r, w: check_selftest(*r)))

    return Workload("exact", jobs, {
        "expect_orders_per_s": (2 * math.factorial(EXPECT_N), _per_kind(f"expect_n{EXPECT_N}")),
        "equilibrium_instances_per_s": (len(instances), ["equilibrium_brute_force"]),
        "exact_tests_per_s": (2 + WILCOXON_EXACT_DESIGNS, ["jt_exact_3x4", "wilcoxon_exact_n12"]),
    })


def session_records(seed: int, groups: int) -> list:
    """Both treatments with a planted rho, minus one subject of the first
    RSD group so the incomplete-group exclusion runs."""
    records = []
    for i, kind in enumerate(KINDS):
        records += analysis.generate_session(groups, SESSION_RHO, SESSION_NOISE_SD,
                                             seed + 7919 * i, kind, SESSION_MISREPORT)
    del records[analysis.GROUP_SIZE - 1]
    return records


def random_responses(rng: random.Random, rows: int) -> list:
    out = []
    for i in range(rows):
        task = rng.choice(("mpl", "holt_laury", "loss_aversion"))
        if task == "mpl":
            resp = elicitation.MplResponse(rng.randint(0, 50), rng.randint(1, 50))
        else:
            resp = elicitation.LotteryResponse(elicitation.LotteryTask(task),
                                               rng.randint(1, 50))
        out.append((f"s{i}", resp))
    return out


def write_responses(path: Path, responses: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(elicitation.RESPONSE_COLUMNS)
        for sid, r in responses:
            if isinstance(r, elicitation.MplResponse):
                writer.writerow([sid, "mpl", r.screen1_row, r.screen2_row, ""])
            else:
                writer.writerow([sid, r.task.value, "", "", r.switch_row])


def build_session(seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    records = session_records(seed, SESSION_GROUPS)
    session = work / "session.csv"
    analysis.save_session(records, session)
    counts = {k.value: sum(r.treatment == k for r in records) for k in KINDS}
    jobs = []

    def analyze(tag, extra, tables):
        out = work / f"{tag}.json"
        argv = ["analyze", "--session", str(session), "--ols", *extra, "--out", str(out)]

        def check(code, warned):
            if code != 0:
                return [f"exit code {code}"]
            res = check_analyze(_read_json(out), counts, SESSION_RHO)
            res += check_excluded(warned, 1)
            return res + (check_tables(tables) if tables else [])
        jobs.append(Job(tag, _cli(argv), check, (out, tables) if tables else (out,)))

    tables = work / "tables"
    analyze("analyze_ols_robust_tables", ["--robust", "--tables", str(tables)], tables)
    analyze("analyze_ols", [], None)

    by_rank: dict = {}
    for r in records:
        by_rank.setdefault(r.rank_received, []).append(r.net_value)
    jt_groups = [rng.sample(v, min(len(v), JT_APPROX_PER_RANK))
                 for _, v in sorted(by_rank.items())]

    def run_jt():
        return (stats.jonckheere_terpstra(jt_groups, "decreasing", method="approx")[1],
                stats.jonckheere_terpstra(jt_groups, "increasing", method="approx")[1])

    def check_jt(r, warned):
        out = check_pvalues(*r, exact=False)
        # the planted rho falls with rank, so the trend is overwhelming
        if not r[0] < 1e-6:
            out.append(f"decreasing trend not detected, p = {r[0]}")
        return out
    jobs.append(Job("jt_approx_rank", run_jt, check_jt))

    nv = {k: [r.net_value for r in records if r.treatment == k] for k in KINDS}
    na, nb = len(nv[KINDS[0]]), len(nv[KINDS[1]])
    jobs.append(Job("wilcoxon_approx_treatment",
                    lambda: stats.wilcoxon_ranksum(nv[KINDS[0]], nv[KINDS[1]], method="approx"),
                    lambda r, w: check_two_sided(*r, na, nb, exact=False)))

    responses = random_responses(rng, RESPONSE_ROWS)
    resp_path = work / "responses.csv"
    write_responses(resp_path, responses)
    jobs.append(Job("load_responses", lambda: elicitation.load_responses(resp_path),
                    lambda r, w: check_responses(r, responses)))

    return Workload("session", jobs, {"analyze_rows_per_s": (len(records), ["analyze_ols"])})


BUILDERS = {"simulate": build_simulate, "exact": build_exact, "session": build_session}
