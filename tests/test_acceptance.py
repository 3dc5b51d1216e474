"""Acceptance gate: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from rankmatch import analysis
from rankmatch.core import MarketInstance, RankList, RhoSchedule
from rankmatch.elicitation import (
    KeepObject,
    Money,
    MplResponse,
    decode_mpl,
    encode_mpl,
    resolve_mpl_payment,
)
from rankmatch.equilibrium import (
    SymmetricInstance,
    brute_force_equilibria,
    check_truthtelling_equilibrium,
    equilibrium_welfare,
    solve_equilibrium,
)
from rankmatch.mechanisms import (
    MechanismKind,
    TieBreakOrder,
    exact_expected_utilities,
    is_pareto_efficient,
    run_boston,
    run_rsd,
)
from rankmatch.simulation import StrategyProfile, simulate
from rankmatch.stats import jonckheere_terpstra, wilcoxon_ranksum

E1 = SymmetricInstance(5, 2824, 2256, 700, RhoSchedule((800, 200, 0, 0, 0)))


def report(num, name, ok):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {name}")
    assert ok, f"criterion {num} failed: {name}"


def random_instance(rng):
    """Random symmetric instance with a strictly separated top bonus and a
    non-negative schedule; resampled until both mechanisms admit an
    equilibrium in the structured strategy class."""
    while True:
        n = rng.choice([4, 5, 6])
        vbar = rng.randint(0, 500)
        v2 = vbar + rng.randint(1, 2000)
        v1 = v2 + rng.randint(1, 2000)
        tail = sorted((rng.randint(0, 700) for _ in range(n - 1)), reverse=True)
        rho = tuple([tail[0] + rng.randint(1, 300)] + tail)
        inst = SymmetricInstance(n, v1, v2, vbar, RhoSchedule(rho))
        solved = {kind: solve_equilibrium(kind, inst) for kind in MechanismKind}
        if all(s.n1_candidates for s in solved.values()):
            return inst, solved


@pytest.fixture(scope="module")
def instance_suite():
    rng = random.Random(20240901)
    return [random_instance(rng) for _ in range(500)]


def test_criterion_1_small_market_welfare():
    t0 = time.monotonic()
    market = MarketInstance.from_cents([[100, 80, 0]] * 3, [10, 0, 0])
    truthful = [RankList((0, 1, 2))] * 3
    w_rsd = sum(exact_expected_utilities(MechanismKind.RSD, truthful, market))
    boston_eq = [RankList((0, 1, 2)), RankList((0, 1, 2)), RankList((1, 2, 0))]
    w_b = sum(exact_expected_utilities(MechanismKind.BOSTON, boston_eq, market))
    ok = w_rsd == Fraction(190) and w_b == Fraction(200) \
        and time.monotonic() - t0 < 1.0
    report(1, "small-market welfare exact: RSD 1.90, Boston 2.00", ok)


def test_criterion_2_worked_allocations():
    t0 = time.monotonic()
    rsd_reports = [RankList((1, 0, 2, 3)), RankList((0, 1, 2, 3)),
                   RankList((0, 3, 1, 2)), RankList((3, 2, 1, 0))]
    m_rsd = run_rsd(rsd_reports, TieBreakOrder((1, 2, 3, 0)))
    boston_reports = [RankList((0, 3, 1, 2)), RankList((0, 1, 2, 3)),
                      RankList((0, 1, 3, 2)), RankList((3, 2, 1, 0))]
    m_b = run_boston(boston_reports, TieBreakOrder((1, 0, 2, 3)))
    ok = m_rsd.assignment == (1, 0, 3, 2) and m_b.assignment == (2, 0, 1, 3) \
        and time.monotonic() - t0 < 1.0
    report(2, "worked four-agent allocations reproduced exactly", ok)


def test_criterion_3_range_identity(instance_suite):
    t0 = time.monotonic()
    ok = True
    for inst, solved in instance_suite:
        for kind, sol in solved.items():
            if sol.range_lo is not None:
                ok &= abs(float(sol.range_hi - sol.range_lo) - 1.0) < 1e-9
            ok &= set(sol.n1_candidates) == brute_force_equilibria(kind, inst)
            if not ok:
                break
    ok &= time.monotonic() - t0 < 300
    report(3, "500 instances: intervals length 1; closed form == brute force", ok)


def test_criterion_4_equilibrium_ordering(instance_suite):
    ok = all(min(solved[MechanismKind.RSD].n1_candidates)
             >= max(solved[MechanismKind.BOSTON].n1_candidates)
             for _, solved in instance_suite)
    report(4, "500 instances: min n1(RSD) >= max n1(Boston)", ok)


def test_criterion_5_truthtelling_implication():
    rng = random.Random(55)
    ok = True
    boston_truthful = 0
    for _ in range(200):
        n = rng.choice([3, 4, 5])
        vbar = rng.randint(0, 300)
        v2 = vbar + rng.randint(1, 800)
        v1 = v2 + rng.randint(1, 800)
        rho = tuple(sorted((rng.randint(0, 400) for _ in range(n)), reverse=True))
        inst = SymmetricInstance(n, v1, v2, vbar, RhoSchedule(rho))
        if check_truthtelling_equilibrium(MechanismKind.BOSTON, inst):
            boston_truthful += 1
            ok &= check_truthtelling_equilibrium(MechanismKind.RSD, inst)
    small = SymmetricInstance(3, 100, 80, 0, RhoSchedule((10, 0, 0)))
    ok &= check_truthtelling_equilibrium(MechanismKind.RSD, small)
    ok &= not check_truthtelling_equilibrium(MechanismKind.BOSTON, small)
    ok &= boston_truthful >= 1
    report(5, "truthful equilibrium in Boston implies it in RSD (200 instances)", ok)


def test_criterion_6_welfare_comparison(instance_suite):
    t0 = time.monotonic()
    ok = True
    for inst, solved in instance_suite:
        wb = equilibrium_welfare(MechanismKind.BOSTON, inst,
                                 solved[MechanismKind.BOSTON].n1_candidates[0])[0]
        ws = equilibrium_welfare(MechanismKind.RSD, inst,
                                 solved[MechanismKind.RSD].n1_candidates[0])[0]
        ok &= wb >= ws
    wb = equilibrium_welfare(MechanismKind.BOSTON, E1, 3)[0]
    ws = equilibrium_welfare(MechanismKind.RSD, E1, 4)[0]
    ok &= wb == 1800 and ws == 1240
    rb = simulate(MechanismKind.BOSTON, E1, StrategyProfile.structured_n1(5, 3),
                  10 ** 6, seed=61)
    rs = simulate(MechanismKind.RSD, E1, StrategyProfile.structured_n1(5, 4),
                  10 ** 6, seed=62)
    ok &= abs(rb.rho_mean - 1800.0) <= 4 * rb.rho_se + 1e-9
    ok &= abs(rs.rho_mean - 1240.0) <= 4 * rs.rho_se + 1e-9
    ok &= time.monotonic() - t0 < 120
    report(6, "equilibrium rho-welfare Boston >= RSD; E1 18.00 vs 12.40 + MC", ok)


def test_criterion_7_efficiency():
    rng = random.Random(77)
    ok = True
    for _ in range(500):
        reports = [RankList(tuple(rng.sample(range(5), 5))) for _ in range(5)]
        order = TieBreakOrder(tuple(rng.sample(range(5), 5)))
        ok &= is_pareto_efficient(run_rsd(reports, order), reports)
    # Boston under misreports: efficient for the reports, not for the truth
    reports = [RankList((1, 0, 2)), RankList((0, 1, 2)), RankList((2, 0, 1))]
    truth = [RankList((0, 1, 2)), RankList((1, 0, 2)), RankList((2, 1, 0))]
    m = run_boston(reports, TieBreakOrder((0, 1, 2)))
    ok &= is_pareto_efficient(m, reports)
    ok &= not is_pareto_efficient(m, truth)
    report(7, "RSD ex-post efficient on 500 profiles; Boston counterexample", ok)


def test_criterion_8_elicitation():
    t0 = time.monotonic()
    ok = decode_mpl(MplResponse(16, 28)) == 1656
    for s1 in range(1, 51):
        for s2 in range(1, 51):
            ok &= encode_mpl(decode_mpl(MplResponse(s1, s2))) == MplResponse(s1, s2)
    # 27-case payment truth table: 3 responses x 3 draw1 regimes x 3 draw2 rows
    for resp in (MplResponse(16, 28), MplResponse(2, 1), MplResponse(49, 50)):
        for draw1 in (max(1, resp.screen1_row - 1), resp.screen1_row,
                      min(50, resp.screen1_row + 1)):
            for draw2 in (1, resp.screen2_row, min(50, resp.screen2_row + 1)):
                got = resolve_mpl_payment(resp, draw1, draw2)
                if draw1 < resp.screen1_row:
                    want = KeepObject()
                elif draw1 > resp.screen1_row:
                    want = Money(100 * draw1)
                elif draw2 <= resp.screen2_row:
                    want = KeepObject()
                else:
                    want = Money(100 * resp.screen1_row + 2 * draw2)
                ok &= got == want
    ok &= time.monotonic() - t0 < 1.0
    report(8, "MPL decode golden, 2500-pair round trip, payment truth table", ok)


def test_criterion_9_statistics_oracles():
    t0 = time.monotonic()
    _, p_jt = jonckheere_terpstra([[5, 4], [3, 2], [1]], "decreasing")
    _, p_w = wilcoxon_ranksum([1, 2], [3, 4])
    ok = abs(p_jt - 1 / 30) < 1e-12 and abs(p_w - 1 / 3) < 1e-12
    rng = random.Random(17)
    for _ in range(100):
        groups = [[rng.gauss(0, 1) for _ in range(4)] for _ in range(3)]
        _, pe = jonckheere_terpstra(groups, "decreasing", method="exact")
        _, pa = jonckheere_terpstra(groups, "decreasing", method="approx")
        ok &= abs(pe - pa) < 0.02
        a = [rng.gauss(0, 1) for _ in range(6)]
        b = [rng.gauss(0, 1) for _ in range(6)]
        _, pe = wilcoxon_ranksum(a, b, method="exact")
        _, pa = wilcoxon_ranksum(a, b, method="approx")
        ok &= abs(pe - pa) < 0.02
    ok &= time.monotonic() - t0 < 60
    report(9, "JT p=1/30 and Wilcoxon p=1/3 exact; approximations within 0.02", ok)


@pytest.mark.scipy_oracle
def test_criterion_10_pipeline_recovery():
    from scipy import stats as sps  # test-only: the runtime install has no scipy

    t0 = time.monotonic()
    rho = (287, 100, 50, 0, -69)
    recs = analysis.generate_session(20, rho, 0.0, seed=1001)
    summary = analysis.nv_rank_summary(recs)
    ok = all(float(summary[j + 1][1]) == rho[j] for j in range(5))
    # noisy runs: simultaneous (Bonferroni) 95% CI over the five rank means
    hits = 0
    for rep in range(100):
        noisy = analysis.generate_session(20, rho, 200.0, seed=2000 + rep)
        summ = analysis.nv_rank_summary(noisy)
        covered = True
        for j in range(5):
            n, mean, sd = summ[j + 1]
            half = float(sps.t.ppf(1 - 0.025 / 5, n - 1)) * sd / math.sqrt(n)
            covered &= abs(float(mean) - rho[j]) <= half
        hits += covered
    ok &= hits >= 93
    ok &= time.monotonic() - t0 < 120
    report(10, f"planted rho recovered exactly; noisy CI coverage {hits}/100", ok)


def test_criterion_11_cli_determinism(tmp_path):
    e1 = tmp_path / "e1.json"
    e1.write_text(json.dumps(E1.to_json_dict()))
    reports = tmp_path / "r.json"
    reports.write_text(json.dumps(
        {"reports": [[0, 3, 1, 2], [0, 1, 2, 3], [0, 1, 3, 2], [3, 2, 1, 0]]}))
    market = tmp_path / "m.json"
    market.write_text(json.dumps({"n": 4, "goods": ["a", "b", "c", "d"],
                                  "values": [[120, 80, 40, 20]] * 4,
                                  "rho": [10, 5, 0, 0]}))
    recs = analysis.generate_session(6, (287, 100, 50, 0, -69), 120.0, seed=4,
                                     misreport_rate=0.2)
    session = tmp_path / "s.csv"
    analysis.save_session(recs, session)

    commands = [
        ["mechanism", "--kind", "boston", "--reports", str(reports),
         "--order", "1,0,2,3", "--market", str(market)],
        ["expect", "--kind", "rsd", "--reports", str(reports), "--market", str(market)],
        ["equilibrium", "--instance", str(e1), "--brute-force"],
        ["simulate", "--kind", "boston", "--market", str(e1), "--structured-n1", "3",
         "--reps", "100000", "--seed", "11"],
        ["analyze", "--session", str(session), "--ols"],
        ["elicit-decode", "--screen1", "16", "--screen2", "28"],
        ["selftest"],
    ]
    ok = True
    for cmd in commands:
        outs = []
        variants = [cmd, cmd]
        if cmd[0] == "simulate":
            variants = [cmd + ["--threads", "1"], cmd + ["--threads", "8"]]
        for v in variants:
            proc = subprocess.run([sys.executable, "-m", "rankmatch.cli", *v],
                                  capture_output=True)
            ok &= proc.returncode == 0
            outs.append(proc.stdout)
        ok &= outs[0] == outs[1]
    report(11, "every subcommand byte-identical across runs and thread counts", ok)
