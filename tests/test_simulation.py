import concurrent.futures
import csv
import dataclasses
import io
import json
import math
import random
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from rankmatch import cli, prng, simulation
from rankmatch.core import MarketInstance, RankList, RhoSchedule, build_outcome
from rankmatch.equilibrium import (
    SymmetricInstance,
    boston_group_eu,
    equilibrium_welfare,
    sd_group_eu,
)
from rankmatch.mechanisms import (
    MechanismKind,
    TieBreakOrder,
    _rsd_expected_utilities,
    exact_expected_utilities,
    run_mechanism,
)
from rankmatch.simulation import (
    StrategyProfile,
    rank_distribution,
    simulate,
    write_replication_csv,
)

GOLDEN = Path(__file__).parent / "data" / "golden"
E1 = SymmetricInstance(5, 2824, 2256, 700, RhoSchedule((800, 200, 0, 0, 0)))
SMALL = MarketInstance.from_cents([[100, 80, 0]] * 3, [10, 0, 0])


def test_profile_validation():
    with pytest.raises(ValueError):
        StrategyProfile()
    with pytest.raises(ValueError):
        StrategyProfile.structured((1, 3))
    with pytest.raises(ValueError):
        StrategyProfile.structured_n1(4, 5)
    with pytest.raises(ValueError):
        simulate(MechanismKind.RSD, SMALL, StrategyProfile.structured_n1(3, 1), 0, 1)


@pytest.mark.parametrize("threads", [0, -7])
def test_threads_below_one_rejected(threads):
    profile = StrategyProfile.fixed_reports([RankList((0, 1, 2))] * 3)
    with pytest.raises(ValueError, match="threads must be >= 1"):
        simulate(MechanismKind.RSD, SMALL, profile, 10, seed=1, threads=threads)


def test_structured_requires_symmetric_market():
    market = MarketInstance.from_cents([[100, 70, 0], [70, 100, 0], [0, 70, 100]],
                                       [10, 0, 0])
    with pytest.raises(ValueError):
        simulate(MechanismKind.RSD, market, StrategyProfile.structured_n1(3, 2), 10, 1)


def test_small_market_welfare_is_constant():
    profile = StrategyProfile.fixed_reports([RankList((0, 1, 2))] * 3)
    rep = simulate(MechanismKind.RSD, SMALL, profile, 500, seed=1)
    assert rep.welfare_mean == 190.0 and rep.welfare_se == 0.0
    boston = StrategyProfile.fixed_reports(
        [RankList((0, 1, 2)), RankList((0, 1, 2)), RankList((1, 2, 0))])
    rep = simulate(MechanismKind.BOSTON, SMALL, boston, 500, seed=1)
    assert rep.welfare_mean == 200.0 and rep.welfare_se == 0.0


def test_fixed_agrees_with_exact_enumeration():
    reports = [RankList((0, 1, 2, 3, 4)), RankList((0, 1, 2, 3, 4)),
               RankList((1, 0, 2, 3, 4)), RankList((2, 3, 4, 0, 1)),
               RankList((0, 2, 1, 4, 3))]
    market = E1.market()
    profile = StrategyProfile.fixed_reports(reports)
    for kind in MechanismKind:
        rep = simulate(kind, market, profile, 200_000, seed=9)
        exact = float(sum(exact_expected_utilities(kind, reports, market)))
        assert abs(rep.welfare_mean - exact) <= 4 * rep.welfare_se + 1e-9


def test_fixed_rsd_at_n10_agrees_with_subset_dp():
    """At n = 10, past the n! enumeration's reach, fixed-profile RSD Monte
    Carlo welfare lies within 4 SE of the subset DP's exact welfare."""
    rng = random.Random(1010)
    n = 10
    values = [[rng.randint(0, 3000) for _ in range(n)] for _ in range(n)]
    rho = sorted((rng.randint(-200, 800) for _ in range(n)), reverse=True)
    reports = [RankList(tuple(rng.sample(range(n), n))) for _ in range(n)]
    market = MarketInstance.from_cents(values, rho)
    rep = simulate(MechanismKind.RSD, market, StrategyProfile.fixed_reports(reports),
                   20_000, seed=10)
    exact = float(sum(_rsd_expected_utilities(reports, market)))
    assert rep.welfare_se > 0
    assert abs(rep.welfare_mean - exact) <= 4 * rep.welfare_se


def test_structured_matches_closed_form_eu():
    rep = simulate(MechanismKind.BOSTON, E1, StrategyProfile.structured_n1(5, 3),
                   400_000, seed=42)
    u1, u2 = boston_group_eu(E1, 3)
    assert abs(rep.group_eu["x1_first"] - float(u1)) < 2.0
    assert abs(rep.group_eu["x2_first"] - float(u2)) < 2.0
    wrho, _ = equilibrium_welfare(MechanismKind.BOSTON, E1, 3)
    assert abs(rep.rho_mean - float(wrho)) <= 4 * rep.rho_se + 1e-9

    rep = simulate(MechanismKind.RSD, E1, StrategyProfile.structured_n1(5, 4),
                   400_000, seed=42)
    s1, s2 = sd_group_eu(E1, 4)
    assert abs(rep.group_eu["x1_first"] - float(s1)) < 3.0
    assert abs(rep.group_eu["x2_first"] - float(s2)) < 3.0
    wrho, _ = equilibrium_welfare(MechanismKind.RSD, E1, 4)
    assert abs(rep.rho_mean - float(wrho)) <= 4 * rep.rho_se + 1e-9


EXACT_SUM_CASES = pytest.mark.parametrize(
    "kind,n1", [(MechanismKind.BOSTON, 3), (MechanismKind.BOSTON, 5),
                (MechanismKind.BOSTON, 0), (MechanismKind.RSD, 4)])


@pytest.mark.parametrize("block_size", [7, simulation.BLOCK_SIZE])
@EXACT_SUM_CASES
def test_structured_sums_exact_past_int64(monkeypatch, block_size, kind, n1):
    _check_structured_sums_exact(monkeypatch, block_size, None, kind, n1)


@pytest.mark.parametrize("block_size", [7, simulation.BLOCK_SIZE])
@EXACT_SUM_CASES
def test_structured_sums_exact_past_int64_ragged_chunks(monkeypatch, block_size, kind, n1):
    # chunks of 3 rows split blocks of 7 and 65536 raggedly
    _check_structured_sums_exact(monkeypatch, block_size, 3, kind, n1)


def _check_structured_sums_exact(monkeypatch, block_size, chunk_rows, kind, n1):
    # adding D to every value adds D to each utility and n * D to each welfare
    # and leaves every draw alone; at D = 10**15 the sums of squares pass
    # 2**63, so the block sums are Python ints
    D, reps, n = 10**15, 23, E1.n
    monkeypatch.setattr(simulation, "BLOCK_SIZE", block_size)
    if chunk_rows:
        monkeypatch.setattr(simulation, "CHUNK_CELLS", chunk_rows * n)
    big = SymmetricInstance(n, E1.v1 + D, E1.v2 + D, E1.vbar + D, E1.rho)
    assert simulation._sum_dtype(n * (big.v1 + 800), reps) is object
    profile = StrategyProfile.structured_n1(n, n1)
    small = simulate(kind, E1, profile, reps, seed=11)
    shifted = simulate(kind, big, profile, reps, seed=11)
    assert shifted.rank_histogram == small.rank_histogram
    assert (shifted.rho_mean, shifted.rho_se) == (small.rho_mean, small.rho_se)
    assert shifted.welfare_se == small.welfare_se  # exact integer variance
    w_sum = round(Fraction(small.welfare_mean) * reps)
    assert shifted.welfare_mean == (w_sum + reps * n * D) / reps
    for got, ref in zip(shifted.agent_eu_mean, small.agent_eu_mean):
        assert got == (round(Fraction(ref) * reps) + reps * D) / reps


def test_structured_corner_and_all_x2():
    rep = simulate(MechanismKind.BOSTON, E1, StrategyProfile.structured_n1(5, 5),
                   50_000, seed=3)
    # winner of round 1 plus runner-up in round 2, rest uniform on 3..5
    assert rep.rank_histogram[0] == 50_000 and rep.rank_histogram[1] == 50_000
    rep = simulate(MechanismKind.BOSTON, E1, StrategyProfile.structured_n1(5, 0),
                   50_000, seed=3)
    assert rep.rank_histogram[0] == 50_000  # the lone x2 winner each rep


def test_boston_corner_is_rsd():
    # at n1 = n Boston's lists (x1, x2, lowers) give x1 in round 1 and x2 at
    # rank 2 in round 2, as RSD's first two picks do: the reports differ
    # only in the mechanism
    rsd, boston = (json.loads((GOLDEN / f"simulate_{kind}_n1_5.json").read_text())
                   for kind in ("rsd", "boston"))
    assert (rsd.pop("mechanism"), boston.pop("mechanism")) == ("rsd", "boston")
    assert rsd == boston
    for n in range(3, 7):
        inst = _structured_instances(n)[0]
        profile = StrategyProfile.structured_n1(n, n)
        for threads in (1, 2):
            reps = simulation.BLOCK_SIZE + 5  # two blocks
            rsd, boston = (simulate(kind, inst, profile, reps, seed=n, threads=threads)
                           for kind in (MechanismKind.RSD, MechanismKind.BOSTON))
            assert dataclasses.replace(boston, mechanism=MechanismKind.RSD) == rsd


def test_rank_distribution():
    # distinct first choices: everyone gets rank 1
    reports = [RankList((0, 1, 2)), RankList((1, 2, 0)), RankList((2, 0, 1))]
    fracs = rank_distribution(MechanismKind.BOSTON, SMALL,
                              StrategyProfile.fixed_reports(reports), 100, seed=1)
    assert fracs[0] == 1.0
    # identical lists under RSD: uniform over ranks
    market = MarketInstance.from_cents([[40, 30, 20, 10]] * 4, [0, 0, 0, 0])
    fracs = rank_distribution(MechanismKind.RSD, market,
                              StrategyProfile.fixed_reports([RankList((0, 1, 2, 3))] * 4),
                              50_000, seed=1)
    assert fracs == (0.25, 0.25, 0.25, 0.25)


def test_boston_beats_rsd_rank1_at_equilibrium():
    fb = rank_distribution(MechanismKind.BOSTON, E1,
                           StrategyProfile.structured_n1(5, 3), 200_000, seed=8)
    fs = rank_distribution(MechanismKind.RSD, E1,
                           StrategyProfile.structured_n1(5, 4), 200_000, seed=8)
    assert fb[0] >= fs[0]


def test_determinism_across_threads_and_runs():
    profile = StrategyProfile.structured_n1(5, 3)
    r1 = simulate(MechanismKind.BOSTON, E1, profile, 150_000, seed=5, threads=1)
    r2 = simulate(MechanismKind.BOSTON, E1, profile, 150_000, seed=5, threads=8)
    r3 = simulate(MechanismKind.BOSTON, E1, profile, 150_000, seed=5, threads=1)
    assert r1 == r2 == r3
    r4 = simulate(MechanismKind.BOSTON, E1, profile, 150_000, seed=6)
    assert r4 != r1


def test_pool_bounds_blocks_in_flight(monkeypatch):
    """A stub block over 2 000 one-replication blocks, on 4 workers and more
    threads than cores: at most two blocks per worker are started and not
    yet merged at any block start, and the blocks merge in index order."""
    monkeypatch.setattr(simulation, "BLOCK_SIZE", 1)
    monkeypatch.setattr(simulation.os, "cpu_count", lambda: 4)
    lock = threading.Lock()
    started, merged, in_flight = [0], [], []

    def block(table, inst, reps, seed, b):
        with lock:
            started[0] += 1
            in_flight.append(started[0] - len(merged))
        return simulation._Acc(reps, b, b * b, np.zeros((inst.n, inst.n), dtype=np.int64))

    add = simulation._Acc.add

    def merge(acc, other):
        with lock:
            merged.append(other.w_sumsq)
        add(acc, other)
    monkeypatch.setattr(simulation, "_structured_block", block)
    monkeypatch.setattr(simulation._Acc, "add", merge)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        simulate(MechanismKind.RSD, E1, StrategyProfile.structured_n1(5, 3), 2_000,
                 seed=1, threads=8)
    finally:
        sys.setswitchinterval(interval)
    assert merged == list(range(2_000))
    assert len(in_flight) == 2_000 and max(in_flight) <= 2 * 4


def test_histogram_sums():
    rep = simulate(MechanismKind.RSD, E1, StrategyProfile.structured_n1(5, 2),
                   10_000, seed=2)
    assert sum(rep.rank_histogram) == 10_000 * 5
    assert math.isclose(sum(rep.rank_fractions()), 1.0)


def test_replication_csv(tmp_path):
    profile = StrategyProfile.fixed_reports([RankList((0, 1, 2))] * 3)
    path = tmp_path / "reps.csv"
    write_replication_csv(MechanismKind.RSD, SMALL, profile, 10, seed=1, path=path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "rep,agent,good,rank,utility_cents"
    assert len(lines) == 1 + 10 * 3


def _scalar_reference(kind, market, reports, reps, seed):
    """The scalar engine's outcome of every replication, over the orders
    ``simulate`` draws: one Philox stream (seed, block) per block of
    BLOCK_SIZE reps.  Each distinct order runs once."""
    n = market.n
    outcomes = []
    by_order = {}
    block = 0
    while len(outcomes) < reps:
        size = min(simulation.BLOCK_SIZE, reps - len(outcomes))
        orders = np.tile(np.arange(n), (size, 1))
        prng.generator(seed, block).permuted(orders, axis=1, out=orders)
        for order in map(tuple, orders.tolist()):
            if order not in by_order:
                matching = run_mechanism(kind, reports, TieBreakOrder(order))
                by_order[order] = build_outcome(matching, reports, market)
            outcomes.append(by_order[order])
        block += 1
    return outcomes


def _expected_csv(outs, n):
    """The ``--csv`` text of the scalar outcomes, from ``csv.writer``."""
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["rep", "agent", "good", "rank", "utility_cents"])
    for r, out in enumerate(outs):
        for i in range(n):
            writer.writerow([r, i, out.matching.good_of(i), out.received_rank[i],
                             out.utility[i]])
    return expected.getvalue()


def _exact_se(values):
    count = len(values)
    mean = Fraction(sum(values), count)
    var = sum((v - mean) ** 2 for v in values) / (count - 1)
    return math.sqrt(var / count)


def _fixed_cases():
    rng = random.Random(17)
    n = 5
    values = [[rng.randint(0, 3000) for _ in range(n)] for _ in range(n)]
    reports = [RankList(tuple(rng.sample(range(n), n))) for _ in range(n)]
    reports[3] = reports[1]
    yield MarketInstance.from_cents(values, [500, 300, 0, -50, -90]), reports
    # cents this large overflow int64 sums of squares: exact Python ints
    big = [[10**15 + rng.randint(0, 10**12) for _ in range(n)] for _ in range(n)]
    yield MarketInstance.from_cents(big, [10**13, 10**12, 0, 0, 0]), reports
    # three agents have 6 orders: blocks of 7 run each drawn order once,
    # weighted by its count, and the last block of 2 runs both its rows
    values = [[rng.randint(0, 3000) for _ in range(3)] for _ in range(3)]
    yield (MarketInstance.from_cents(values, [400, 0, -20]),
           [RankList(tuple(rng.sample(range(3), 3))) for _ in range(3)])


@pytest.mark.parametrize("kind", list(MechanismKind))
def test_fixed_profile_matches_scalar_reference(tmp_path, monkeypatch, kind):
    monkeypatch.setattr(simulation, "BLOCK_SIZE", 7)
    monkeypatch.setattr(simulation, "CHUNK_CELLS", 3 * 5)  # 3 rows at n = 5
    reps, seed = 23, 5  # blocks of 7, 7, 7 and 2; chunks of 3, 3, 1, 2
    for market, reports in _fixed_cases():
        n = market.n
        outs = _scalar_reference(kind, market, reports, reps, seed)
        profile = StrategyProfile.fixed_reports(reports)
        rep = simulate(kind, market, profile, reps, seed)

        hist = [0] * n
        for out in outs:
            for r in out.received_rank:
                hist[r - 1] += 1
        welfare = [out.welfare_total for out in outs]
        rho = [out.rho_total for out in outs]
        assert rep.rank_histogram == tuple(hist)
        assert rep.welfare_mean == sum(welfare) / reps
        assert rep.rho_mean == sum(rho) / reps
        assert rep.agent_eu_mean == tuple(sum(o.utility[i] for o in outs) / reps
                                          for i in range(n))
        assert math.isclose(rep.welfare_se, _exact_se(welfare), rel_tol=1e-12)
        assert math.isclose(rep.rho_se, _exact_se(rho), rel_tol=1e-12)

        path = tmp_path / "reps.csv"
        assert write_replication_csv(kind, market, profile, reps, seed, path) == rep
        assert path.read_bytes().decode() == _expected_csv(outs, n)


@pytest.mark.parametrize("kind", list(MechanismKind))
@pytest.mark.parametrize("scale,chunk_fits_int64", [(6_000_000, True), (10**15, False)])
def test_fixed_sums_exact_under_count_weights(tmp_path, kind, scale, chunk_fits_int64):
    """Three agents have 6 orders, so each distinct row of a full block
    stands for about 10 900 replications.  Near 2e7 cents of welfare the
    squares of a chunk's rows sum below 2**63 but a block's replications
    pass it; near 3e15 even one square does.  The report equals exact
    integer sums over the scalar engine's replay of the same draws, and the
    ``--csv`` text of both blocks equals the replay's."""
    n, reps, seed = 3, simulation.BLOCK_SIZE + 4_321, 8  # two blocks
    top, mid = scale + 600_000, scale + 300_000
    market = MarketInstance.from_cents([[top, mid, scale], [scale, top, mid], [mid, scale, top]],
                                       [50_000, 10_000, 0])
    reports = [RankList((0, 1, 2)), RankList((0, 2, 1)), RankList((1, 0, 2))]
    outs = _scalar_reference(kind, market, reports, reps, seed)
    welfare = [out.welfare_total for out in outs]
    rho = [out.rho_total for out in outs]
    w_sq = sum(w * w for w in welfare)
    assert w_sq >= 2**63
    assert (simulation._chunk_rows(n) * max(welfare) ** 2 < 2**63) == chunk_fits_int64

    rep = simulate(kind, market, StrategyProfile.fixed_reports(reports), reps, seed)
    hist = [0] * n
    for out in outs:
        for r in out.received_rank:
            hist[r - 1] += 1
    assert rep.rank_histogram == tuple(hist)
    assert (rep.welfare_mean, rep.welfare_se) == simulation._mean_se(sum(welfare), w_sq, reps)
    assert (rep.rho_mean, rep.rho_se) == simulation._mean_se(sum(rho),
                                                             sum(r * r for r in rho), reps)
    assert rep.agent_eu_mean == tuple(sum(out.utility[i] for out in outs) / reps
                                      for i in range(n))
    path = tmp_path / "reps.csv"
    assert write_replication_csv(kind, market, StrategyProfile.fixed_reports(reports),
                                 reps, seed, path) == rep
    assert path.read_bytes().decode() == _expected_csv(outs, n)


def test_sum_dtype_covers_rho_totals_where_values_cancel(tmp_path):
    # good 3 is worth 10**15 cents to everyone and sits at rank 4, where rho
    # is -10**15: every utility is small, but each replication's rho total
    # is near -10**15, so its square needs Python ints
    market = MarketInstance.from_cents([[300, 200, 100, 10**15]] * 4, [50, 20, 0, -10**15])
    profile = StrategyProfile.fixed_reports([RankList((0, 1, 2, 3))] * 4)
    rep = simulate(MechanismKind.RSD, market, profile, 5_000, seed=3)
    assert (rep.rho_mean, rep.rho_se) == (-999999999999930.0, 0.0)
    assert (rep.welfare_mean, rep.welfare_se) == (670.0, 0.0)
    assert rep.rank_histogram == (5_000,) * 4
    path = tmp_path / "reps.csv"
    assert write_replication_csv(MechanismKind.RSD, market, profile, 5_000, 3, path) == rep


@pytest.mark.parametrize("kind", list(MechanismKind))
def test_replication_csv_at_n10_matches_scalar_reference(tmp_path, kind):
    # 10! orders against 3 000 draws: every row is its own group, and the
    # rho schedule ends below zero
    rng = random.Random(3000)
    n, reps, seed = 10, 3_000, 12
    values = [[rng.randint(0, 3000) for _ in range(n)] for _ in range(n)]
    rho = sorted((rng.randint(-200, 800) for _ in range(n - 1)), reverse=True) + [-250]
    reports = [RankList(tuple(rng.sample(range(n), n))) for _ in range(n)]
    market = MarketInstance.from_cents(values, rho)
    outs = _scalar_reference(kind, market, reports, reps, seed)
    profile = StrategyProfile.fixed_reports(reports)
    path = tmp_path / "reps.csv"
    assert write_replication_csv(kind, market, profile, reps, seed, path) == \
        simulate(kind, market, profile, reps, seed)
    assert path.read_bytes().decode() == _expected_csv(outs, n)


@pytest.mark.parametrize("kind", list(MechanismKind))
def test_batch_engine_is_checked_against_reference(tmp_path, monkeypatch, kind):
    market, reports = next(_fixed_cases())
    profile = StrategyProfile.fixed_reports(reports)
    other = MechanismKind.BOSTON if kind == MechanismKind.RSD else MechanismKind.RSD
    real = simulation.batch_mechanism
    monkeypatch.setattr(simulation, "batch_mechanism",
                        lambda _, pref, orders: real(other, pref, orders))
    with pytest.raises(RuntimeError, match="reference engine"):
        simulate(kind, market, profile, 50, seed=5)
    with pytest.raises(RuntimeError, match="reference engine"):
        write_replication_csv(kind, market, profile, 50, 5, tmp_path / "reps.csv")


def test_mean_se_exact_near_2_60():
    # three replications of 2**30, 2**30 + 1 and 2**30 + 2: the sum of squares
    # is about 3 * 2**60, where a float sum drops the low bits of the variance
    values = [2**30, 2**30 + 1, 2**30 + 2]
    total, total_sq = sum(values), sum(v * v for v in values)
    assert float(total_sq) != total_sq
    assert simulation._mean_se(total, total_sq, 3) == (2**30 + 1, math.sqrt(1 / 3))
    assert simulation._mean_se(7 * 2**29, 49 * 2**58, 1) == (7 * 2**29, 0.0)


def test_worker_count_is_clamped(monkeypatch):
    requested = []
    pool_class = concurrent.futures.ThreadPoolExecutor

    def recording_pool(max_workers):
        requested.append(max_workers)
        return pool_class(max_workers=max_workers)

    # simulate imports the pool class when it needs one, so patch its home
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording_pool)
    monkeypatch.setattr(simulation, "BLOCK_SIZE", 7)
    monkeypatch.setattr(simulation.os, "cpu_count", lambda: 64)
    fixed = StrategyProfile.fixed_reports([RankList((0, 1, 2)), RankList((1, 0, 2)),
                                           RankList((0, 2, 1))])
    for market, profile in ((SMALL, fixed), (E1, StrategyProfile.structured_n1(5, 3))):
        requested.clear()
        one = simulate(MechanismKind.BOSTON, market, profile, 20, seed=4, threads=1)
        assert requested == []
        many = simulate(MechanismKind.BOSTON, market, profile, 20, seed=4, threads=10**6)
        assert requested == [3]  # 20 replications in blocks of 7: three blocks
        assert many == one


# ---------------------------------------------------------------------------
# structured blocks against the (reps x n) value/utility block they replaced
# ---------------------------------------------------------------------------

def reference_structured_block(kind, inst, tops, reps, seed, block):
    """Every agent's value, rho and utility in (reps x n) arrays, summed by
    rows and columns: the same draws as ``_structured_block``."""
    n = inst.n
    gen = prng.generator(seed, block)
    bound = n * (inst.v1 + max(abs(v) for v in inst.rho.values))
    dtype = np.int64 if reps * bound * bound < 1 << 63 else object
    rho = np.asarray(inst.rho.values, dtype=dtype)
    x1_group = np.array([i for i in range(n) if tops[i] == 1])
    x2_group = np.array([i for i in range(n) if tops[i] == 2])
    n1 = len(x1_group)
    rows = np.arange(reps)

    ranks = np.empty((reps, n), dtype=np.int64)
    values = np.empty((reps, n), dtype=dtype)

    if kind == MechanismKind.RSD:
        ranks[:] = gen.integers(3, n + 1, size=(reps, n))
        values[:] = inst.vbar
        i0 = gen.integers(0, n, size=reps)
        i1 = gen.integers(0, n - 1, size=reps)
        i1 = np.where(i1 >= i0, i1 + 1, i1)
        tops_arr = np.asarray(tops)
        top0 = tops_arr[i0]
        ranks[rows, i0] = 1
        values[rows, i0] = np.where(top0 == 1, inst.v1, inst.v2)
        other_val = np.where(top0 == 1, inst.v2, inst.v1)
        other_is_own_top = (tops_arr[i1] != top0)
        ranks[rows, i1] = np.where(other_is_own_top, 1, 2)
        values[rows, i1] = other_val
    elif 1 <= n1 <= n - 1:
        ranks[:] = gen.integers(2, n, size=(reps, n))
        values[:] = inst.vbar
        w1 = x1_group[gen.integers(0, n1, size=reps)]
        w2 = x2_group[gen.integers(0, n - n1, size=reps)]
        ranks[rows, w1] = 1
        values[rows, w1] = inst.v1
        ranks[rows, w2] = 1
        values[rows, w2] = inst.v2
    elif n1 == n:
        ranks[:] = gen.integers(3, n + 1, size=(reps, n))
        values[:] = inst.vbar
        w1 = gen.integers(0, n, size=reps)
        w2 = gen.integers(0, n - 1, size=reps)
        w2 = np.where(w2 >= w1, w2 + 1, w2)
        ranks[rows, w1] = 1
        values[rows, w1] = inst.v1
        ranks[rows, w2] = 2
        values[rows, w2] = inst.v2
    else:
        ranks[:] = gen.integers(2, n, size=(reps, n))
        values[:] = inst.vbar
        w2 = gen.integers(0, n, size=reps)
        w1 = gen.integers(0, n - 1, size=reps)
        w1 = np.where(w1 >= w2, w1 + 1, w1)
        ranks[rows, w2] = 1
        values[rows, w2] = inst.v2
        ranks[rows, w1] = n
        values[rows, w1] = inst.v1

    rho_got = rho[ranks - 1]
    utils = values + rho_got
    welfare = utils.sum(axis=1)
    rho_tot = rho_got.sum(axis=1)
    hist = np.bincount((ranks - 1).ravel(), minlength=n)
    return (reps, int(welfare.sum()), int((welfare * welfare).sum()),
            int(rho_tot.sum()), int((rho_tot * rho_tot).sum()),
            hist.tolist(), [int(u) for u in utils.sum(axis=0)])


def _structured_instances(n):
    """A seeded instance of size n, the same with values shifted by 10**15
    cents, and one with a rho schedule near 10**15 cents, where the rho sums
    of squares pass 2**63."""
    rng = random.Random(1000 + n)
    vbar = rng.randint(0, 3000)
    v2 = vbar + rng.randint(1, 3000)
    v1 = v2 + rng.randint(1, 3000)
    rho = tuple(sorted([rng.randint(-900, 900) for _ in range(n - 1)]
                       + [-rng.randint(1, 900)], reverse=True))
    D = 10**15
    big_rho = tuple(sorted((D - rng.randint(0, 10**12) for _ in range(n)), reverse=True))
    return (SymmetricInstance(n, v1, v2, vbar, RhoSchedule(rho)),
            SymmetricInstance(n, v1 + D, v2 + D, vbar + D, RhoSchedule(rho)),
            SymmetricInstance(n, v1, v2, vbar, RhoSchedule(big_rho)))


def _one_block(kind, inst, tops, reps, seed, block):
    """The sums of block ``block`` of ``reps`` replications as a run of
    ``reps`` replications makes them: counted by draw code and tallied once
    when the run groups its draws, else tallied row by row; the first
    moments are the block's (agent, rank) tally priced with the profile's
    utility rows."""
    table = simulation._placement(kind, inst.n, tops)
    if simulation._grouped(table, inst.n, reps):
        counts = simulation._structured_codes(table, inst.n, reps, seed, block)
        res = simulation._structured_grouped(table, inst, counts, reps)
    else:
        res = simulation._structured_block(table, inst, reps, seed, block)
    tally = res.tally.tolist()
    hist = [sum(col) for col in zip(*tally)]
    agent_u = [sum(c * u for c, u in zip(by_rank, row))
               for by_rank, row in zip(tally, simulation._structured_utils(inst, tops, table))]
    r_sum = sum(h * p for h, p in zip(hist, inst.rho.values))
    return (res.reps, sum(agent_u), res.w_sumsq, r_sum, res.r_sumsq, hist, agent_u)


@pytest.mark.parametrize("n", range(3, 11))
def test_structured_block_matches_reference(monkeypatch, n):
    _check_structured_block(monkeypatch, n, None)


@pytest.mark.parametrize("n", range(3, 11))
def test_structured_block_matches_reference_ragged_chunks(monkeypatch, n):
    # chunks of 3 rows split blocks of 7 and 1000 raggedly
    _check_structured_block(monkeypatch, n, 3)


def _check_structured_block(monkeypatch, n, chunk_rows):
    # the third instance's rho sums are Python ints, the others' int64
    if chunk_rows:
        monkeypatch.setattr(simulation, "CHUNK_CELLS", chunk_rows * n)
    insts = _structured_instances(n)
    assert simulation._sum_dtype(n * max(insts[2].rho.values), 1000) is object
    rng = random.Random(n)
    for inst in insts:
        for n1 in range(n + 1):
            tops = StrategyProfile.structured_n1(n, n1).tops
            shuffled = tuple(rng.sample(tops, n))
            for kind in MechanismKind:
                for reps in (1, 7, 1000):
                    for t in (tops, shuffled):
                        seed = rng.randrange(2**32)
                        got = _one_block(kind, inst, t, reps, seed, 3)
                        want = reference_structured_block(kind, inst, t, reps, seed, 3)
                        assert got == want, (inst, t, kind, reps)


@pytest.mark.parametrize("n", range(3, 7))
def test_structured_block_grouped_matches_reference(monkeypatch, n):
    # a full block groups its equal draws at n <= 5, every kind and n1, and
    # runs row by row at n = 6; forced down the per-row path, a grouped
    # block gives the same sums
    block_rows = []
    chunks = simulation._chunks
    monkeypatch.setattr(simulation, "_chunks",
                        lambda rows, n: block_rows.append(rows) or chunks(rows, n))
    inst = _structured_instances(n)[0]
    reps, rng = simulation.BLOCK_SIZE, random.Random(100 + n)
    for n1 in range(n + 1):
        tops = StrategyProfile.structured_n1(n, n1).tops
        for t in (tops, tuple(rng.sample(tops, n))):
            for kind in MechanismKind:
                seed = rng.randrange(2**32)
                got = _one_block(kind, inst, t, reps, seed, 0)
                assert got == reference_structured_block(kind, inst, t, reps, seed, 0), (t, kind)
                assert (block_rows.pop() < reps) == (n <= 5)
                if n <= 5:
                    with monkeypatch.context() as m:
                        m.setattr(simulation, "GROUP_REPEATS", math.inf)
                        per_row = _one_block(kind, inst, t, reps, seed, 0)
                    assert block_rows.pop() == reps
                    assert per_row == got, (t, kind)


def test_grouped_run_counts_its_short_last_block(monkeypatch):
    # a run groups its draws or not once, from its first block, so the last
    # block of 1 000 replications is counted by code too and adds to the
    # run's one tally; the report equals the run tallied row by row
    sizes = []
    codes = simulation._structured_codes
    monkeypatch.setattr(simulation, "_structured_codes",
                        lambda *args: sizes.append(args[2]) or codes(*args))
    reps = simulation.BLOCK_SIZE + 1_000
    for n1 in (0, 3, 5):
        profile = StrategyProfile.structured_n1(E1.n, n1)
        for kind in MechanismKind:
            for threads in (1, 2):
                grouped = simulate(kind, E1, profile, reps, seed=n1, threads=threads)
                assert sizes == [simulation.BLOCK_SIZE, 1_000], (kind, n1)
                sizes.clear()
                with monkeypatch.context() as m:
                    m.setattr(simulation, "GROUP_REPEATS", math.inf)
                    per_row = simulate(kind, E1, profile, reps, seed=n1, threads=threads)
                assert sizes == []
                assert grouped == per_row, (kind, n1, threads)


def test_placement_built_once_per_run(monkeypatch):
    # grouped (n = 5) and per-row (n = 6) runs of two blocks, on one and two
    # threads, read one placement table
    calls = []
    placement = simulation._placement
    monkeypatch.setattr(simulation, "_placement",
                        lambda *args: calls.append(args) or placement(*args))
    for n in (5, 6):
        inst = _structured_instances(n)[0]
        for threads in (1, 2):
            simulate(MechanismKind.BOSTON, inst, StrategyProfile.structured_n1(n, 2),
                     simulation.BLOCK_SIZE + 9, seed=n, threads=threads)
            assert len(calls) == 1, (n, threads)
            calls.clear()


def test_grouped_counts_fit_one_block():
    # however long the run, it groups only where a full block holds
    # GROUP_REPEATS replications per possible draw, so its summed counts
    # have at most BLOCK_SIZE // GROUP_REPEATS bins
    for n in range(3, 11):
        inst = _structured_instances(n)[0]
        for n1 in range(n + 1):
            tops = StrategyProfile.structured_n1(n, n1).tops
            for kind in MechanismKind:
                table = simulation._placement(kind, n, tops)
                if simulation._grouped(table, n, 10**12):
                    bins = simulation._structured_codes(table, n, 1, 0, 0)
                    assert len(bins) <= simulation.BLOCK_SIZE // simulation.GROUP_REPEATS


@pytest.mark.parametrize("kind", list(MechanismKind))
def test_structured_memory_is_one_block_of_draws(kind):
    # the post-draw work runs in chunks, so a block holds little beyond its
    # 4-byte draws, (reps x n) slots and two winner draws, and memory does
    # not grow with the block count
    profile = StrategyProfile.structured_n1(E1.n, 3)
    simulate(kind, E1, profile, 1000, seed=1)  # lazy set-up outside the trace
    peaks = []
    for blocks in (1, 16):
        tracemalloc.start()
        try:
            simulate(kind, E1, profile, blocks * simulation.BLOCK_SIZE, seed=2, threads=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    draws = (simulation.BLOCK_SIZE * E1.n + 2 * simulation.BLOCK_SIZE) * 4
    assert abs(peaks[1] - peaks[0]) < 1 << 16, peaks
    assert max(peaks) <= 1.5 * draws, (peaks, draws)


@pytest.mark.parametrize("n", [4, 10])
@pytest.mark.parametrize("kind", list(MechanismKind))
def test_fixed_memory_is_one_block_of_draws(kind, n):
    # a block holds its (reps x n) 8-byte tie-break positions, a code per
    # replication and its distinct rows' outcomes, the engine runs a chunk at
    # a time, and memory does not grow with the block count: at n = 4 orders
    # repeat and are grouped, at n = 10 every order is its own row
    rng = random.Random(n)
    values = [[rng.randint(0, 3000) for _ in range(n)] for _ in range(n)]
    rho = sorted((rng.randint(-300, 900) for _ in range(n)), reverse=True)
    market = MarketInstance.from_cents(values, rho)
    profile = StrategyProfile.fixed_reports(
        [RankList(tuple(rng.sample(range(n), n))) for _ in range(n)])
    simulate(kind, market, profile, 1000, seed=1)  # lazy set-up outside the trace
    peaks = []
    for blocks in (1, 4):
        tracemalloc.start()
        try:
            simulate(kind, market, profile, blocks * simulation.BLOCK_SIZE, seed=2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    orders = simulation.BLOCK_SIZE * n * 8
    assert abs(peaks[1] - peaks[0]) < 1 << 16, peaks
    assert max(peaks) <= 2 * orders, (peaks, orders)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("n1", [0, 3, 5])
@pytest.mark.parametrize("kind", ["rsd", "boston"])
def test_golden_structured_simulate(tmp_path, kind, n1, threads):
    # made by the (reps x n) value/utility block; 70 001 reps are two blocks
    e1, out = tmp_path / "e1.json", tmp_path / "out.json"
    e1.write_text(json.dumps(E1.to_json_dict()))
    assert cli.main(["simulate", "--kind", kind, "--market", str(e1),
                     "--structured-n1", str(n1), "--reps", "70001", "--seed", "8",
                     "--threads", threads, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"simulate_{kind}_n1_{n1}.json").read_bytes()


def _fixed_golden_inputs(tmp_path, name):
    """Market and reports files of a fixed-profile golden: seeded cents at
    n = 4 (fewer orders than a block's draws, so orders repeat) and n = 10
    (every order its own row), and an n = 4 market whose values of at least
    10**15 cents and negative rho make the block sums Python ints."""
    n, big = {"n4": (4, False), "n10": (10, False), "n4_big": (4, True)}[name]
    rng = random.Random(100 * n + big)
    base = 10**15 if big else 0
    values = [[base + rng.randint(0, 3000) for _ in range(n)] for _ in range(n)]
    rho = sorted((rng.randint(-300, 900) for _ in range(n - 1)), reverse=True)
    rho.append(-10**13 if big else rho[-1] - rng.randint(1, 300))
    reports = [RankList(tuple(rng.sample(range(n), n))) for _ in range(n)]
    reports[1] = reports[0]
    market, profile = tmp_path / "market.json", tmp_path / "reports.json"
    market.write_text(json.dumps(MarketInstance.from_cents(values, rho).to_json_dict()))
    profile.write_text(json.dumps({"reports": [list(r.order) for r in reports]}))
    return ["--market", str(market), "--profile-reports", str(profile)]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", ["n4", "n10", "n4_big"])
@pytest.mark.parametrize("kind", ["rsd", "boston"])
def test_golden_fixed_simulate(tmp_path, kind, name, threads):
    # 70 001 reps are two blocks
    out = tmp_path / "out.json"
    assert cli.main(["simulate", "--kind", kind, *_fixed_golden_inputs(tmp_path, name),
                     "--reps", "70001", "--seed", "8", "--threads", threads,
                     "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"simulate_fixed_{kind}_{name}.json").read_bytes()


@pytest.mark.parametrize("name", ["n4", "n10"])
@pytest.mark.parametrize("kind", ["rsd", "boston"])
def test_golden_fixed_csv(tmp_path, kind, name):
    out, lines = tmp_path / "out.json", tmp_path / "reps.csv"
    assert cli.main(["simulate", "--kind", kind, *_fixed_golden_inputs(tmp_path, name),
                     "--reps", "300", "--seed", "8", "--csv", str(lines),
                     "--out", str(out)]) == 0
    assert lines.read_bytes() == (GOLDEN / f"simulate_fixed_{kind}_{name}.csv").read_bytes()
