import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from rankmatch.core import MarketInstance, Matching, RankList, SizeLimitError, build_outcome
from rankmatch.batch import batch_boston, batch_rsd, enumerated_expected_utilities, label_orders
from rankmatch.mechanisms import (
    MechanismKind,
    TieBreakOrder,
    exact_expected_utilities,
    is_pareto_efficient,
    run_boston,
    run_mechanism,
    run_random,
    run_rsd,
)

# goods 0..3 = pizza, chips, soda, pretzels; agents 0..3 = Ann..Dave
RSD_REPORTS = [RankList((1, 0, 2, 3)), RankList((0, 1, 2, 3)),
               RankList((0, 3, 1, 2)), RankList((3, 2, 1, 0))]
BOSTON_REPORTS = [RankList((0, 3, 1, 2)), RankList((0, 1, 2, 3)),
                  RankList((0, 1, 3, 2)), RankList((3, 2, 1, 0))]


def test_rsd_worked_example():
    m = run_rsd(RSD_REPORTS, TieBreakOrder((1, 2, 3, 0)))
    assert m.assignment == (1, 0, 3, 2)


def test_boston_worked_example():
    m = run_boston(BOSTON_REPORTS, TieBreakOrder((1, 0, 2, 3)))
    assert m.assignment == (2, 0, 1, 3)


def test_boston_pass_rounds():
    # an agent whose early choices are taken must wait for a later round
    reports = [RankList((0, 1, 2)), RankList((0, 1, 2)), RankList((1, 0, 2))]
    m = run_boston(reports, TieBreakOrder((0, 1, 2)))
    # agent 1 loses round 1 on good 0 and round 2 on good 1, lands on good 2
    assert m.assignment == (0, 2, 1)


def test_rsd_boston_differ():
    reports = BOSTON_REPORTS
    order = TieBreakOrder((1, 0, 2, 3))
    assert run_rsd(reports, order).assignment != run_boston(reports, order).assignment


def test_input_validation():
    with pytest.raises(ValueError):
        run_rsd(RSD_REPORTS[:3], TieBreakOrder((0, 1, 2, 3)))
    with pytest.raises(ValueError):
        TieBreakOrder((0, 0, 1))
    market = MarketInstance.from_cents([[90, 40, 10]] * 3, [7, 2, 0])
    for reports, message in (([RankList((0, 1, 2))] * 2, "expected 3 reports, got 2"),
                             ([RankList((0, 1, 2, 3))] * 3, "must rank all n goods")):
        for kind in MechanismKind:
            with pytest.raises(ValueError, match=message):
                exact_expected_utilities(kind, reports, market)


def test_run_random_deterministic():
    market = MarketInstance.from_cents([[100, 70, 0, 0]] * 4, [10, 5, 0, 0])
    out1, ord1 = run_random(MechanismKind.BOSTON, BOSTON_REPORTS, market, seed=3)
    out2, ord2 = run_random(MechanismKind.BOSTON, BOSTON_REPORTS, market, seed=3)
    assert out1 == out2 and ord1 == ord2
    out3, _ = run_random(MechanismKind.BOSTON, BOSTON_REPORTS, market, seed=3, stream=1)
    assert isinstance(out3.welfare_total, int)


def test_exact_expected_utilities_symmetry():
    market = MarketInstance.from_cents([[100, 80, 0]] * 3, [10, 0, 0])
    reports = [RankList((0, 1, 2))] * 3
    eus = exact_expected_utilities(MechanismKind.RSD, reports, market)
    assert eus == (Fraction(190, 3),) * 3
    assert sum(eus) == 190


def test_exact_expected_utilities_size_limit():
    n = 9
    market = MarketInstance.from_cents([[0] * n] * n, [0] * n)
    reports = [RankList(tuple(range(n)))] * n
    with pytest.raises(SizeLimitError):
        exact_expected_utilities(MechanismKind.RSD, reports, market)


def test_rsd_always_pareto_efficient():
    rng = random.Random(0)
    for _ in range(100):
        reports = [RankList(tuple(rng.sample(range(4), 4))) for _ in range(4)]
        order = TieBreakOrder(tuple(rng.sample(range(4), 4)))
        assert is_pareto_efficient(run_rsd(reports, order), reports)


def test_boston_inefficient_for_true_preferences():
    reports = [RankList((1, 0, 2)), RankList((0, 1, 2)), RankList((2, 0, 1))]
    truth = [RankList((0, 1, 2)), RankList((1, 0, 2)), RankList((2, 1, 0))]
    m = run_boston(reports, TieBreakOrder((0, 1, 2)))
    assert is_pareto_efficient(m, reports)
    assert not is_pareto_efficient(m, truth)


def test_pareto_detects_improvement():
    reports = [RankList((0, 1)), RankList((0, 1))]
    assert not is_pareto_efficient(Matching((1, 0)), [RankList((0, 1)), RankList((1, 0))])
    assert is_pareto_efficient(Matching((0, 1)), reports)


def enumerated_pareto_efficient(matching, reports):
    """The definition, over all n! matchings: no other one makes some agent
    strictly better off and none worse."""
    n = len(reports)
    ranks = [reports[i].rank_of(matching.good_of(i)) for i in range(n)]
    for alt in itertools.permutations(range(n)):
        alt_ranks = [reports[i].rank_of(alt[i]) for i in range(n)]
        if alt_ranks != ranks and all(a <= r for a, r in zip(alt_ranks, ranks)):
            return False
    return True


@pytest.mark.parametrize("n", range(1, 8))
def test_pareto_cycle_test_equals_enumeration(n):
    """The cycle test agrees with the n! enumeration on seeded random
    matchings, RSD and Boston outcomes, under random and identical lists."""
    rng = random.Random(1998 + n)
    verdicts = set()
    for case in range(40 if n < 7 else 12):
        reports = [RankList(tuple(rng.sample(range(n), n))) for _ in range(n)]
        if case % 4 == 0:
            reports = [reports[0]] * n
        order = TieBreakOrder(tuple(rng.sample(range(n), n)))
        for matching in (Matching(tuple(rng.sample(range(n), n))), run_rsd(reports, order),
                         run_boston(reports, order)):
            want = enumerated_pareto_efficient(matching, reports)
            assert is_pareto_efficient(matching, reports) == want, (matching, reports)
            verdicts.add(want)
    assert verdicts == ({True} if n == 1 else {True, False})


def test_pareto_beyond_enumeration_size():
    """n = 12, past the old n! limit: an RSD outcome is efficient, and a
    matching in which two agents each hold the other's top good is not."""
    n = 12
    rng = random.Random(12)
    reports = [RankList(tuple(rng.sample(range(n), n))) for _ in range(n)]
    matching = run_rsd(reports, TieBreakOrder(tuple(range(n))))
    assert is_pareto_efficient(matching, reports)
    envy = [RankList((1, 0) + tuple(range(2, n))), RankList((0, 1) + tuple(range(2, n)))]
    envy += [RankList(tuple(range(n)))] * (n - 2)
    assert not is_pareto_efficient(Matching((0, 1) + tuple(range(2, n))), envy)


def _exact_cases():
    """The 3-agent example, then seeded markets for n = 1..7: random values,
    schedules that go negative, and every third market with identical
    reports; last, an n = 7 market whose agents report three lists, three,
    two and two times, each group's agents apart in id order."""
    yield (MarketInstance.from_cents([[90, 40, 10]] * 3, [7, 2, 0]),
           [RankList((0, 1, 2)), RankList((1, 0, 2)), RankList((0, 2, 1))])
    rng = random.Random(11)
    for n in range(1, 8):
        for case in range(6 if n < 7 else 3):
            values = [[rng.randint(0, 3000) for _ in range(n)] for _ in range(n)]
            rho = sorted((rng.randint(-400, 800) for _ in range(n)), reverse=True)
            if case % 3 == 0:
                reports = [RankList(tuple(rng.sample(range(n), n)))] * n
            else:
                reports = [RankList(tuple(rng.sample(range(n), n))) for _ in range(n)]
            yield MarketInstance.from_cents(values, rho), reports
    values = [[rng.randint(0, 3000) for _ in range(7)] for _ in range(7)]
    rho = sorted((rng.randint(-400, 800) for _ in range(7)), reverse=True)
    lists = [RankList(tuple(rng.sample(range(7), 7))) for _ in range(3)]
    yield MarketInstance.from_cents(values, rho), [lists[g] for g in (0, 1, 2, 0, 1, 0, 2)]


def test_exact_matches_brute_average():
    for market, reports in _exact_cases():
        n = market.n
        for kind in MechanismKind:
            eus = exact_expected_utilities(kind, reports, market)
            totals = [0] * n
            for perm in itertools.permutations(range(n)):
                out = build_outcome(run_mechanism(kind, reports, TieBreakOrder(perm)),
                                    reports, market)
                for i in range(n):
                    totals[i] += out.utility[i]
            assert tuple(Fraction(t, math.factorial(n)) for t in totals) == eus, \
                (kind, market, reports)


@pytest.mark.parametrize("n", range(1, 9))
def test_rsd_dp_equals_batch_enumeration(n):
    """RSD's subset DP gives the exact Fractions of the batch engine run on
    every distinct label sequence (all n! orders when the lists differ):
    random markets and lists, identical value rows and lists, negative rho
    entries, and values shifted by 10**15 cents."""
    rng = random.Random(800 + n)
    for case in range(4):
        values = [[rng.randint(0, 3000) for _ in range(n)] for _ in range(n)]
        rho = sorted((rng.randint(-400, 800) for _ in range(n)), reverse=True)
        reports = [RankList(tuple(rng.sample(range(n), n))) for _ in range(n)]
        if case == 1:
            values, reports = [values[0]] * n, [reports[0]] * n
        elif case == 2:
            rho = [r - 1000 for r in rho]
        elif case == 3:
            values = [[v + 10**15 for v in row] for row in values]
        market = MarketInstance.from_cents(values, rho)
        assert exact_expected_utilities(MechanismKind.RSD, reports, market) == \
            enumerated_expected_utilities(MechanismKind.RSD, reports, market), (market, reports)


def compositions(n):
    """Every tuple of positive group sizes that sums to n, in order."""
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


@pytest.mark.parametrize("n", range(8))
def test_label_orders_cover_every_label_sequence(n):
    """For every composition of n into group sizes, one row per distinct
    label sequence: the rows' label sequences are those of all orders of
    the n agents, n!/∏m! of them, and each group's agents appear in id
    order.  Checked against ``itertools.permutations``, an order source the
    exact oracles do not share."""
    for sizes in compositions(n):
        label = np.repeat(np.arange(len(sizes)), sizes)
        orders = label_orders(sizes)
        want = set(itertools.permutations(label.tolist()))
        assert orders.dtype == np.int64
        assert orders.shape == (len(want), n)
        assert len(orders) == math.factorial(n) // math.prod(map(math.factorial, sizes))
        assert {tuple(row) for row in label[orders].tolist()} == want
        for group in range(len(sizes)):
            agents = orders[label[orders] == group].reshape(len(orders), sizes[group])
            assert (np.diff(agents, axis=1) > 0).all(), sizes


def _assert_batch_matches_scalar(lists, orders):
    n = len(lists)
    reports = [RankList(tuple(lst)) for lst in lists]
    pref = np.array(lists, dtype=np.int64).reshape(n, n)
    order_array = np.array(orders, dtype=np.int64).reshape(len(orders), n)
    for scalar, batch in ((run_rsd, batch_rsd), (run_boston, batch_boston)):
        goods, ranks = batch(pref, order_array)
        assert goods.shape == ranks.shape == (len(orders), n)
        for row, order in enumerate(orders):
            m = scalar(reports, TieBreakOrder(tuple(order)))
            assert tuple(goods[row].tolist()) == m.assignment, (scalar.__name__, lists, order)
            assert tuple(ranks[row].tolist()) == tuple(
                reports[i].rank_of(g) for i, g in enumerate(m.assignment))


def test_batch_engines_match_scalar_engines():
    rng = random.Random(2023)
    for n in range(1, 11):
        for case in range(40):
            if case % 4 == 0:  # everyone reports the same list
                lists = [rng.sample(range(n), n)] * n
            else:
                lists = [rng.sample(range(n), n) for _ in range(n)]
            orders = [rng.sample(range(n), n) for _ in range(12)]
            _assert_batch_matches_scalar(lists, orders)


def test_batch_engines_contested_rounds():
    # Boston: good 1 goes to agent 2 in round 1, so agent 1 passes round 2
    # and agent 0 wins good 0 ahead of agent 1 mid-round
    lists = [[0, 1, 2], [0, 1, 2], [1, 0, 2]]
    _assert_batch_matches_scalar(lists, [list(p) for p in itertools.permutations(range(3))])
    # goods 0 and 1 both run out in round 1, and their losers then contest
    # good 2 in round 2
    lists = [[0, 2, 3, 1], [1, 2, 3, 0], [0, 2, 1, 3], [1, 2, 0, 3]]
    _assert_batch_matches_scalar(lists, [list(p) for p in itertools.permutations(range(4))])
