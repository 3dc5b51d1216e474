import itertools
import math
import random
import re
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from rankmatch.stats import (_exact_p, _jt_moments, _jt_statistic, _norm_cdf, _norm_sf,
                             _stars, _t_two_sided, _tie_table, jonckheere_terpstra, ols_fit,
                             wilcoxon_ranksum)


def test_jt_exact_fixture():
    stat, p = jonckheere_terpstra([[5, 4], [3, 2], [1]], "decreasing")
    assert stat == 0.0
    assert p == pytest.approx(1 / 30)


def test_jt_two_identical_singletons():
    stat, p = jonckheere_terpstra([[2], [2]], "decreasing")
    assert p >= 0.5


def test_jt_all_identical_approx():
    _, p = jonckheere_terpstra([[1] * 10, [1] * 10], "decreasing", method="approx")
    assert p == 1.0


def test_jt_validation():
    with pytest.raises(ValueError):
        jonckheere_terpstra([[1, 2]], "decreasing")
    with pytest.raises(ValueError):
        jonckheere_terpstra([[1], [2]], "sideways")


def test_jt_increasing_mirror():
    groups = [[1, 2], [3, 4], [5]]
    _, p_inc = jonckheere_terpstra(groups, "increasing")
    rev = [[5], [3, 4], [1, 2]]
    _, p_dec = jonckheere_terpstra(rev, "decreasing")
    assert p_inc == pytest.approx(p_dec)


def test_jt_within_group_order_invariance():
    a = jonckheere_terpstra([[3, 1, 2], [5, 4]], "decreasing")
    b = jonckheere_terpstra([[1, 2, 3], [4, 5]], "decreasing")
    assert a == b


def test_wilcoxon_exact_fixture():
    stat, p = wilcoxon_ranksum([1, 2], [3, 4])
    assert stat == 3.0
    assert p == pytest.approx(2 / 6)


def test_wilcoxon_identical_samples():
    _, p = wilcoxon_ranksum([1, 2, 3], [1, 2, 3])
    assert p == 1.0


def test_wilcoxon_validation():
    with pytest.raises(ValueError):
        wilcoxon_ranksum([], [1])


def test_approximations_close_to_exact():
    rng = random.Random(17)
    for _ in range(100):
        groups = [[rng.gauss(0, 1) for _ in range(4)] for _ in range(3)]
        _, pe = jonckheere_terpstra(groups, "decreasing", method="exact")
        _, pa = jonckheere_terpstra(groups, "decreasing", method="approx")
        assert abs(pe - pa) < 0.02
        a = [rng.gauss(0, 1) for _ in range(6)]
        b = [rng.gauss(0, 1) for _ in range(6)]
        _, pe = wilcoxon_ranksum(a, b, method="exact")
        _, pa = wilcoxon_ranksum(a, b, method="approx")
        assert abs(pe - pa) < 0.02


def test_jt_two_groups_matches_one_sided_wilcoxon():
    # same permutation distribution: for untied data, the one-sided JT p in
    # the direction of the data is half the two-sided Wilcoxon p
    a, b = [3.0, 4.0], [1.0, 2.0]
    _, p_jt = jonckheere_terpstra([a, b], "decreasing", method="exact")
    _, p_w = wilcoxon_ranksum(a, b, method="exact")
    assert p_w == pytest.approx(2 * p_jt)


def _deals(pooled, sizes):
    """Every way to deal the pooled values, by index, into groups of the
    given sizes: the permutation null, walked one assignment at a time."""
    def rec(left, sizes):
        if not sizes:
            yield []
            return
        for pick in itertools.combinations(left, sizes[0]):
            rest = [i for i in left if i not in pick]
            for tail in rec(rest, sizes[1:]):
                yield [[pooled[i] for i in pick]] + tail
    return rec(list(range(len(pooled))), list(sizes))


def _jt(groups):
    return sum(1.0 if a < b else 0.5 if a == b else 0.0
               for i, gi in enumerate(groups) for gj in groups[i + 1:]
               for a in gi for b in gj)


def _rank_sum(xs, pooled):
    return sum(sum(p < x for p in pooled) + (sum(p == x for p in pooled) + 1) / 2
               for x in xs)


def _oracle_designs():
    rng = random.Random(23)
    for i in range(48):
        k = 2 + i % 3
        sizes = [1] * k
        for _ in range(rng.randint(k, 9) - k):
            sizes[rng.randrange(k)] += 1
        n = sum(sizes)
        pooled = rng.sample(range(100), n) if i % 2 else [rng.randint(0, 3) for _ in range(n)]
        yield [pooled[sum(sizes[:g]):sum(sizes[:g + 1])] for g in range(k)]


def test_exact_p_values_equal_enumeration():
    # the exact branches count the null instead of walking it; the counts
    # must match the walk, so the p-values are the same floats
    for groups in _oracle_designs():
        pooled = [v for g in groups for v in g]
        sizes = [len(g) for g in groups]
        deals = list(_deals(pooled, sizes))
        jt = _jt(groups)
        null = [_jt(d) for d in deals]
        assert jonckheere_terpstra(groups, "decreasing", method="exact") == (
            jt, sum(s <= jt for s in null) / len(null)), groups
        assert jonckheere_terpstra(groups, "increasing", method="exact") == (
            jt, sum(s >= jt for s in null) / len(null)), groups

        a, b = groups[0], pooled[len(groups[0]):]
        w = _rank_sum(a, pooled)
        mean = len(a) * (len(pooled) + 1) / 2
        null = [_rank_sum(d[0], pooled) for d in _deals(pooled, [len(a), len(b)])]
        p = sum(abs(x - mean) >= abs(w - mean) for x in null) / len(null)
        assert wilcoxon_ranksum(a, b, method="exact") == (w, p), (a, b)



def _q_multinomial(sizes):
    """Null counts of the JT statistic for distinct values: the coefficients
    of prod_{i<=n} (1 - q^i) / prod_g prod_{i<=n_g} (1 - q^i), a polynomial
    whose q^s coefficient counts the deals with statistic s."""
    n = sum(sizes)
    coef = [1] + [0] * (n * (n + 1) // 2)
    for i in range(1, n + 1):  # times (1 - q^i)
        for k in range(len(coef) - 1, i - 1, -1):
            coef[k] -= coef[k - i]
    for size in sizes:
        for i in range(1, size + 1):  # over (1 - q^i), which divides exactly
            for k in range(i, len(coef)):
                coef[k] += coef[k - i]
    top = sum(a * b for i, a in enumerate(sizes) for b in sizes[i + 1:])
    assert not any(coef[top + 1:])
    return coef[:top + 1]


@pytest.mark.parametrize("sizes", [(35, 35), (16, 16, 16)])
def test_exact_p_values_past_64_bit_counts(sizes):
    # the packed counting DP against the q-multinomial null, on designs whose
    # n!/prod(size!) deals pass 2**64
    rng = random.Random(sum(sizes))
    pooled = rng.sample(range(1000), sum(sizes))
    groups = [pooled[sum(sizes[:g]):sum(sizes[:g + 1])] for g in range(len(sizes))]
    null = _q_multinomial(sizes)
    total = sum(null)
    assert total == math.factorial(sum(sizes)) // math.prod(map(math.factorial, sizes)) > 2 ** 64
    jt = int(_jt(groups))
    assert jonckheere_terpstra(groups, "decreasing", method="exact") == (
        jt, sum(null[:jt + 1]) / total)
    assert jonckheere_terpstra(groups, "increasing", method="exact") == (
        jt, sum(null[jt:]) / total)
    if len(groups) == 2:
        na, nb = sizes
        dev = abs(2 * jt - na * nb)
        p = sum(c for s, c in enumerate(null) if abs(2 * s - na * nb) >= dev) / total
        assert wilcoxon_ranksum(*groups, method="exact") == (
            na * (na + 1) / 2 + na * nb - jt, p)

@pytest.mark.scipy_oracle
def test_approx_p_values_match_oracles():
    """The normal and Student-t tails against oracles: scipy (a test-only
    dependency) and, for the t tail, closed forms that share neither
    scipy's nor this module's method."""
    from scipy import stats as sps  # test-only: the runtime install has no scipy

    rng = random.Random(11)
    # normal tails, directly and as the approximate JT/rank-sum p-values;
    # the worst relative gap to scipy measured on |z| <= 10 was 4e-15
    for z in [rng.uniform(-10, 10) for _ in range(2000)]:
        assert _norm_sf(z) == pytest.approx(float(sps.norm.sf(z)), rel=1e-13), z
        assert _norm_cdf(z) == pytest.approx(float(sps.norm.cdf(z)), rel=1e-13), z
    for _ in range(20):
        groups = [[rng.randint(0, 6) for _ in range(rng.randint(4, 9))]
                  for _ in range(rng.randint(2, 4))]
        pooled = [v for g in groups for v in g]
        mean, var = _jt_moments([len(g) for g in groups], _counter_tie_counts(pooled))
        stat, p = jonckheere_terpstra(groups, "decreasing", method="approx")
        assert p == _norm_cdf((stat - mean + 0.5) / math.sqrt(var))
        stat, p = jonckheere_terpstra(groups, "increasing", method="approx")
        assert p == _norm_sf((stat - mean - 0.5) / math.sqrt(var))

        a, b = groups[0], groups[1]
        na, nb = len(a), len(b)
        n = na + nb
        ties = [(a + b).count(v) for v in set(a + b)]
        w_var = na * nb / 12.0 * ((n + 1) - sum(t ** 3 - t for t in ties) / (n * (n - 1.0)))
        # the rank-sum test reads JT's null variance on [a, b], which is the
        # textbook rank-sum variance up to the rounding of each formula
        var = _jt_moments([na, nb], [t for t in ties if t > 1])[1]
        assert var == pytest.approx(w_var, rel=1e-14)
        w, p = wilcoxon_ranksum(a, b, method="approx")
        assert w == _rank_sum(a, a + b)
        z = (abs(w - na * (n + 1) / 2.0) - 0.5) / math.sqrt(var)
        assert p == min(1.0, 2.0 * _norm_sf(z))

    # t tail at df = 1 and 2 in closed form: 1 - 2 atan|t|/pi and
    # 1 - |t|/sqrt(t^2 + 2), written without the subtraction
    for t in [10 ** rng.uniform(-6, math.log10(40)) for _ in range(2000)]:
        assert _t_two_sided(t, 1) == pytest.approx(2 * math.atan(1 / t) / math.pi, rel=1e-12)
        r = math.sqrt(t * t + 2)
        assert _t_two_sided(t, 2) == pytest.approx(2 / (r * (r + t)), rel=1e-12)
        assert _t_two_sided(-t, 2) == _t_two_sided(t, 2)
    assert _t_two_sided(0.0, 5) == 1.0
    # past |t| ~ 1e154, t^2 overflows
    assert _t_two_sided(1e200, 1) == pytest.approx(2e-200 / math.pi, rel=1e-12)

    # seeded grid against scipy.  Measured worst relative gaps: 8e-12 for
    # df in [1e4, 1e5] (the continued fraction near its switch point), below
    # 1e-12 for smaller df, and 4.5e-11 at df = 1, t ~ 1e-6, where scipy is
    # the one that is off (the closed form above holds at 1e-12)
    for _ in range(4000):
        df = round(10 ** rng.uniform(0, 5))
        t = 10 ** rng.uniform(-6, math.log10(40))
        p, want = _t_two_sided(t, df), 2.0 * float(sps.t.sf(t, df))
        assert p == pytest.approx(want, rel=1e-10 if df == 1 else 2e-11, abs=1e-300), (t, df)
        assert _stars(p) == _stars(want), (t, df)

    np_rng = np.random.default_rng(3)
    X = np.column_stack([np.ones(40), np_rng.normal(size=40), np_rng.normal(size=40)])
    y = X @ np.array([0.2, 1.0, 0.0]) + np_rng.normal(size=40)
    for robust in (False, True):
        res = ols_fit(y, X, ["const", "a", "b"], robust=robust)
        assert res.pvalue == tuple(_t_two_sided(t, 37) for t in res.tstat)
        assert res.pvalue == pytest.approx([2.0 * float(sps.t.sf(abs(t), 37))
                                            for t in res.tstat], rel=1e-12)


def test_jt_statistic_matches_pair_loop():
    # the tie-table count against the plain pair loop: every term is a
    # multiple of 1/2, so the two agree exactly
    rng = random.Random(31)
    for _ in range(300):
        k = rng.randint(2, 5)
        top = rng.choice([2, 5, 50])
        groups = [[rng.randint(0, top) / rng.choice([1, 2]) for _ in range(rng.randint(1, 12))]
                  for _ in range(k)]
        assert _jt_statistic(_tie_table(groups)) == _jt(groups), groups


def _bisect_jt_statistic(groups):
    """Reference JT count: each value against the sorted union of all
    earlier groups, by ``bisect_left`` (values below) plus ``bisect_right``
    (below or tied), on the values themselves."""
    doubled = 0
    earlier = []
    for g in groups:
        for b in g:
            doubled += bisect_left(earlier, b) + bisect_right(earlier, b)
        earlier.extend(g)
        earlier.sort()
    return doubled / 2


def _counter_tie_counts(pooled):
    """Reference tie sizes: the values' ``Counter`` blocks of more than one."""
    return [c for c in Counter(pooled).values() if c > 1]


def _reference_jt(groups, alternative, method):
    """(statistic, p) of ``jonckheere_terpstra`` from the reference count
    and tie sizes; the exact null and the moments are the module's own."""
    stat = _bisect_jt_statistic(groups)
    if method == "exact":
        if alternative == "decreasing":
            return stat, _exact_p(_tie_table(groups), lambda s: s <= 2 * stat)
        return stat, _exact_p(_tie_table(groups), lambda s: s >= 2 * stat)
    pooled = [v for g in groups for v in g]
    mean, var = _jt_moments([len(g) for g in groups], _counter_tie_counts(pooled))
    if var <= 0:
        return stat, 1.0
    if alternative == "decreasing":
        return stat, _norm_cdf((stat - mean + 0.5) / math.sqrt(var))
    return stat, _norm_sf((stat - mean - 0.5) / math.sqrt(var))


def _reference_ranksum(a, b, method):
    """(statistic, p) of ``wilcoxon_ranksum`` from the reference count and
    tie sizes; the exact null and the moments, JT's on [a, b], are the
    module's own."""
    na, nb = len(a), len(b)
    n = na + nb
    jt = _bisect_jt_statistic([a, b])
    stat = na * (na + 1) / 2 + na * nb - jt
    if method == "exact":
        dev = abs(2 * jt - na * nb)
        return stat, _exact_p(_tie_table([a, b]), lambda s: abs(s - na * nb) >= dev)
    var = _jt_moments([na, nb], _counter_tie_counts(a + b))[1]
    if var <= 0:
        return stat, 1.0
    z = (abs(stat - na * (n + 1) / 2.0) - 0.5) / math.sqrt(var)
    return stat, min(1.0, 2.0 * _norm_sf(z))


# values each design draws from; numpy scalars stay apart from values past
# 2**53, where numpy's scalar comparisons round to float64 and Python's do not
ORACLE_VALUES = {
    "ints": [-3, -1, 0, 1, 2, 5, True, False],
    "floats": [-1.5, -0.25, 0.0, 0.5, 0.75, 2.0, 1e-300, 3e300],
    "signed_zeros_and_infs": [0.0, -0.0, 0, math.inf, -math.inf, 1.5, -2],
    "around_2_53": [2 ** 53 + 1, float(2 ** 53), 2 ** 53, 2 ** 53 - 1, float(2 ** 53 + 2),
                    2 ** 53 + 3, 0.5],
    "past_int64": [2 ** 63, 2 ** 63 + 1, -2 ** 63 - 1, 2 ** 64, 10 ** 30, 10 ** 30 + 1, -1, 0],
    "past_int64_with_floats": [2 ** 63, 2 ** 64 + 1, -2 ** 63 - 1, 1.5, float(2 ** 64),
                               -math.inf, 0],
    "fractions": [Fraction(1, 3), Fraction(1, 2), 0.5, 1, Fraction(2, 3), Fraction(-7, 3),
                  0.25, Fraction(10 ** 20, 3)],
    "numpy_scalars": [np.int64(2), np.int32(-1), np.float64(0.5), np.float32(0.75), 2, 0.5,
                      np.int64(0), np.float64(-np.inf), np.uint8(7), 0.75],
}


@pytest.mark.parametrize("kind", sorted(ORACLE_VALUES))
def test_rank_tests_match_bisect_reference(kind):
    # the tie-table count and tie sizes against the bisect and Counter
    # references on the values themselves: every (statistic, p) equal, for
    # both alternatives and both methods
    rng = random.Random(f"rank-oracle-{kind}")
    pool = ORACLE_VALUES[kind]
    for _ in range(30):
        k = rng.randint(2, 4)
        groups = [[rng.choice(pool) for _ in range(rng.randint(1, 4))] for _ in range(k)]
        for method in ("exact", "approx"):
            for alternative in ("decreasing", "increasing"):
                assert jonckheere_terpstra(groups, alternative, method) == _reference_jt(
                    groups, alternative, method), (groups, alternative, method)
            a, b = groups[0], [v for g in groups[1:] for v in g]
            assert wilcoxon_ranksum(a, b, method) == _reference_ranksum(a, b, method), (
                a, b, method)


def test_rank_tests_take_ints_past_float_range():
    # 10**400 has no float, so a float NaN screen would overflow on it; as
    # the largest value it ranks as 10**6 does
    small = wilcoxon_ranksum([10 ** 6, 1, 2], list(range(3, 13)), method="approx")
    assert wilcoxon_ranksum([10 ** 400, 1, 2], list(range(3, 13)), method="approx") == small
    groups = [[10 ** 6, 5], [1, 2, 3], list(range(6, 16))]
    for alternative in ("decreasing", "increasing"):
        assert jonckheere_terpstra([[10 ** 400, 5]] + groups[1:], alternative, "approx") == (
            jonckheere_terpstra(groups, alternative, "approx"))


@pytest.mark.parametrize("call", [
    lambda: wilcoxon_ranksum([1, math.nan], [2, 3]),
    lambda: wilcoxon_ranksum([1] * 8, [2, 3, 4, float("nan")] * 2, method="approx"),
    lambda: jonckheere_terpstra([[1, 2], [np.nan], [3]], "decreasing"),
    lambda: jonckheere_terpstra([[1] * 9, [2] * 9 + [math.nan]], "increasing", method="approx"),
])
def test_nan_samples_are_rejected(call):
    with pytest.raises(ValueError, match="NaN"):
        call()


def test_ols_exact_line():
    y = [2.0 * x for x in range(10)]
    X = [[1.0, float(x)] for x in range(10)]
    res = ols_fit(y, X, ["const", "x"])
    assert res.coef[1] == pytest.approx(2.0)
    assert res.r_squared == pytest.approx(1.0)


def test_ols_intercept_only():
    y = [1.0, 2.0, 3.0, 6.0]
    res = ols_fit(y, [[1.0]] * 4, ["const"])
    assert res.coef[0] == pytest.approx(3.0)


@pytest.mark.parametrize("robust", [False, True])
def test_ols_needs_a_residual_degree_of_freedom(robust):
    X = [[1.0, float(x), float(x * x)] for x in range(3)]
    with pytest.raises(ValueError, match="need more than 3 rows, got 3"):
        ols_fit([1.0, 0.0, 4.0], X, ["const", "x", "x2"], robust=robust)
    res = ols_fit([1.0, 0.0, 4.0, 8.0], X + [[1.0, 3.0, 9.0]], ["const", "x", "x2"],
                  robust=robust)
    assert all(math.isfinite(v) for v in res.se + res.tstat + res.pvalue)


@pytest.mark.parametrize("shape", [(10, 1), (9,), (11,)], ids=["column", "short", "long"])
def test_ols_rejects_y_of_another_shape(shape):
    # a (n, 1) y would broadcast the residuals to n x n
    X = [[1.0, float(x)] for x in range(10)]
    with pytest.raises(ValueError, match=re.escape(f"X's 10 rows, got shape {shape}")):
        ols_fit(np.arange(math.prod(shape), dtype=float).reshape(shape), X)


def test_ols_rank_deficiency_names_column():
    X = [[1.0, float(x), 2.0 * x] for x in range(8)]
    with pytest.raises(ValueError, match="x2"):
        ols_fit([0.0] * 8, X, ["const", "x", "x2"])


def test_ols_residual_orthogonality_and_recovery():
    rng = np.random.default_rng(1)
    n = 300
    X = np.column_stack([np.ones(n), rng.normal(size=n), rng.normal(size=n)])
    beta = np.array([1.0, -2.0, 0.5])
    y = X @ beta + rng.normal(scale=0.3, size=n)
    res = ols_fit(y, X, ["const", "a", "b"])
    resid = y - X @ np.array(res.coef)
    assert np.max(np.abs(X.T @ resid)) / max(1.0, np.abs(X.T @ y).max()) < 1e-8
    for j in range(3):
        assert abs(res.coef[j] - beta[j]) < 3 * res.se[j]
    robust = ols_fit(y, X, ["const", "a", "b"], robust=True)
    assert robust.coef == res.coef
    assert robust.se != res.se


def test_ols_stars():
    rng = np.random.default_rng(2)
    n = 200
    x = rng.normal(size=n)
    y = 5.0 * x + rng.normal(size=n)
    res = ols_fit(y, np.column_stack([np.ones(n), x]), ["const", "x"])
    assert res.stars[1] == "***"
