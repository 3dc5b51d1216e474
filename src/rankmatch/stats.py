"""Nonparametric tests and OLS used by the session analysis.

Jonckheere-Terpstra and Wilcoxon rank-sum each come in two flavors: an
exact permutation p-value for small samples and a tie-corrected,
continuity-corrected normal approximation otherwise.  Both are exposed;
the convenience wrappers pick the exact branch when the pooled sample has
at most EXACT_MAX_N observations.

Rank-sum is JT on two groups, so both tests run through one routine
(``_rank_test``): one method dispatch, the permutation null of the JT
statistic counted over tie blocks instead of enumerated, and JT's
tie-corrected null moments for the normal approximation.  The count
(``_exact_p``) keys each state by one int, moves a block of one value in
one step, deals a tied block's last share with the group before it, and
packs the counts of each state into one int, at half width when no values
tie.

Each test reads everything from one tie table (``_tie_table``): how many
of each group's values fall in each block of tied pooled values, in value
order.  It gives the JT count, the tie sizes and the exact null's blocks.
OLS reads coefficients and covariance from the R factor of ``[X | y]``.

The normal tails come from ``math.erfc`` and the Student-t tail of the OLS
p-values from the regularized incomplete beta function, evaluated by its
continued fraction, so the module needs numpy and ``math`` alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

EXACT_MAX_N = 12


def _pooled(groups: Sequence[Sequence[float]]) -> np.ndarray:
    """The groups' values end to end, as one array whose sort orders and
    ties them as Python's comparisons do.

    int64 when numpy reads every value as an integer that fits it (bools
    and numpy ints included), the values themselves as Python objects
    otherwise: floats, ints past int64, ``Fraction``, ``Decimal``.  Raises
    on NaN, which compares false with everything, so ranks and counts
    would be silently wrong."""
    values = [v for g in groups for v in g]
    x = np.array(values)
    if np.can_cast(x.dtype, np.int64):
        return x.astype(np.int64, copy=False)
    if any(v != v for v in values):
        raise ValueError("samples contain NaN")
    x = np.empty(len(values), dtype=object)
    x[:] = values
    return x


def _tie_table(groups: Sequence[Sequence[float]]) -> np.ndarray:
    """(tie blocks x groups) int64 counts: row b, column g holds how many of
    group g's values equal the b-th smallest distinct pooled value."""
    distinct, inverse = np.unique(_pooled(groups), return_inverse=True)
    k = len(groups)
    group = np.repeat(np.arange(k), [len(g) for g in groups])
    cells = np.bincount(inverse.reshape(-1) * k + group, minlength=len(distinct) * k)
    return cells.reshape(len(distinct), k)


# ---------------------------------------------------------------------------
# Distribution tails
# ---------------------------------------------------------------------------

_SQRT_HALF = math.sqrt(0.5)
_LOG_SQRT_PI = 0.5 * math.log(math.pi)  # ln Gamma(1/2)
_CF_TOL = 1e-15
_CF_MAX_TERMS = 1000


def _norm_sf(z: float) -> float:
    """P(Z > z) for a standard normal Z."""
    return 0.5 * math.erfc(z * _SQRT_HALF)


def _norm_cdf(z: float) -> float:
    """P(Z <= z) for a standard normal Z."""
    return _norm_sf(-z)


def _log_gamma_ratio_half(a: float) -> float:
    """ln Gamma(a + 1/2) - ln Gamma(a).  For large a the two lgammas cancel
    (the difference is ~ ln(a)/2 while each is ~ a ln a), so there the
    asymptotic series from the Bernoulli numbers is used instead: from
    a = 20 on, its truncation error is below 1e-16."""
    if a < 20.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    u = 1.0 / (a * a)
    return 0.5 * math.log(a) - (
        1 / 8 - (1 / 192 - (1 / 640 - (17 / 14336 - 31 / 18432 * u) * u) * u) * u) / a


def _beta_cf(a: float, b: float, x: float) -> float:
    """The continued fraction 1/(1 + d1/(1 + d2/(1 + ...))) of the
    incomplete beta function I_x(a, b) (Numerical Recipes, section 6.4),
    by Lentz's method."""
    f, c, d = 1.0, 1.0, 0.0
    for m in range(_CF_MAX_TERMS):
        for dm in (-(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
                   (m + 1) * (b - m - 1) * x / ((a + 2 * m + 1) * (a + 2 * m + 2))):
            d = 1.0 / (1.0 + dm * d)
            c = 1.0 + dm / c
            f *= c * d
        if abs(c * d - 1.0) < _CF_TOL:
            return 1.0 / f
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def _t_two_sided(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's T with ``df`` degrees of freedom.

    That is the regularized incomplete beta I_x(df/2, 1/2) at
    x = df/(df + t^2).  Below x = (a+1)/(a+b+2) its continued fraction
    converges fast; above it I_x(a, b) = 1 - I_(1-x)(b, a) is used.  1 - x
    is computed from t^2/df, not by subtraction, so p near 1 keeps its
    bits."""
    q2 = t * t / df  # x = 1/(1 + q2), 1 - x = q2/(1 + q2)
    if q2 == 0.0:
        return 1.0
    a = 0.5 * df
    if math.isinf(q2):  # |t| past ~1e154: x underflows, its log does not
        x, y, log_x = 0.0, 1.0, math.log(df) - 2.0 * math.log(abs(t))
    else:
        x, y, log_x = 1.0 / (1.0 + q2), q2 / (1.0 + q2), -math.log1p(q2)
    log_y = math.log(y) if y < 0.5 else math.log1p(-x)
    # x^a (1-x)^(1/2) / B(a, 1/2)
    front = math.exp(a * log_x + 0.5 * log_y + _log_gamma_ratio_half(a) - _LOG_SQRT_PI)
    if x < (a + 1.0) / (a + 2.5):
        return front * _beta_cf(a, 0.5, x) / a
    return 1.0 - front * _beta_cf(0.5, a, y) / 0.5


# ---------------------------------------------------------------------------
# Jonckheere-Terpstra
# ---------------------------------------------------------------------------

def _jt_statistic(table: np.ndarray) -> float:
    """Sum over ordered group pairs of Mann-Whitney counts, ties as 1/2,
    from ``_tie_table(groups)``: doubled, a value in block b of group j
    counts 2 per earlier-group value in a lower block and 1 per one in b."""
    below = np.cumsum(table, axis=0) - table
    weight = 2 * below + table
    earlier = np.cumsum(weight, axis=1) - weight
    return int((table * earlier).sum()) / 2


def _exact_p(table: np.ndarray, hit: Callable[[int], bool]) -> float:
    """Share of the permutation null whose doubled JT statistic ``s``
    satisfies ``hit(s)``; ``table`` is ``_tie_table(groups)``.

    The null spreads the pooled values over the groups in every one of the
    n!/prod(size_i!) ways.  Rather than walk them, count them one tie block
    at a time, smallest value first (Harding 1984; Streitberg & Roehmel
    1986): the state is how many values h_g each group holds so far, keyed
    by the int sum_g h_g * R_g with R_g = prod_{i>g} (size_i + 1), so giving
    d values to group g adds d * R_g to the key; ``held_of`` maps each key,
    as its state appears, to the h_g.  Giving d of a block's values to
    group g adds d * sum_{i<g} (2*h_i + d_i) to the doubled statistic (h_i
    held before the block, d_i taken from it).

    A block of one value goes to each group with room in one step, adding
    2 * sum_{i<g} h_i.  A block of t >= 2 values is dealt to groups 0..k-2
    one at a time, partial deals kept by how many values are left: giving d
    of the ``left`` values to group g stands for C(left, d) ways, and a
    group takes no fewer than the later groups' room leaves over.  The last
    group takes the rest in the same step.  Counts are exact integers, so
    the p-value is the same ratio an enumeration would give.

    A state's counts are packed into one int: field j, bits j*W ..
    (j+1)*W - 1 with W the bit length of the n!/prod(size_i!) total, counts
    the deals whose doubled statistic is j, or 2j when every block holds one
    value (then every add, and so every statistic, is even).  No count
    exceeds that total (each partial deal extends to a full one), so no
    field carries into the next, and adding to the statistic is a left
    shift."""
    sizes = table.sum(axis=0).tolist()
    blocks = table.sum(axis=1).tolist()
    k = len(sizes)
    total = math.factorial(sum(sizes)) // math.prod(math.factorial(m) for m in sizes)
    width = total.bit_length()
    half = max(blocks) == 1
    step = (1 if half else 2) * width  # bits per value an earlier group holds
    radix = [math.prod(m + 1 for m in sizes[g + 1:]) for g in range(k)]
    later = [sum(sizes[g + 1:]) for g in range(k)]
    columns = list(zip(range(k), sizes, radix))
    held_of = {0: (0,) * k}
    dist = {0: 1}  # state key -> packed counts of the statistic so far
    for t in blocks:
        nxt: dict[int, int] = {}
        if t == 1:
            for code, packed in dist.items():
                held = held_of[code]
                shift = 0
                for g, size, r in columns:
                    h = held[g]
                    if h < size:
                        key = code + r
                        add = packed << shift if shift else packed
                        if key in nxt:
                            nxt[key] += add
                        else:
                            nxt[key] = add
                            held_of[key] = held[:g] + (h + 1,) + held[g + 1:]
                    shift += step * h
            dist = nxt
            continue
        deals = [{}] * t + [dist]  # values of the block left -> state key -> packed
        for g in range(k - 1):
            last = g == k - 2
            outs = [nxt] * (t + 1) if last else [{} for _ in range(t + 1)]
            for left, part in enumerate(deals):
                for code, packed in part.items():
                    held = held_of[code]
                    h = held[g]
                    below = 2 * sum(held[:g]) - (t - left)
                    room = later[g] - sum(held[g + 1:])
                    for d in range(max(0, left - room), min(left, sizes[g] - h) + 1):
                        key, add, rest = code + d * radix[g], packed, left - d
                        shift = d * below
                        if d and rest:  # a big int: skip the * 1 and << 0 copies
                            add *= math.comb(left, d)
                        if last and rest:
                            key += rest * radix[g + 1]
                            shift += rest * (below + 2 * h + d)
                        if shift:
                            add <<= shift * width
                        out = outs[rest]
                        if key in out:
                            out[key] += add
                        else:
                            out[key] = add
                            if key not in held_of:
                                held_of[key] = (held[:g] + (h + d, held[g + 1] + rest) if last
                                                else held[:g] + (h + d,) + held[g + 1:])
            deals = outs
        dist = nxt
    (packed,) = dist.values()
    mask = (1 << width) - 1
    hits = sum((packed >> j * width) & mask
               for j in range(packed.bit_length() // width + 1) if hit(2 * j if half else j))
    return hits / total


def _jt_moments(sizes: Sequence[int], ties: Sequence[int]) -> tuple[float, float]:
    """Null mean and tie-corrected variance of the JT statistic for groups
    of the given sizes and tie blocks of the given sizes."""
    n = sum(sizes)
    mean = (n * n - sum(s * s for s in sizes)) / 4.0
    # the tie terms as exact ints from the tie sizes' power sums, one fast pass each:
    # t(t-1)(2t+5) = 2t^3 + 3t^2 - 5t, t(t-1)(t-2) = t^3 - 3t^2 + 2t, t(t-1) = t^2 - t
    p1, p2, p3 = sum(ties), sum([t * t for t in ties]), sum([t * t * t for t in ties])
    t1 = (n * (n - 1) * (2 * n + 5)
          - sum(s * (s - 1) * (2 * s + 5) for s in sizes)
          - (2 * p3 + 3 * p2 - 5 * p1)) / 72.0
    if n > 2:
        t2 = (sum(s * (s - 1) * (s - 2) for s in sizes) * (p3 - 3 * p2 + 2 * p1)
              / (36.0 * n * (n - 1) * (n - 2)))
    else:
        t2 = 0.0
    t3 = sum(s * (s - 1) for s in sizes) * (p2 - p1) / (8.0 * n * (n - 1))
    return mean, t1 + t2 + t3


def _rank_test(groups: list[list], method: str,
               exact_hit: Callable[[float], Callable[[int], bool]],
               normal_p: Callable[[float, float], float]) -> tuple[float, float]:
    """The JT statistic of ``groups`` and its p-value, the one method
    dispatch of both rank tests.  Exact: the share of the null whose doubled
    statistic s has ``exact_hit(doubled observed)(s)``.  Approximate:
    ``normal_p(statistic - mean, sd)`` under the tie-corrected null moments."""
    sizes = [len(g) for g in groups]
    table = _tie_table(groups)
    stat = _jt_statistic(table)
    if method == "exact" or (method == "auto" and sum(sizes) <= EXACT_MAX_N):
        return stat, _exact_p(table, exact_hit(2 * stat))
    if method not in ("auto", "approx"):
        raise ValueError(f"unknown method {method!r}")
    blocks = table.sum(axis=1)
    mean, var = _jt_moments(sizes, blocks[blocks > 1].tolist())
    if var <= 0:  # all pooled values identical: no evidence either way
        return stat, 1.0
    return stat, normal_p(stat - mean, math.sqrt(var))


def jonckheere_terpstra(groups: Sequence[Sequence[float]],
                        alternative: str = "decreasing",
                        method: str = "auto") -> tuple[float, float]:
    """JT test against an ordered trend across the given group order.

    ``alternative='decreasing'`` rejects for small statistics (values tend
    to fall along the group order); ``'increasing'`` for large ones.
    ``method``: 'exact', 'approx', or 'auto' (exact when pooled n <= 12).
    Returns (statistic, one-sided p)."""
    if alternative not in ("decreasing", "increasing"):
        raise ValueError(f"unknown alternative {alternative!r}")
    groups = [list(g) for g in groups]
    if len(groups) < 2 or any(not g for g in groups):
        raise ValueError("need at least 2 non-empty groups")
    if alternative == "decreasing":
        # observed >= s, as one bound method call per statistic
        return _rank_test(groups, method, lambda observed: observed.__ge__,
                          lambda dev, sd: _norm_cdf((dev + 0.5) / sd))
    return _rank_test(groups, method, lambda observed: observed.__le__,
                      lambda dev, sd: _norm_sf((dev - 0.5) / sd))


# ---------------------------------------------------------------------------
# Wilcoxon rank-sum
# ---------------------------------------------------------------------------

def wilcoxon_ranksum(a: Sequence[float], b: Sequence[float],
                     method: str = "auto") -> tuple[float, float]:
    """Two-sided rank-sum test; statistic is the rank sum of ``a`` with
    midranks for ties.  Exact permutation p when n_a + n_b <= 12, else a
    tie- and continuity-corrected normal approximation.

    It is JT on [a, b]: the rank sum of a is na*(na+1)/2 + na*nb - JT, so
    its distance from its mean is JT's from na*nb/2 and its null variance is
    JT's; every term is a multiple of 1/2, so the float sums are exact."""
    a, b = list(a), list(b)
    if not a or not b:
        raise ValueError("both samples must be non-empty")
    na, nb = len(a), len(b)
    mid = na * nb  # the doubled null mean
    def exact_hit(observed: float) -> Callable[[int], bool]:
        far = abs(observed - mid)
        return lambda s: abs(s - mid) >= far

    jt, p = _rank_test([a, b], method, exact_hit,
                       lambda dev, sd: min(1.0, 2.0 * _norm_sf((abs(dev) - 0.5) / sd)))
    return na * (na + 1) / 2 + mid - jt, p


# ---------------------------------------------------------------------------
# OLS
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OlsResult:
    columns: tuple[str, ...]
    coef: tuple[float, ...]
    se: tuple[float, ...]
    tstat: tuple[float, ...]
    pvalue: tuple[float, ...]
    stars: tuple[str, ...]
    r_squared: float
    nobs: int

    def to_json_dict(self) -> dict:
        return {
            "columns": list(self.columns),
            "coef": list(self.coef),
            "se": list(self.se),
            "t": list(self.tstat),
            "p": list(self.pvalue),
            "stars": list(self.stars),
            "r_squared": self.r_squared,
            "nobs": self.nobs,
        }


def _stars(p: float) -> str:
    return "***" if p < 0.01 else "**" if p < 0.05 else "*" if p < 0.1 else ""


def ols_fit(y: Sequence[float], X: Sequence[Sequence[float]],
            columns: Sequence[str] | None = None,
            robust: bool = False) -> OlsResult:
    """Least squares from the R factor of ``[X | y]``, whose leading block
    is X's R and whose last column holds Q'y, so no Q is formed.  Classical
    standard errors by default; set ``robust=True`` for HC1
    heteroskedasticity-robust errors.  Raises unless y has one value per
    row and there are more rows than columns (standard errors need a
    residual degree of freedom), and on rank deficiency, naming the
    offending column."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-dimensional")
    n, k = X.shape
    if y.shape != (n,):
        raise ValueError(f"y must hold one value for each of X's {n} rows, got shape {y.shape}")
    if columns is None:
        columns = [f"x{j}" for j in range(k)]
    if len(columns) != k:
        raise ValueError("column names must match X's width")
    if n <= k:
        raise ValueError(f"need more than {k} rows, got {n}")
    r = np.linalg.qr(np.column_stack((X, y)), mode="r")
    diag = np.abs(np.diag(r)[:k])
    tol = max(n, k) * np.finfo(float).eps * (diag.max() if diag.size else 0.0)
    bad = np.nonzero(diag <= tol)[0]
    if bad.size:
        raise ValueError(f"design matrix is rank deficient at column {columns[bad[0]]!r}")
    rinv = np.linalg.inv(r[:k, :k])
    coef = rinv @ r[:k, k]
    resid = y - X @ coef
    rss = float(resid @ resid)
    tss = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if tss == 0 else 1.0 - rss / tss
    df = n - k
    xtx_inv = rinv @ rinv.T
    if robust:
        meat = (X * (resid ** 2)[:, None]).T @ X
        cov = xtx_inv @ meat @ xtx_inv * (n / df)
    else:
        cov = xtx_inv * (rss / df)
    se = np.sqrt(np.diag(cov))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = coef / se
    p = np.array([_t_two_sided(float(tj), df) if np.isfinite(tj)
                  else float("nan") for tj in t])
    stars = tuple(_stars(pj) if np.isfinite(pj) else "" for pj in p)
    return OlsResult(tuple(columns), tuple(map(float, coef)), tuple(map(float, se)),
                     tuple(map(float, t)), tuple(map(float, p)), stars, r2, n)
