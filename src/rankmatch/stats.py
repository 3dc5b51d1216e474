"""Nonparametric tests and OLS used by the session analysis.

Jonckheere-Terpstra and Wilcoxon rank-sum each come in two flavors: an
exact permutation p-value for small samples and a tie-corrected,
continuity-corrected normal approximation otherwise.  Both are exposed;
the convenience wrappers pick the exact branch when the pooled sample has
at most EXACT_MAX_N observations.

Both exact branches share one routine: the permutation null of the JT
statistic, counted over tie blocks instead of enumerated.  Rank-sum is JT
on two groups, so its exact p-value reads the same counts.

Each test pools its samples into one numpy array that orders and ties the
values as Python does (``_pooled``, which also screens for NaN) and takes
from it the JT count, by ``np.sort`` and ``np.searchsorted``, and the tie
sizes, by ``np.unique``.

The normal tails come from ``math.erfc`` and the Student-t tail of the OLS
p-values from the regularized incomplete beta function, evaluated by its
continued fraction, so the module needs numpy and ``math`` alone.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

EXACT_MAX_N = 12
# from 2**53 on, not every int converts to float64 exactly
_FLOAT_EXACT_INTS = 2.0 ** 53


def _pooled(groups: Sequence[Sequence[float]]) -> np.ndarray:
    """The groups' values end to end, as one array whose sort and search
    order and tie them as Python's comparisons do.

    int64 when numpy reads the values as integers that fit it (bools
    included); float64 when it reads them as floats and every value
    converts exactly (ints from 2**53 on are checked one by one); otherwise
    the values themselves as Python objects: ints past int64, ints that a
    float64 cannot hold beside floats, ``Fraction``, ``Decimal``.  Raises
    on NaN, which compares false with everything, so ranks and counts
    would be silently wrong."""
    values = [v for g in groups for v in g]
    x = np.array(values)
    if np.can_cast(x.dtype, np.int64):
        return x.astype(np.int64, copy=False)
    if x.dtype.kind == "f" and x.dtype.itemsize <= 8:
        x = x.astype(np.float64, copy=False)
        if np.isnan(x).any():
            raise ValueError("samples contain NaN")
        big = np.flatnonzero(np.abs(x) >= _FLOAT_EXACT_INTS)
        if all(values[i] == v for i, v in zip(big.tolist(), x[big].tolist())):
            return x
    if any(v != v for v in values):
        raise ValueError("samples contain NaN")
    x = np.empty(len(values), dtype=object)
    x[:] = values
    return x


def _tie_counts(pooled: np.ndarray) -> list[int]:
    """Sizes of the tie blocks of more than one value."""
    counts = np.unique(pooled, return_counts=True)[1]
    return counts[counts > 1].tolist()


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

def _jt_statistic(groups: Sequence[Sequence[float]],
                  pooled: np.ndarray | None = None) -> float:
    """Sum over ordered group pairs of Mann-Whitney counts, ties as 1/2.

    Each later group is counted against the sorted values of all earlier
    groups at once: a left ``searchsorted`` finds, for each of its values,
    the earlier values below it and a right one those below or tied, so
    their sum is its doubled count.  ``pooled`` is ``_pooled(groups)``,
    built here when not given."""
    x = _pooled(groups) if pooled is None else pooled
    doubled = 0
    end = len(groups[0])
    for g in groups[1:]:
        earlier = np.sort(x[:end])
        later = np.sort(x[end:end + len(g)])
        doubled += int(np.searchsorted(earlier, later, "left").sum()
                       + np.searchsorted(earlier, later, "right").sum())
        end += len(g)
    return doubled / 2


def _exact_p(groups: Sequence[Sequence[float]], hit: Callable[[int], bool]) -> float:
    """Share of the permutation null whose doubled JT statistic ``s``
    satisfies ``hit(s)``.

    The null spreads the pooled values over the groups in every one of the
    n!/prod(size_i!) ways.  Rather than walk them, count them one tie block
    at a time, smallest value first (Harding 1984; Streitberg & Roehmel
    1986): the state is how many values each group holds so far, and
    splitting a block of t tied values as (d_1..d_k) adds
    sum_{i<j} d_j * (2*h_i + d_i) to the doubled statistic and stands for
    t!/prod(d_i!) of those ways.  Counts are exact integers, so the p-value
    is the same ratio an enumeration would give.

    A state's counts are packed into one int: the count of statistic s sits
    in bits s*W .. (s+1)*W - 1, W the bit length of the n!/prod(size_i!)
    total.  No count exceeds that total (each partial assignment extends to
    a full one), so no field carries into the next, and adding ``add`` to
    every statistic is a shift by add*W."""
    sizes = tuple(len(g) for g in groups)
    blocks = sorted(Counter(v for g in groups for v in g).items())
    total = math.factorial(sum(sizes)) // math.prod(math.factorial(k) for k in sizes)
    width = total.bit_length()
    # held per group -> packed counts of the doubled statistic so far
    dist: dict[tuple[int, ...], int] = {tuple(0 for _ in sizes): 1}
    for _, t in blocks:
        nxt: dict[tuple[int, ...], int] = {}
        for held, packed in dist.items():
            room = tuple(size - h for size, h in zip(sizes, held))
            for split in _splits(t, room):
                add, below, ways = 0, 0, math.factorial(t)
                for h, d in zip(held, split):
                    add += d * below
                    below += 2 * h + d
                    ways //= math.factorial(d)
                key = tuple(h + d for h, d in zip(held, split))
                nxt[key] = nxt.get(key, 0) + (packed * ways << add * width)
        dist = nxt
    (packed,) = dist.values()
    mask = (1 << width) - 1
    hits = sum((packed >> s * width) & mask
               for s in range(packed.bit_length() // width + 1) if hit(s))
    return hits / total


def _splits(t: int, room: tuple[int, ...]):
    """Every way to put t tied values into groups with the given free room."""
    if len(room) == 1:
        if t <= room[0]:
            yield (t,)
        return
    for d in range(min(t, room[0]) + 1):
        for rest in _splits(t - d, room[1:]):
            yield (d,) + rest


def _jt_moments(sizes: Sequence[int], ties: Sequence[int]) -> tuple[float, float]:
    """Null mean and tie-corrected variance of the JT statistic for groups
    of the given sizes and tie blocks of the given sizes."""
    n = sum(sizes)
    mean = (n * n - sum(s * s for s in sizes)) / 4.0
    t1 = (n * (n - 1) * (2 * n + 5)
          - sum(s * (s - 1) * (2 * s + 5) for s in sizes)
          - sum(t * (t - 1) * (2 * t + 5) for t in ties)) / 72.0
    if n > 2:
        t2 = (sum(s * (s - 1) * (s - 2) for s in sizes)
              * sum(t * (t - 1) * (t - 2) for t in ties)
              / (36.0 * n * (n - 1) * (n - 2)))
    else:
        t2 = 0.0
    t3 = (sum(s * (s - 1) for s in sizes) * sum(t * (t - 1) for t in ties)
          / (8.0 * n * (n - 1)))
    return mean, t1 + t2 + t3


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
    pooled = _pooled(groups)
    n = len(pooled)
    stat = _jt_statistic(groups, pooled)
    if method == "exact" or (method == "auto" and n <= EXACT_MAX_N):
        if alternative == "decreasing":
            return stat, _exact_p(groups, lambda s: s <= 2 * stat)
        return stat, _exact_p(groups, lambda s: s >= 2 * stat)
    if method not in ("auto", "approx"):
        raise ValueError(f"unknown method {method!r}")
    mean, var = _jt_moments([len(g) for g in groups], _tie_counts(pooled))
    if var <= 0:  # all pooled values identical: no evidence either way
        return stat, 1.0
    sd = math.sqrt(var)
    if alternative == "decreasing":
        return stat, _norm_cdf((stat - mean + 0.5) / sd)
    return stat, _norm_sf((stat - mean - 0.5) / sd)


# ---------------------------------------------------------------------------
# Wilcoxon rank-sum
# ---------------------------------------------------------------------------

def wilcoxon_ranksum(a: Sequence[float], b: Sequence[float],
                     method: str = "auto") -> tuple[float, float]:
    """Two-sided rank-sum test; statistic is the rank sum of ``a`` with
    midranks for ties.  Exact permutation p when n_a + n_b <= 12, else a
    tie- and continuity-corrected normal approximation."""
    a, b = list(a), list(b)
    if not a or not b:
        raise ValueError("both samples must be non-empty")
    pooled = _pooled([a, b])
    na, nb = len(a), len(b)
    n = na + nb
    # the rank sum of a is na*(na+1)/2 + na*nb - JT([a, b]), so its distance
    # from the mean is |2*JT - na*nb| / 2; every term is a multiple of 1/2,
    # so the float sum is exact
    jt = _jt_statistic([a, b], pooled)
    stat = na * (na + 1) / 2 + na * nb - jt

    if method == "exact" or (method == "auto" and n <= EXACT_MAX_N):
        dev = abs(2 * jt - na * nb)
        return stat, _exact_p([a, b], lambda s: abs(s - na * nb) >= dev)
    if method not in ("auto", "approx"):
        raise ValueError(f"unknown method {method!r}")

    mean = na * (n + 1) / 2.0
    ties = _tie_counts(pooled)
    var = na * nb / 12.0 * ((n + 1) - sum(t ** 3 - t for t in ties) / (n * (n - 1.0)))
    if var <= 0:
        return stat, 1.0
    z = (abs(stat - mean) - 0.5) / math.sqrt(var)
    return stat, min(1.0, 2.0 * _norm_sf(z))


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
    """Least squares via QR.  Classical standard errors by default; set
    ``robust=True`` for HC1 heteroskedasticity-robust errors.  Raises
    unless there are more rows than columns (standard errors need a residual
    degree of freedom), and on rank deficiency, naming the offending column."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-dimensional")
    n, k = X.shape
    if columns is None:
        columns = [f"x{j}" for j in range(k)]
    if len(columns) != k:
        raise ValueError("column names must match X's width")
    if n <= k:
        raise ValueError(f"need more than {k} rows, got {n}")
    q, r = np.linalg.qr(X)
    diag = np.abs(np.diag(r))
    tol = max(n, k) * np.finfo(float).eps * (diag.max() if diag.size else 0.0)
    bad = np.nonzero(diag <= tol)[0]
    if bad.size:
        raise ValueError(f"design matrix is rank deficient at column {columns[bad[0]]!r}")
    coef = np.linalg.solve(r, q.T @ y)
    resid = y - X @ coef
    rss = float(resid @ resid)
    tss = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if tss == 0 else 1.0 - rss / tss
    df = n - k
    rinv = np.linalg.inv(r)
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
