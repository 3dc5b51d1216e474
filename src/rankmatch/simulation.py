"""Seeded Monte Carlo over markets and strategy profiles.

Two profile kinds:

* ``FixedReport`` — every agent submits a fixed rank list; each replication
  draws only the tie-break order and runs the real engine.  A block's orders
  form one (reps x n) array.  When the block holds at least n! of them,
  orders repeat: each row gets an exact integer code, and ``np.unique``
  gives the distinct codes and how often each was drawn.  ``batch_rsd`` /
  ``batch_boston`` then run each distinct order once, a chunk at a time, in
  n or n * n vectorized steps, and the sums weight every outcome by its
  count, so a block of n = 5 runs at most 120 rows.  With more possible
  orders than draws, each row is its own group.  One block function serves
  ``simulate`` and the per-replication CSV, whose lines it writes chunk by
  chunk of replications, each replication finding its distinct row by
  code.  An agent's good fixes its rank and utility, so after its rep
  number a line is one of n * n tails, made once per block.  The first
  ``REFERENCE_CHECK_REPS`` drawn orders of every block are also run
  through the scalar ``run_rsd`` / ``run_boston`` and compared with their
  distinct row's outcome, and any disagreement raises, so a fault in either
  engine or in the grouping stops the run.
* ``Structured`` — the symmetric-environment strategies: each agent picks
  which top good to rank first, lower goods are ranked uniformly at random,
  and losers of the top-goods phase receive a uniform leftover good / list
  slot (Boston: slots 2..n-1 with the other top good last; the all-x1 corner
  ranks x2 second, as does RSD everywhere).  A block draws a (reps x n)
  array of slots and the winners of x1 and x2, and keeps only tallies:
  every replication's value total is the same constant, so welfare moments
  follow from rho totals, and the histogram and per-agent sums from one
  count of (agent, rank) pairs.  A replication's outcome depends only on
  its draws, at most (n-2)**n * n * (n-1) distinct ones (4 860 at n = 5).
  When a run's first block holds at least ``GROUP_REPEATS`` replications
  per possible draw, every block of the run only counts its draws by code;
  the run adds the counts up in index order and tallies each distinct draw
  once, weighted by its count, as fixed profiles do with orders.

Randomness is consumed in fixed-size blocks, one Philox substream
``(seed, block_index)`` per block, and blocks are merged in index order, so
the report is byte-identical for any worker count.  A block's draws are made
whole; the work after them (engine runs, gathers, sums, CSV lines) runs a
chunk of at most ``CHUNK_CELLS`` cells (rows x n) at a time into exact
integer sums, so its temporaries stay small and are reused from the heap
across chunks and blocks instead of being returned to the kernel and
faulted back.  Only for the CSV lines does a block keep a cell per agent
of each distinct row, agent * n + good.  ``concurrent.futures`` is imported
only by a run that uses more than one worker.
"""
from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import prng
from .core import MarketInstance, RankList
from .equilibrium import SymmetricInstance
from .batch import batch_mechanism
from .mechanisms import MechanismKind, TieBreakOrder, run_mechanism

BLOCK_SIZE = 1 << 16
# cells (rows x agents) of post-draw work per chunk: the engine, gathers,
# sums and CSV lines of CHUNK_CELLS // n rows at a time, so that a chunk's
# temporaries are reused from the heap rather than trimmed and faulted back
CHUNK_CELLS = 1 << 15
# orders per block checked against the scalar reference engine
REFERENCE_CHECK_REPS = 16
# a structured block groups equal draws when it holds at least this many
# replications per possible draw; on 2 Xeon cores grouping was faster from
# about 4 at n = 5, and slower at 3.2 at n = 6
GROUP_REPEATS = 8


@dataclass(frozen=True)
class StrategyProfile:
    """Either fixed reports for all agents or per-agent structured tops."""

    fixed: tuple[RankList, ...] | None = None
    tops: tuple[int, ...] | None = None

    def __post_init__(self):
        if (self.fixed is None) == (self.tops is None):
            raise ValueError("profile must set exactly one of fixed / tops")
        if self.fixed is not None:
            object.__setattr__(self, "fixed", tuple(self.fixed))
        else:
            object.__setattr__(self, "tops", tuple(int(t) for t in self.tops))
            if any(t not in (1, 2) for t in self.tops):
                raise ValueError("structured tops must be 1 (x1) or 2 (x2)")

    @staticmethod
    def fixed_reports(reports: Sequence[RankList]) -> "StrategyProfile":
        return StrategyProfile(fixed=tuple(reports))

    @staticmethod
    def structured(tops: Sequence[int]) -> "StrategyProfile":
        return StrategyProfile(tops=tuple(tops))

    @staticmethod
    def structured_n1(n: int, n1: int) -> "StrategyProfile":
        """First n1 agents rank x1 first, the rest rank x2 first."""
        if not 0 <= n1 <= n:
            raise ValueError(f"n1 must be in 0..{n}, got {n1}")
        return StrategyProfile(tops=tuple(1 if i < n1 else 2 for i in range(n)))


@dataclass(frozen=True)
class SimReport:
    mechanism: MechanismKind
    replications: int
    seed: int
    rank_histogram: tuple[int, ...]
    welfare_mean: float
    welfare_se: float
    rho_mean: float
    rho_se: float
    agent_eu_mean: tuple[float, ...]
    group_eu: dict[str, float] | None  # structured profiles only

    def rank_fractions(self) -> tuple[float, ...]:
        return tuple(c / (self.replications * len(self.rank_histogram))
                     for c in self.rank_histogram)

    def to_json_dict(self) -> dict:
        return {
            "mechanism": self.mechanism.value,
            "replications": self.replications,
            "seed": self.seed,
            "rank_histogram": list(self.rank_histogram),
            "rank_fractions": list(self.rank_fractions()),
            "welfare_mean_cents": self.welfare_mean,
            "welfare_se_cents": self.welfare_se,
            "rho_mean_cents": self.rho_mean,
            "rho_se_cents": self.rho_se,
            "agent_eu_mean_cents": list(self.agent_eu_mean),
            "group_eu_cents": self.group_eu,
        }


def _as_symmetric(market) -> SymmetricInstance:
    if isinstance(market, SymmetricInstance):
        return market
    rows = market.values.rows
    if any(r != rows[0] for r in rows):
        raise ValueError("structured profiles need identical value rows")
    row = rows[0]
    n = market.n
    if n < 3 or any(row[j] != row[2] for j in range(2, n)):
        raise ValueError("structured profiles need goods (x1, x2, common tail)")
    return SymmetricInstance(n, row[0], row[1], row[2], market.rho)


@dataclass
class _Acc:
    """Sums over the replications of a chunk, a block or a whole run, merged
    in index order.  Money sums are exact Python ints, so the report does
    not depend on the block or chunk count."""

    reps: int
    w_sum: int
    w_sumsq: int
    r_sum: int
    r_sumsq: int
    hist: np.ndarray  # int64 counts of received ranks 1..n
    agent_u: list[int]

    @staticmethod
    def zero(n: int) -> "_Acc":
        return _Acc(0, 0, 0, 0, 0, np.zeros(n, dtype=np.int64), [0] * n)

    def add(self, other: "_Acc") -> None:
        self.reps += other.reps
        self.w_sum += other.w_sum
        self.w_sumsq += other.w_sumsq
        self.r_sum += other.r_sum
        self.r_sumsq += other.r_sumsq
        self.hist += other.hist
        self.agent_u = [a + u for a, u in zip(self.agent_u, other.agent_u)]


def _mean_se(total: int, total_sq: int, count: int) -> tuple[float, float]:
    """Mean and its standard error from exact integer sums; the variance is
    formed in integers and rounded to float once."""
    mean = total / count
    if count < 2:
        return mean, 0.0
    var_of_mean = (count * total_sq - total * total) / (count * count * (count - 1))
    return mean, math.sqrt(var_of_mean)


def _sum_dtype(bound: int, reps: int):
    """int64 when no chunk sum can overflow it: per-replication totals are at
    most ``bound`` in size, so their squares summed over ``reps`` replications
    are the largest sum.  Otherwise Python ints (``object`` arrays)."""
    return np.int64 if reps * bound * bound < 1 << 63 else object


def _chunk_rows(n: int) -> int:
    """Rows per chunk at n agents: ``CHUNK_CELLS // n``, at least one."""
    return max(1, CHUNK_CELLS // n)


def _chunks(reps: int, n: int) -> list[tuple[int, int]]:
    """``(lo, hi)`` row bounds of a block's chunks."""
    step = _chunk_rows(n)
    return [(lo, min(lo + step, reps)) for lo in range(0, reps, step)]


def _tally(cells: np.ndarray, counts: np.ndarray, size: int) -> np.ndarray:
    """int64 counts of the values 0..size-1 in (rows x k) ``cells``, row i
    standing for ``counts[i]`` rows; the float bins of rows drawn more than
    once are exact while no value occurs 2**53 times, which takes a run of
    2**53 / k replications."""
    out = np.bincount(cells.ravel(), minlength=size)
    again = counts > 1
    if again.any():
        out += np.bincount(cells[again].ravel(), minlength=size,
                           weights=np.repeat(counts[again] - 1, cells.shape[1])).astype(np.int64)
    return out


def _chunk_sums(ranks: np.ndarray, utils: np.ndarray, rho_got: np.ndarray,
                counts: np.ndarray) -> _Acc:
    """One chunk's sums from (rows x n) received ranks, utilities and the rho
    part of each utility, row i standing for ``counts[i]`` replications."""
    welfare = utils.sum(axis=1)
    rho_tot = rho_got.sum(axis=1)
    return _Acc(int(counts.sum()), int(counts @ welfare), int(counts @ (welfare * welfare)),
                int(counts @ rho_tot), int(counts @ (rho_tot * rho_tot)),
                _tally(ranks - 1, counts, ranks.shape[1]), [int(u) for u in counts @ utils])


def _fixed_block(kind: MechanismKind, market: MarketInstance,
                 reports: Sequence[RankList], pref: np.ndarray,
                 reps: int, seed: int, block: int,
                 write: Callable[[str], object] | None = None) -> _Acc:
    """Draw one block of tie-break orders, stream (seed, block), and sum their
    outcomes.  The batch engine runs once per distinct order of the block, a
    chunk of distinct orders at a time, and each chunk's sums weight an
    order's outcome by the number of times it was drawn.  With ``write``, the
    per-replication CSV lines are passed to it a chunk of replications at a
    time, each chunk as one string, numbered from the block's first
    replication."""
    n = market.n
    gen = prng.generator(seed, block)
    orders = np.tile(np.arange(n), (reps, 1))
    gen.permuted(orders, axis=1, out=orders)
    if math.factorial(n) <= reps:
        # orders repeat: group equal rows by their code sum(order[j] * n**j);
        # a block that fits in memory has reps < 16!, so n <= 15 and every
        # code is below n**n < 2**63
        powers = n ** np.arange(n)
        code = orders @ powers
        uniq, counts = np.unique(code, return_counts=True)
        distinct = uniq[:, None] // powers % n
    else:
        # more orders than draws: few repeat, and grouping them would cost
        # more than it saves, so every row is its own group
        code = uniq = np.arange(reps)
        counts = np.ones(reps, dtype=np.int64)
        distinct = orders
    rows, rho = market.values.rows, market.rho.values
    bound = n * (max(max(r) for r in rows) + max(abs(v) for v in rho))
    # one distinct order may stand for every replication of the block
    dtype = _sum_dtype(bound, reps)
    rho_arr, value_arr = np.asarray(rho, dtype=dtype), np.asarray(rows, dtype=dtype)
    agents = np.arange(n)
    # distinct row of each replication the scalar engine checks
    check = np.searchsorted(uniq, code[:REFERENCE_CHECK_REPS])
    # agent * n + good of every agent in the distinct rows, for the CSV lines
    kept = None if write is None else np.empty((len(uniq), n), dtype=np.int64)
    acc = _Acc.zero(n)
    for lo, hi in _chunks(len(uniq), n):
        goods, ranks = batch_mechanism(kind, pref, distinct[lo:hi])
        for rep in np.flatnonzero((check >= lo) & (check < hi)).tolist():
            order, got = orders[rep].tolist(), goods[check[rep] - lo].tolist()
            expected = run_mechanism(kind, reports, TieBreakOrder(order)).assignment
            if tuple(got) != expected:
                raise RuntimeError(f"{kind.value} batch engine gave {got} for order {order} "
                                   f"(block {block}, rep {rep}); the reference engine "
                                   f"gives {list(expected)}")
        rho_got = rho_arr[ranks - 1]
        utils = value_arr[agents, goods] + rho_got
        acc.add(_chunk_sums(ranks, utils, rho_got, counts[lo:hi]))
        if kept is not None:
            kept[lo:hi] = goods + agents * n
    if write is not None:
        # an agent's good fixes its rank and utility, so every line after its
        # rep number is one of n * n tails, made from the market's ints
        tails = np.empty(n * n, dtype=object)
        for i, (report, values) in enumerate(zip(reports, rows)):
            for r, good in enumerate(report.order):
                tails[i * n + good] = f",{i},{good},{r + 1},{values[good] + rho[r]}\r\n"
        for lo, hi in _chunks(reps, n):
            first = block * BLOCK_SIZE + lo
            numbers = np.array([str(r) for r in range(first, first + hi - lo)], dtype=object)
            cells = kept[np.searchsorted(uniq, code[lo:hi])]
            write("".join((numbers[:, None] + tails[cells]).ravel().tolist()))
    return acc


def _spans(kind: MechanismKind, n: int, n1: int) -> tuple[int, int, int]:
    """A structured profile's draws at n agents, n1 of them x1-first: the
    lowest rank of a slot, and the spans of the two winner draws.

    Agents who win no top good draw uniform slots: 3..n when both top goods
    go in the first two picks or rounds (RSD, the all-x1 corner), else
    2..n-1; then two draws pick the winners, one from each group in Boston's
    interior, else one agent and one of the rest."""
    interior = kind == MechanismKind.BOSTON and 1 <= n1 <= n - 1
    low = 2 if interior or (kind == MechanismKind.BOSTON and n1 == 0) else 3
    span_a, span_b = (n1, n - n1) if interior else (n, n - 1)
    return low, span_a, span_b


def _grouped(kind: MechanismKind, n: int, tops: tuple[int, ...], replications: int) -> bool:
    """Whether a structured run counts its draws by code: when its first
    block holds at least ``GROUP_REPEATS`` replications per possible draw.
    A replication's outcome depends only on its draws, at most
    (n-2)**n * n * (n-1) distinct ones (4 860 at n = 5)."""
    _, span_a, span_b = _spans(kind, n, tops.count(1))
    return GROUP_REPEATS * (n - 2) ** n * span_a * span_b <= min(BLOCK_SIZE, replications)


def _structured_draws(kind: MechanismKind, n: int, tops: tuple[int, ...], reps: int,
                      seed: int, block: int, group: bool):
    """One block's draws, stream (seed, block): (reps x n) slots and the two
    winner draws.  Grouped, the slots are drawn as digits 0..n-3 of a code,
    in int32 (the values int64 draws give, less the lowest rank); else as
    int64 ranks, which index fastest when rows are tallied one by one."""
    low, span_a, span_b = _spans(kind, n, tops.count(1))
    gen = prng.generator(seed, block)
    first, dtype = (0, np.int32) if group else (low, np.int64)
    slots = gen.integers(first, first + n - 2, size=(reps, n), dtype=dtype)
    return (slots, gen.integers(0, span_a, size=reps, dtype=dtype),
            gen.integers(0, span_b, size=reps, dtype=dtype))


def _structured_block(kind: MechanismKind, inst: SymmetricInstance,
                      tops: tuple[int, ...], reps: int, seed: int, block: int) -> _Acc:
    """One block's sums, each replication tallied on its own."""
    ranks, a, b = _structured_draws(kind, inst.n, tops, reps, seed, block, False)
    return _structured_tally(kind, inst, tops, ranks, a, b,
                             np.ones(reps, dtype=np.int64), reps)


def _structured_codes(kind: MechanismKind, inst: SymmetricInstance,
                      tops: tuple[int, ...], reps: int, seed: int, block: int) -> np.ndarray:
    """How often one block draws each possible draw: the count of each code
    (b * span_a + a) * (n - 2)**n + (slots in base n - 2)."""
    n = inst.n
    _, span_a, span_b = _spans(kind, n, tops.count(1))
    slots, a, code = _structured_draws(kind, n, tops, reps, seed, block, True)
    # the codes are below (n - 2)**n * span_a * span_b <= BLOCK_SIZE and are
    # written over the b draws
    for col, base in [(a, span_a)] + [(slots[:, j], n - 2) for j in range(n - 1, -1, -1)]:
        code *= base
        code += col
    return np.bincount(code, minlength=(n - 2) ** n * span_a * span_b)


def _structured_grouped(kind: MechanismKind, inst: SymmetricInstance,
                        tops: tuple[int, ...], counts: np.ndarray, reps: int) -> _Acc:
    """The sums of ``reps`` replications from the count of each draw code:
    each distinct draw is placed and tallied once, weighted by its count."""
    n = inst.n
    low, span_a, _ = _spans(kind, n, tops.count(1))
    code = np.flatnonzero(counts)
    ranks = code[:, None] // (n - 2) ** np.arange(n) % (n - 2) + low
    b, a = np.divmod(code // (n - 2) ** n, span_a)
    return _structured_tally(kind, inst, tops, ranks, a, b, counts[code], reps)


def _summed(counts: Iterator[np.ndarray]) -> np.ndarray:
    """The sum of the blocks' draw counts, added in place in index order."""
    total = next(counts)
    for more in counts:
        total += more
        del more  # before the next block draws, so one block's counts are held
    return total


def _structured_tally(kind: MechanismKind, inst: SymmetricInstance, tops: tuple[int, ...],
                      ranks: np.ndarray, a_all: np.ndarray, b_all: np.ndarray,
                      counts: np.ndarray, reps: int) -> _Acc:
    """The sums of ``reps`` replications from the received ranks of their
    draws: (rows x n) slot ranks and the two winner draws of each row, row i
    standing for ``counts[i]`` replications.

    Every replication gives x1 to one agent, x2 to another and a tail good
    to the rest, so its value total is the constant ``C`` and its welfare is
    ``C`` plus its rho total; per-agent sums come from an (agent, rank)
    tally.  Placing and tallying run a chunk of rows at a time.
    """
    n = inst.n
    tops_arr = np.asarray(tops)
    x1_group = np.flatnonzero(tops_arr == 1)
    x2_group = np.flatnonzero(tops_arr == 2)
    n1 = len(x1_group)
    interior = kind == MechanismKind.BOSTON and 1 <= n1 <= n - 1
    rho = inst.rho.values
    # rho_of[rank] for 1-based ranks; each replication's rho total by column
    # adds; one distinct draw may stand for every replication
    rho_of = np.asarray((0,) + rho, dtype=_sum_dtype(n * max(abs(v) for v in rho), reps))
    # (agent, rank) codes agent * n + rank - 1, written over ranks
    codes = np.arange(-1, n * n - 1, n)
    r_sum = r_sumsq = 0
    tally = np.zeros(n * n, dtype=np.int64)
    for lo, hi in _chunks(len(counts), n):
        rk, a, b, c = ranks[lo:hi], a_all[lo:hi], b_all[lo:hi], counts[lo:hi]
        rows = np.arange(hi - lo)
        if kind == MechanismKind.RSD or n1 == n:
            # first pick: uniform agent a gets own top at rank 1; second
            # pick: uniform b among the rest gets the other top good (rank 1
            # if it is their own top, else rank 2).  Boston's all-x1 corner
            # is the same draw: lists (x1, x2, lowers) give x1 to a in round
            # 1 and x2 to b at rank 2 in round 2
            b = np.where(b >= a, b + 1, b)
            rk[rows, a] = 1
            rk[rows, b] = np.where(tops_arr[b] != tops_arr[a], 1, 2)
        elif interior:
            # round 1 resolves both top goods
            rk[rows, x1_group[a]] = 1
            rk[rows, x2_group[b]] = 1
        else:
            # n1 == 0: lists (x2, lowers, x1); one loser is left holding x1
            # at the bottom of their list after the lower goods run out
            rk[rows, a] = 1
            rk[rows, np.where(b >= a, b + 1, b)] = n
        got = rho_of[rk]
        r = got[:, 0] + got[:, 1]
        for j in range(2, n):
            r += got[:, j]
        r_sum += int(c @ r)
        r_sumsq += int(c @ (r * r))
        rk += codes
        tally += _tally(rk, c, n * n)
    tally = tally.reshape(n, n)
    # rank 1 is always an agent's own top good, and the other top good comes
    # at a rank no slot takes: 2 when slots start at 3, else n (the all-x2
    # corner; in the interior no agent receives rank n)
    other = 1 if _spans(kind, n, n1)[0] == 3 else n - 1
    agent_u = []
    for top, by_rank in zip(tops, tally.tolist()):
        own, alt = (inst.v1, inst.v2) if top == 1 else (inst.v2, inst.v1)
        agent_u.append(by_rank[0] * own + by_rank[other] * alt
                       + (reps - by_rank[0] - by_rank[other]) * inst.vbar
                       + sum(c * v for c, v in zip(by_rank, rho)))
    C = inst.v1 + inst.v2 + (n - 2) * inst.vbar
    return _Acc(reps, reps * C + r_sum, reps * C * C + 2 * C * r_sum + r_sumsq,
                r_sum, r_sumsq, tally.sum(axis=0), agent_u)


def _block_sizes(replications: int) -> Iterator[int]:
    """The block sizes in index order, made lazily."""
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    return (min(BLOCK_SIZE, left) for left in range(replications, 0, -BLOCK_SIZE))


def _in_index_order(pool, block_fn: Callable, sizes: Iterator[int], ahead: int) -> Iterator:
    """``block_fn(size, index)`` of each block, run on ``pool`` and yielded in
    index order, with at most ``ahead`` blocks submitted and not yet merged,
    so memory does not grow with the block count as under ``pool.map``."""
    pending: deque = deque()
    for b, size in enumerate(sizes):
        if len(pending) == ahead:
            yield pending.popleft().result()
        pending.append(pool.submit(block_fn, size, b))
    while pending:
        yield pending.popleft().result()


def _fixed_setup(market, profile: StrategyProfile) -> tuple[MarketInstance, np.ndarray]:
    """The market and the (n x n) report array of a fixed-report profile."""
    mkt = market.market() if isinstance(market, SymmetricInstance) else market
    if len(profile.fixed) != mkt.n or any(len(r) != mkt.n for r in profile.fixed):
        raise ValueError("profile size must match market size")
    return mkt, np.array([r.order for r in profile.fixed], dtype=np.int64)


def _report(kind: MechanismKind, replications: int, seed: int, n: int,
            profile: StrategyProfile, results) -> SimReport:
    """Merge block sums, in block-index order, into a report."""
    acc = _Acc.zero(n)
    for res in results:
        acc.add(res)
    w_mean, w_se = _mean_se(acc.w_sum, acc.w_sumsq, acc.reps)
    r_mean, r_se = _mean_se(acc.r_sum, acc.r_sumsq, acc.reps)
    agent_eu = tuple(u / acc.reps for u in acc.agent_u)

    group_eu = None
    if profile.tops is not None:
        group_eu = {}
        for name, top in (("x1_first", 1), ("x2_first", 2)):
            members = [i for i in range(n) if profile.tops[i] == top]
            if members:
                group_eu[name] = float(np.mean([agent_eu[i] for i in members]))
    return SimReport(kind, replications, seed, tuple(int(c) for c in acc.hist),
                     w_mean, w_se, r_mean, r_se, agent_eu, group_eu)


def simulate(kind: MechanismKind, market, profile: StrategyProfile,
             replications: int, seed: int, threads: int = 1) -> SimReport:
    """Monte Carlo estimate of rank distribution, welfare, and per-agent EU.

    Deterministic for fixed (inputs, seed) regardless of ``threads``, which
    is capped at the core count and the block count.  ``market`` may be a
    MarketInstance or, for structured profiles, a SymmetricInstance.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    sizes = _block_sizes(replications)
    finish: Callable = lambda results: results
    if profile.tops is not None:
        inst = _as_symmetric(market)
        n, tops = inst.n, profile.tops
        if len(tops) != n:
            raise ValueError("profile size must match market size")
        if _grouped(kind, n, tops, replications):
            # blocks count their draws by code, and the run tallies the sum once
            block_fn: Callable = lambda reps, b: _structured_codes(kind, inst, tops, reps, seed, b)
            finish = lambda counts: [_structured_grouped(kind, inst, tops, _summed(counts),
                                                         replications)]
        else:
            block_fn = lambda reps, b: _structured_block(kind, inst, tops, reps, seed, b)
    else:
        mkt, pref = _fixed_setup(market, profile)
        n = mkt.n
        block_fn = lambda reps, b: _fixed_block(kind, mkt, profile.fixed, pref,
                                                reps, seed, b)

    workers = min(threads, os.cpu_count() or 1, -(-replications // BLOCK_SIZE))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # only a pool needs it

        with ThreadPoolExecutor(max_workers=workers) as pool:
            # two blocks per worker: one running, one queued while the caller merges
            return _report(kind, replications, seed, n, profile,
                           finish(_in_index_order(pool, block_fn, sizes, 2 * workers)))
    return _report(kind, replications, seed, n, profile,
                   finish(block_fn(size, b) for b, size in enumerate(sizes)))


def rank_distribution(kind: MechanismKind, market, profile: StrategyProfile,
                      replications: int, seed: int,
                      threads: int = 1) -> tuple[float, ...]:
    """Fraction of agent-replications receiving their j-th ranked good."""
    return simulate(kind, market, profile, replications, seed, threads).rank_fractions()


def write_replication_csv(kind: MechanismKind, market, profile: StrategyProfile,
                          replications: int, seed: int, path) -> SimReport:
    """Per-replication records (fixed profiles only), from the same engine
    runs and tie-break streams as ``simulate``.  Returns the report
    ``simulate`` gives for these arguments, from the same single pass; the
    blocks run one after another, in the order they are written, and each
    chunk is written as one string of ``csv``-style lines."""
    if profile.fixed is None:
        raise ValueError("per-replication CSV supports fixed-report profiles only")
    sizes = _block_sizes(replications)
    mkt, pref = _fixed_setup(market, profile)
    with open(path, "w", newline="") as fh:
        fh.write("rep,agent,good,rank,utility_cents\r\n")
        return _report(kind, replications, seed, mkt.n, profile,
                       (_fixed_block(kind, mkt, profile.fixed, pref, size, seed, block, fh.write)
                        for block, size in enumerate(sizes)))
