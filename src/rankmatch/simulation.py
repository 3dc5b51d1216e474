"""Seeded Monte Carlo over markets and strategy profiles.

An agent's utility for a good is its value plus rho of the rank at which the
agent listed it, so a replication's outcome is the (agent, rank) cells it
hands out.  Every block, of either profile kind, records the count of
replications that gave each agent each rank, and the exact sums of squares
of their welfare and rho totals, which a count cannot give; the run prices
the merged count once, with its (agent, rank) utility rows.

* ``FixedReport`` — every agent submits a fixed rank list; each replication
  draws only the tie-break order and runs the real engine.  A block's orders
  form one (reps x n) array.  When the block holds at least n! of them,
  orders repeat: each row gets an exact integer code, and ``np.unique``
  gives the distinct codes and how often each was drawn.  ``batch_rsd`` /
  ``batch_boston`` then run each distinct order once, a chunk at a time, in
  n or n * n vectorized steps, and the tally weights every outcome by its
  count, so a block of n = 5 runs at most 120 rows.  With more possible
  orders than draws, each row is its own group.  One block function serves
  ``simulate`` and the per-replication CSV, whose lines it hands over chunk
  by chunk of replications, each replication finding its distinct row by
  code.  An agent's rank fixes its good and utility, so after its rep
  number a line is one of n * n tails, made once per run and indexed by
  the tally's (agent, rank) cell.  The first ``REFERENCE_CHECK_REPS``
  drawn orders of every block are also run through the scalar ``run_rsd``
  / ``run_boston`` and compared with their distinct row's outcome, and any
  disagreement raises, so a fault in either engine or in the grouping
  stops the run.
* ``Structured`` — the symmetric-environment strategies: each agent picks
  which top good to rank first, lower goods are ranked uniformly at random,
  and losers of the top-goods phase receive a uniform leftover good / list
  slot.  The slot-lottery model is ``equilibrium``'s: the slots are drawn
  from its ``_lottery_window``, and the market is read through
  ``SymmetricInstance.of``.  One ``_placement`` table per run places the
  two winners the same way for every mechanism and n1, and gives the rank
  at which an agent receives the other top good.  A block draws a (reps x
  n) array of slots and the two winner draws; every replication's value
  total is the same constant, so its welfare follows from its rho total.
  A replication's outcome depends only on its draws, at most
  (n-2)**n * n * (n-1) distinct ones (4 860 at n = 5).  When a run's first
  block holds at least ``GROUP_REPEATS`` replications per possible draw,
  every block of the run only counts its draws by code; the run adds the
  counts up in index order and tallies each distinct draw once, weighted by
  its count, as fixed profiles do with orders.

Randomness is consumed in fixed-size blocks, one Philox substream
``(seed, block_index)`` per block, and blocks are merged in index order, so
the report is byte-identical for any worker count.  A block's draws are made
whole; the work after them (engine runs, gathers, tallies, CSV lines) runs
a chunk of at most ``CHUNK_CELLS`` cells (rows x n) at a time, so its
temporaries stay small and are reused from the heap across chunks and
blocks instead of being returned to the kernel and faulted back.  Only for
the CSV lines does a block keep the cells of each distinct row, agent * n +
rank - 1.  ``concurrent.futures`` is imported only by a run that uses more
than one worker.
"""
from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import prng
from .core import RankList
from .equilibrium import SymmetricInstance, _lottery_window
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


@dataclass
class _Acc:
    """The record of a block's or a whole run's replications, merged in index
    order: ``tally[i, r]`` (int64, n x n) counts the replications that gave
    agent i its rank r + 1, and the two sums of squares, of the welfare and
    of the rho totals, are what a tally cannot give.  They are exact Python
    ints, so the report does not depend on the block or chunk count."""

    reps: int
    w_sumsq: int
    r_sumsq: int
    tally: np.ndarray

    def add(self, other: "_Acc") -> None:
        self.reps += other.reps
        self.w_sumsq += other.w_sumsq
        self.r_sumsq += other.r_sumsq
        self.tally += other.tally


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


def _fixed_block(kind: MechanismKind, reports: Sequence[RankList], pref: np.ndarray,
                 utils: list[list[int]], rho: Sequence[int], reps: int, seed: int, block: int,
                 write: Callable[[int, np.ndarray], object] | None = None) -> _Acc:
    """Draw one block of tie-break orders, stream (seed, block), and tally
    their outcomes.  The batch engine runs once per distinct order of the
    block, a chunk of distinct orders at a time, and each order's (agent,
    rank) cells count as often as it was drawn; ``utils`` are the run's
    (agent, rank) utility rows.  With ``write``, it is called once per chunk
    of replications, in order, with the number of the chunk's first
    replication and the chunk's (rows x n) cells."""
    n = len(utils)
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
    # a replication's welfare and rho totals are at most n times the largest
    # utility or rho in size, and one distinct order may stand for every
    # replication of the block
    dtype = _sum_dtype(n * max(abs(v) for row in (rho, *utils) for v in row), reps)
    # utility and rho of each (agent, rank) cell agent * n + rank - 1
    util_of = np.asarray(utils, dtype=dtype).ravel()
    rho_of = np.tile(np.asarray(rho, dtype=dtype), n)
    codes = np.arange(-1, n * n - 1, n)
    # distinct row of each replication the scalar engine checks
    check = np.searchsorted(uniq, code[:REFERENCE_CHECK_REPS])
    # the cells of every distinct row, for the CSV lines
    kept = None if write is None else np.empty((len(uniq), n), dtype=np.int64)
    w_sumsq = r_sumsq = 0
    tally = np.zeros(n * n, dtype=np.int64)
    for lo, hi in _chunks(len(uniq), n):
        goods, cells = batch_mechanism(kind, pref, distinct[lo:hi])
        for rep in np.flatnonzero((check >= lo) & (check < hi)).tolist():
            order, got = orders[rep].tolist(), goods[check[rep] - lo].tolist()
            expected = run_mechanism(kind, reports, TieBreakOrder(order)).assignment
            if tuple(got) != expected:
                raise RuntimeError(f"{kind.value} batch engine gave {got} for order {order} "
                                   f"(block {block}, rep {rep}); the reference engine "
                                   f"gives {list(expected)}")
        cells += codes  # the received ranks become (agent, rank) cells
        c = counts[lo:hi]
        w, r = util_of[cells].sum(axis=1), rho_of[cells].sum(axis=1)
        w_sumsq += int(c @ (w * w))
        r_sumsq += int(c @ (r * r))
        tally += _tally(cells, c, n * n)
        if kept is not None:
            kept[lo:hi] = cells
    if write is not None:
        for lo, hi in _chunks(reps, n):
            write(block * BLOCK_SIZE + lo, kept[np.searchsorted(uniq, code[lo:hi])])
    return _Acc(reps, w_sumsq, r_sumsq, tally.reshape(n, n))


def _placement(kind: MechanismKind, n: int,
               tops: tuple[int, ...]) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, int]:
    """A structured profile's placement table, built once per run: the lowest
    slot rank; for winner draws a and b the first winner ``first[a]``, the
    second winner ``second[a, b]`` and that winner's rank ``second_rank[a,
    b]``; and ``other``, the rank at which an agent receives the top good it
    does not rank first.

    Losers draw uniform slots of ``_lottery_window``, RSD's at the all-x1
    corner.  In Boston's interior round 1 gives x1 to a of the x1-first
    agents and x2 to b of the x2-first.  Otherwise a picks first and takes
    their own top, and b, one of the rest, the other top good: in RSD's
    second pick, in Boston's round 2 at the all-x1 corner, whose lists are
    (x1, x2, lowers), or at n1 = 0, whose lists are (x2, lowers, x1), by
    one loser left holding x1 after the lower goods run out."""
    n1 = tops.count(1)
    low = _lottery_window(MechanismKind.RSD if n1 == n else kind, n).start
    tops_arr = np.asarray(tops)
    if kind == MechanismKind.BOSTON and 0 < n1 < n:
        first = np.flatnonzero(tops_arr == 1)
        second = np.tile(np.flatnonzero(tops_arr == 2), (n1, 1))
    else:
        first, rest = np.arange(n), np.arange(n - 1)
        second = rest + (rest >= first[:, None])
    # the other top good is at rank 1 of a list that ranks it first, else
    # at the one rank above 1 that no slot takes: 2 or n
    other = 2 if low == 3 else n
    second_rank = np.where(tops_arr[second] != tops_arr[first][:, None], 1, other)
    return low, first, second, second_rank, other


def _structured_utils(inst: SymmetricInstance, tops: tuple[int, ...],
                      table) -> list[list[int]]:
    """The (agent, rank) utility rows of a structured profile: rank 1 is an
    agent's own top good, rank ``other`` of the ``_placement`` table the
    other top good (in Boston's interior no agent receives it) and every
    other rank a tail good worth vbar."""
    other, rows = table[4], []
    for top in tops:
        own, alt = (inst.v1, inst.v2) if top == 1 else (inst.v2, inst.v1)
        values = [own] + [alt if r == other else inst.vbar for r in range(2, inst.n + 1)]
        rows.append([v + p for v, p in zip(values, inst.rho.values)])
    return rows


def _grouped(table, n: int, replications: int) -> bool:
    """Whether a structured run counts its draws by code: when its first
    block holds at least ``GROUP_REPEATS`` replications per possible draw.
    A replication's outcome depends only on its draws, at most
    (n-2)**n * n * (n-1) distinct ones (4 860 at n = 5)."""
    return GROUP_REPEATS * (n - 2) ** n * table[2].size <= min(BLOCK_SIZE, replications)


def _structured_draws(table, n: int, reps: int, seed: int, block: int, group: bool):
    """One block's draws, stream (seed, block): (reps x n) slots and the two
    winner draws, a and b of the ``_placement`` table.  Grouped, the slots
    are drawn as digits 0..n-3 of a code, in int32 (the values int64 draws
    give, less the lowest rank); else as int64 ranks, which index fastest
    when rows are tallied one by one."""
    low, second = table[0], table[2]
    gen = prng.generator(seed, block)
    start, dtype = (0, np.int32) if group else (low, np.int64)
    slots = gen.integers(start, start + n - 2, size=(reps, n), dtype=dtype)
    return (slots, gen.integers(0, second.shape[0], size=reps, dtype=dtype),
            gen.integers(0, second.shape[1], size=reps, dtype=dtype))


def _structured_block(table, inst: SymmetricInstance, reps: int, seed: int, block: int) -> _Acc:
    """One block's record, each replication tallied on its own."""
    ranks, a, b = _structured_draws(table, inst.n, reps, seed, block, False)
    return _structured_tally(table, inst, ranks, a, b, np.ones(reps, dtype=np.int64), reps)


def _structured_codes(table, n: int, reps: int, seed: int, block: int) -> np.ndarray:
    """How often one block draws each possible draw: the count of each code
    (b * span_a + a) * (n - 2)**n + (slots in base n - 2), span_a and span_b
    being the shape of the ``_placement`` table's ``second``."""
    span_a, span_b = table[2].shape
    slots, a, code = _structured_draws(table, n, reps, seed, block, True)
    # the codes are below (n - 2)**n * span_a * span_b <= BLOCK_SIZE and are
    # written over the b draws
    for col, base in [(a, span_a)] + [(slots[:, j], n - 2) for j in range(n - 1, -1, -1)]:
        code *= base
        code += col
    return np.bincount(code, minlength=(n - 2) ** n * span_a * span_b)


def _structured_grouped(table, inst: SymmetricInstance, counts: np.ndarray, reps: int) -> _Acc:
    """The record of ``reps`` replications from the count of each draw code:
    each distinct draw is placed and tallied once, weighted by its count."""
    n, low, first = inst.n, table[0], table[1]
    code = np.flatnonzero(counts)
    ranks = code[:, None] // (n - 2) ** np.arange(n) % (n - 2) + low
    b, a = np.divmod(code // (n - 2) ** n, len(first))
    return _structured_tally(table, inst, ranks, a, b, counts[code], reps)


def _summed(counts: Iterator[np.ndarray]) -> np.ndarray:
    """The sum of the blocks' draw counts, added in place in index order."""
    total = next(counts)
    for more in counts:
        total += more
        del more  # before the next block draws, so one block's counts are held
    return total


def _structured_tally(table, inst: SymmetricInstance, ranks: np.ndarray, a_all: np.ndarray,
                      b_all: np.ndarray, counts: np.ndarray, reps: int) -> _Acc:
    """The record of ``reps`` replications from the received ranks of their
    draws: (rows x n) slot ranks and the two winner draws of each row, row i
    standing for ``counts[i]`` replications, placed by the ``_placement``
    table.

    Every replication gives x1 to one agent, x2 to another and a tail good
    to the rest, so its value total is the constant ``C`` and its welfare is
    ``C`` plus its rho total.  Placing and tallying run a chunk of rows at a
    time.
    """
    n = inst.n
    first, second, second_rank = table[1:4]
    # winners are placed through a flat view of the ranks, which is faster
    # than indexing (row, agent) pairs
    ranks = np.ascontiguousarray(ranks)
    flat = ranks.reshape(-1)
    rho = inst.rho.values
    # the rho of each (agent, rank) cell agent * n + rank - 1; one distinct
    # draw may stand for every replication
    rho_of = np.tile(np.asarray(rho, dtype=_sum_dtype(n * max(abs(v) for v in rho), reps)), n)
    codes = np.arange(-1, n * n - 1, n)
    r_sum = r_sumsq = 0
    tally = np.zeros(n * n, dtype=np.int64)
    for lo, hi in _chunks(len(counts), n):
        rk, a, c = ranks[lo:hi], a_all[lo:hi], counts[lo:hi]
        row = np.arange(lo * n, hi * n, n)  # each row's first cell
        ab = a * second.shape[1] + b_all[lo:hi]  # flat (a, b) in the table
        flat[row + first.take(a)] = 1
        flat[row + second.take(ab)] = second_rank.take(ab)
        rk += codes  # (agent, rank) cells, written over the ranks
        got = rho_of[rk]
        r = got[:, 0] + got[:, 1]
        for j in range(2, n):
            r += got[:, j]
        r_sum += int(c @ r)
        r_sumsq += int(c @ (r * r))
        tally += _tally(rk, c, n * n)
    C = inst.v1 + inst.v2 + (n - 2) * inst.vbar
    return _Acc(reps, reps * C * C + 2 * C * r_sum + r_sumsq, r_sumsq, tally.reshape(n, n))


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


def _fixed_setup(market, profile: StrategyProfile) -> tuple[np.ndarray, list, tuple]:
    """The (n x n) report array of a fixed-report profile, its (agent, rank)
    utility rows and the market's rho schedule."""
    mkt = market.market() if isinstance(market, SymmetricInstance) else market
    if len(profile.fixed) != mkt.n or any(len(r) != mkt.n for r in profile.fixed):
        raise ValueError("profile size must match market size")
    rho = mkt.rho.values
    utils = [[values[good] + p for good, p in zip(report.order, rho)]
             for report, values in zip(profile.fixed, mkt.values.rows)]
    return np.array([r.order for r in profile.fixed], dtype=np.int64), utils, rho


def _report(kind: MechanismKind, replications: int, seed: int, profile: StrategyProfile,
            utils: list[list[int]], rho: Sequence[int], results) -> SimReport:
    """Merge block records, in block-index order, into a report, pricing the
    run's tally once with its (agent, rank) utility rows ``utils``: the
    histogram, the per-agent sums and the welfare and rho totals are exact
    integers."""
    n = len(utils)
    acc = _Acc(0, 0, 0, np.zeros((n, n), dtype=np.int64))
    for res in results:
        acc.add(res)
    tally = acc.tally.tolist()
    hist = [sum(col) for col in zip(*tally)]
    agent_u = [sum(c * u for c, u in zip(counts, row)) for counts, row in zip(tally, utils)]
    w_mean, w_se = _mean_se(sum(agent_u), acc.w_sumsq, acc.reps)
    r_mean, r_se = _mean_se(sum(h * p for h, p in zip(hist, rho)), acc.r_sumsq, acc.reps)
    agent_eu = tuple(u / acc.reps for u in agent_u)

    group_eu = None
    if profile.tops is not None:
        group_eu = {}
        for name, top in (("x1_first", 1), ("x2_first", 2)):
            members = [i for i in range(n) if profile.tops[i] == top]
            if members:
                group_eu[name] = float(np.mean([agent_eu[i] for i in members]))
    return SimReport(kind, replications, seed, tuple(hist),
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
        inst = SymmetricInstance.of(market)
        n, tops, rho = inst.n, profile.tops, inst.rho.values
        if len(tops) != n:
            raise ValueError("profile size must match market size")
        table = _placement(kind, n, tops)
        utils = _structured_utils(inst, tops, table)
        if _grouped(table, n, replications):
            # blocks count their draws by code, and the run tallies the sum once
            block_fn: Callable = lambda reps, b: _structured_codes(table, n, reps, seed, b)
            finish = lambda counts: [_structured_grouped(table, inst, _summed(counts),
                                                         replications)]
        else:
            block_fn = lambda reps, b: _structured_block(table, inst, reps, seed, b)
    else:
        pref, utils, rho = _fixed_setup(market, profile)
        block_fn = lambda reps, b: _fixed_block(kind, profile.fixed, pref, utils, rho,
                                                reps, seed, b)

    workers = min(threads, os.cpu_count() or 1, -(-replications // BLOCK_SIZE))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # only a pool needs it

        with ThreadPoolExecutor(max_workers=workers) as pool:
            # two blocks per worker: one running, one queued while the caller merges
            return _report(kind, replications, seed, profile, utils, rho,
                           finish(_in_index_order(pool, block_fn, sizes, 2 * workers)))
    return _report(kind, replications, seed, profile, utils, rho,
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
    pref, utils, rho = _fixed_setup(market, profile)
    # an agent's rank fixes its good and utility, so every line after its rep
    # number is one of n * n tails, indexed by the tally's (agent, rank) cell
    tails = np.array([f",{i},{good},{r + 1},{u}\r\n"
                      for i, (report, row) in enumerate(zip(profile.fixed, utils))
                      for r, (good, u) in enumerate(zip(report.order, row))], dtype=object)
    with open(path, "w", newline="") as fh:
        def write(first: int, cells: np.ndarray) -> None:
            numbers = np.array([str(r) for r in range(first, first + len(cells))], dtype=object)
            fh.write("".join((numbers[:, None] + tails[cells]).ravel().tolist()))

        fh.write("rep,agent,good,rank,utility_cents\r\n")
        return _report(kind, replications, seed, profile, utils, rho,
                       (_fixed_block(kind, profile.fixed, pref, utils, rho, size, seed, block,
                                     write) for block, size in enumerate(sizes)))
