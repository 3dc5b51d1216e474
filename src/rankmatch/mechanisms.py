"""Deterministic RSD and Boston engines, their batch forms over many
tie-break orders at once, randomized wrappers, and exact expectation /
efficiency oracles: RSD's expected utilities by a DP over (agents served,
goods taken) states, Boston's and Pareto efficiency by enumeration.

A single ``TieBreakOrder`` drives both mechanisms: position 0 is the agent
who picks first in RSD and holds tie-break number 1 in Boston.  The scalar
``run_rsd`` / ``run_boston`` are the readable reference and serve single
orders.  The batch engines behind ``batch_mechanism`` run many orders in one
call, either under one profile shared by every row (``exact_expected_utilities``
runs Boston on the ``all_orders`` array, built in numpy, this way) or under a
profile per row (``equilibrium.brute_force_equilibria``'s label sequences and
``check_truthtelling_equilibrium``'s (list, position) rows, each once per
mechanism and n in a process), so each question is at most one engine call.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import prng
from .core import (
    MarketInstance,
    Matching,
    Outcome,
    RankList,
    SizeLimitError,
    build_outcome,
    _check_permutation,
)

EXACT_ENUM_MAX_N = 8
PARETO_ENUM_MAX_N = 7


class MechanismKind(str, Enum):
    RSD = "rsd"
    BOSTON = "boston"


@dataclass(frozen=True)
class TieBreakOrder:
    """Agent ids by priority: position 0 picks first / wins every tie."""

    order: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(self.order))
        _check_permutation(self.order, "tie-break order")

    def __len__(self) -> int:
        return len(self.order)


def _check_inputs(reports: Sequence[RankList], n: int) -> int:
    if len(reports) != n:
        raise ValueError(f"expected {n} reports, got {len(reports)}")
    for r in reports:
        if len(r) != n:
            raise ValueError("each report must rank all n goods")
    return n


def run_rsd(reports: Sequence[RankList], order: TieBreakOrder) -> Matching:
    """Serial dictatorship: agents pick their best remaining good in order."""
    n = _check_inputs(reports, len(order))
    taken = [False] * n
    assignment = [-1] * n
    for agent in order.order:
        for g in reports[agent].order:
            if not taken[g]:
                assignment[agent] = g
                taken[g] = True
                break
    return Matching(tuple(assignment))


def run_boston(reports: Sequence[RankList], order: TieBreakOrder) -> Matching:
    """Immediate acceptance: round k assigns k-th choices, ties by order.

    Rounds run k = 1..n even when every remaining k-th choice is already
    taken; such agents simply pass to the next round.
    """
    n = _check_inputs(reports, len(order))
    priority = {agent: pos for pos, agent in enumerate(order.order)}
    taken = [False] * n
    assignment = [-1] * n
    unassigned = list(range(n))
    for k in range(n):
        bids: dict[int, list[int]] = {}
        for agent in unassigned:
            g = reports[agent].order[k]
            if not taken[g]:
                bids.setdefault(g, []).append(agent)
        for g, bidders in bids.items():
            winner = min(bidders, key=priority.__getitem__)
            assignment[winner] = g
            taken[g] = True
        unassigned = [a for a in unassigned if assignment[a] < 0]
        if not unassigned:
            break
    return Matching(tuple(assignment))


def run_mechanism(kind: MechanismKind, reports: Sequence[RankList],
                  order: TieBreakOrder) -> Matching:
    engine = run_rsd if kind == MechanismKind.RSD else run_boston
    return engine(reports, order)


def batch_mechanism(kind: MechanismKind, pref: np.ndarray,
                    orders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    engine = batch_rsd if kind == MechanismKind.RSD else batch_boston
    return engine(pref, orders)


def all_orders(n: int) -> np.ndarray:
    """Every tie-break order of n agents, as an (n! x n) int64 array in the
    row order of ``itertools.permutations`` (n = 0: the one empty order).
    The orders of k agents are, per first agent f, those of k - 1 agents
    with every id >= f raised by one."""
    orders = np.zeros((1, 0), dtype=np.int64)
    for k in range(1, n + 1):
        first = np.repeat(np.arange(k), len(orders))[:, None]
        rest = np.tile(orders, (k, 1))
        rest += rest >= first
        orders = np.hstack((first, rest))
    return orders


def utility_total(goods: np.ndarray, ranks: np.ndarray, values: Sequence[int],
                  rho: Sequence[int]) -> int:
    """Sum of values[good] + rho[rank - 1] over 1-D arrays of received goods
    and ranks, as an exact Python int."""
    good_counts = np.bincount(goods, minlength=len(values)).tolist()
    rank_counts = np.bincount(ranks - 1, minlength=len(rho)).tolist()
    return (sum(c * v for c, v in zip(good_counts, values))
            + sum(c * r for c, r in zip(rank_counts, rho)))


def batch_rsd(pref: np.ndarray, orders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``run_rsd`` for every row of ``orders`` at once.

    Each row of the (reps x n) ``orders`` is a tie-break order.  ``pref`` is
    either one (n x n) table shared by every row, ``pref[i]`` being agent i's
    rank list (good ids, best first), or a (reps x n x n) stack of such
    tables, one per row.  Returns (reps x n) arrays of the good assigned to
    each agent and its 1-based rank in their list.  A shared table is
    indexed as such: broadcast through the per-row indexing it runs about
    10 % slower here and 50 % slower in ``batch_boston``.
    """
    reps, n = orders.shape
    rows = np.arange(reps)
    cell = rows * n  # row starts in the flat "taken" table
    taken = np.zeros(reps * n, dtype=bool)
    rank_at = np.empty((n, reps), dtype=np.int64)  # by priority position
    for t in range(n):
        lists = pref[orders[:, t]] if pref.ndim == 2 else pref[rows, orders[:, t]]
        # first position in the picker's list whose good is still free
        pos = np.argmin(taken[cell[:, None] + lists], axis=1)
        taken[cell + lists[rows, pos]] = True
        rank_at[t] = pos + 1
    return _by_agent(pref, orders, rank_at)


def batch_boston(pref: np.ndarray, orders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``run_boston`` for every row of ``orders`` at once; arguments and
    results as in ``batch_rsd``.

    Within round k the bidders are visited in priority order, so the first
    one to bid for a free good is the one ``run_boston`` picks as winner.
    """
    reps, n = orders.shape
    cell = np.arange(0, reps * n, n)
    taken = np.zeros(reps * n, dtype=bool)
    by_position = np.ascontiguousarray(orders.T)
    rank_at = np.zeros((n, reps), dtype=np.int64)  # 0 while unassigned
    for k in range(n):
        # cell in the taken table of each bidder's k-th choice, by position
        if pref.ndim == 2:
            bids = pref[:, k][by_position] + cell
        else:
            bids = np.take_along_axis(pref[:, :, k], orders, axis=1).T + cell
        for p in range(n):
            slot = bids[p]
            win = (rank_at[p] == 0) & ~taken[slot]
            taken[slot] |= win
            rank_at[p][win] = k + 1
    return _by_agent(pref, orders, rank_at)


def _by_agent(pref: np.ndarray, orders: np.ndarray,
              rank_at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(goods, ranks) by agent from ranks held by priority position."""
    ranks = np.empty(orders.shape, dtype=np.int64)
    np.put_along_axis(ranks, orders, rank_at.T, axis=1)
    if pref.ndim == 2:
        return pref[np.arange(len(pref)), ranks - 1], ranks
    return np.take_along_axis(pref, ranks[:, :, None] - 1, axis=2)[:, :, 0], ranks


def run_random(kind: MechanismKind, reports: Sequence[RankList],
               market: MarketInstance, seed: int,
               stream: int = 0) -> tuple[Outcome, TieBreakOrder]:
    """Draw a uniform tie-break order from (seed, stream), run the engine,
    and annotate the outcome.  Same inputs always give the same output."""
    order = TieBreakOrder(prng.draw_order(market.n, seed, stream))
    matching = run_mechanism(kind, reports, order)
    return build_outcome(matching, reports, market), order


def exact_expected_utilities(kind: MechanismKind, reports: Sequence[RankList],
                             market: MarketInstance) -> tuple[Fraction, ...]:
    """Per-agent expected utility in cents, averaged over all n! tie-break
    orders with exact rational arithmetic: RSD by the subset DP of
    ``_rsd_expected_utilities``, Boston by one batch-engine call over all n!
    orders."""
    n = market.n
    if n > EXACT_ENUM_MAX_N:
        raise SizeLimitError(
            f"exact enumeration limited to n <= {EXACT_ENUM_MAX_N} (got {n}); "
            "use the simulation module for larger markets")
    _check_inputs(reports, n)
    if kind == MechanismKind.RSD:
        return _rsd_expected_utilities(reports, market)
    return _enumerated_expected_utilities(kind, reports, market)


def _enumerated_expected_utilities(kind: MechanismKind, reports: Sequence[RankList],
                                   market: MarketInstance) -> tuple[Fraction, ...]:
    """``exact_expected_utilities`` by running the engine on all n! orders."""
    n = market.n
    orders = all_orders(n)
    pref = np.array([r.order for r in reports], dtype=np.int64)
    goods, ranks = batch_mechanism(kind, pref, orders)
    return tuple(Fraction(utility_total(goods[:, i], ranks[:, i], market.values.rows[i],
                                        market.rho.values), len(orders))
                 for i in range(n))


def _rsd_expected_utilities(reports: Sequence[RankList],
                            market: MarketInstance) -> tuple[Fraction, ...]:
    """RSD's exact expected utilities by a DP over subsets, for any n.

    Under a uniform order the next picker is a uniform unserved agent, so a
    state is (agents served, goods taken), weighted by its number of order
    prefixes.  A state with k served and weight c leads into c·(n−k−1)! of
    the n! orders through each unserved agent's pick; ``counts[i][r]`` sums
    these for agent i receiving the good at rank r + 1."""
    n = market.n
    lists = [r.order for r in reports]
    counts = [[0] * n for _ in range(n)]
    layer = {(0, 0): 1}
    for k in range(n):
        tail = math.factorial(n - k - 1)
        step: dict[tuple[int, int], int] = {}
        for (served, taken), c in layer.items():
            weight = c * tail
            for i, order in enumerate(lists):
                if served >> i & 1:
                    continue
                r = 0
                while taken >> order[r] & 1:
                    r += 1
                counts[i][r] += weight
                key = (served | 1 << i, taken | 1 << order[r])
                step[key] = step.get(key, 0) + c
        layer = step
    rho = market.rho.values
    return tuple(Fraction(sum(c * (values[g] + p) for c, g, p in zip(row, order, rho)),
                          math.factorial(n))
                 for row, order, values in zip(counts, lists, market.values.rows))


def is_pareto_efficient(matching: Matching, reports: Sequence[RankList]) -> bool:
    """True iff no other matching makes some agent strictly better off (by
    their own rank list) while making none worse.  Enumerates all n! matchings."""
    n = len(reports)
    if n > PARETO_ENUM_MAX_N:
        raise SizeLimitError(
            f"Pareto check enumerates n! matchings; limited to n <= {PARETO_ENUM_MAX_N}")
    ranks = [reports[i].rank_of(matching.good_of(i)) for i in range(n)]
    for alt in itertools.permutations(range(n)):
        better = False
        worse = False
        for i in range(n):
            r = reports[i].rank_of(alt[i])
            if r < ranks[i]:
                better = True
            elif r > ranks[i]:
                worse = True
                break
        if better and not worse:
            return False
    return True
