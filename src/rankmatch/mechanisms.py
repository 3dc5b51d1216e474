"""Deterministic RSD and Boston engines, a randomized wrapper, and exact
expectation / efficiency oracles: RSD's expected utilities by a DP over
(agents served, goods taken) states, Boston's by ``batch``'s enumeration
of distinct label sequences, and Pareto efficiency by a cycle test.

A single ``TieBreakOrder`` drives both mechanisms: position 0 is the agent
who picks first in RSD and holds tie-break number 1 in Boston.  The scalar
``run_rsd`` / ``run_boston`` are the readable reference and serve single
orders; ``batch`` holds their numpy forms over many orders at once.  This
module imports no numpy, so the subcommands that run one order (and
``expect`` for RSD) start without it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

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


def run_random(kind: MechanismKind, reports: Sequence[RankList],
               market: MarketInstance, seed: int,
               stream: int = 0) -> tuple[Outcome, TieBreakOrder]:
    """Draw a uniform tie-break order from (seed, stream), run the engine,
    and annotate the outcome.  Same inputs always give the same output."""
    from . import prng

    order = TieBreakOrder(prng.draw_order(market.n, seed, stream))
    matching = run_mechanism(kind, reports, order)
    return build_outcome(matching, reports, market), order


def exact_expected_utilities(kind: MechanismKind, reports: Sequence[RankList],
                             market: MarketInstance) -> tuple[Fraction, ...]:
    """Per-agent expected utility in cents, averaged over all n! tie-break
    orders with exact rational arithmetic: RSD by the subset DP of
    ``_rsd_expected_utilities``, Boston by one batch-engine call over the
    reports' distinct label sequences (``batch.enumerated_expected_utilities``)."""
    n = market.n
    if n > EXACT_ENUM_MAX_N:
        raise SizeLimitError(
            f"exact enumeration limited to n <= {EXACT_ENUM_MAX_N} (got {n}); "
            "use the simulation module for larger markets")
    _check_inputs(reports, n)
    if kind == MechanismKind.RSD:
        return _rsd_expected_utilities(reports, market)
    from .batch import enumerated_expected_utilities

    return enumerated_expected_utilities(kind, reports, market)


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
    their own rank list) while making none worse.  By Abdulkadiroğlu &
    Sönmez (1998), iff the digraph in which i points at j when i ranks j's
    good above its own has no cycle (its agents could trade along it):
    agents who point at no remaining agent are peeled off until none remain."""
    owner = {g: i for i, g in enumerate(matching.assignment)}
    better = [{owner[g] for g in r.order[:r.rank_of(matching.good_of(i)) - 1]}
              for i, r in enumerate(reports)]
    left = set(range(len(reports)))
    while left:
        stuck = {i for i in left if better[i] & left}
        if stuck == left:
            return False
        left = stuck
    return True
