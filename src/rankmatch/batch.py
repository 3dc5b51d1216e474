"""The RSD and Boston engines of ``mechanisms`` over many tie-break orders
in one numpy call, under one profile shared by every row or a profile per
row, and Boston's exact expected utilities by one such call over all n!
orders.  ``simulation`` and ``equilibrium`` run their engine work here; kept
apart from ``mechanisms`` so that the scalar engines import without numpy.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import MarketInstance, RankList
from .mechanisms import MechanismKind


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


def enumerated_expected_utilities(kind: MechanismKind, reports: Sequence[RankList],
                                  market: MarketInstance) -> tuple[Fraction, ...]:
    """``mechanisms.exact_expected_utilities`` by running the engine on all
    n! orders: Boston's path there, and the tests' reference for RSD's DP."""
    n = market.n
    orders = all_orders(n)
    pref = np.array([r.order for r in reports], dtype=np.int64)
    goods, ranks = batch_mechanism(kind, pref, orders)
    return tuple(Fraction(utility_total(goods[:, i], ranks[:, i], market.values.rows[i],
                                        market.rho.values), len(orders))
                 for i in range(n))
