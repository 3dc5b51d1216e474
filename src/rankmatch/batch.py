"""The RSD and Boston engines of ``mechanisms`` over many tie-break orders
of one shared profile in one numpy call, and the exact enumeration by
distinct label sequences that Boston's ``expect`` and the brute force of
``equilibrium`` share.  All engine work of ``simulation`` and ``equilibrium``
runs here, apart from ``mechanisms``, whose scalar engines need no numpy.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import MarketInstance, RankList
from .mechanisms import MechanismKind


def batch_mechanism(kind: MechanismKind, pref: np.ndarray,
                    orders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    engine = batch_rsd if kind == MechanismKind.RSD else batch_boston
    return engine(pref, orders)


def label_orders(sizes: Sequence[int]) -> np.ndarray:
    """One tie-break order per distinct label sequence of groups of
    ``sizes`` agents, group g holding the next sizes[g] ids: an
    (n!/∏m_g! x n) int64 array, each group's agents in id order.  Each group
    takes every combination of positions in turn, so n! is never walked."""
    orders = np.zeros((1, 0), dtype=np.int64)
    for m in sizes:
        k = orders.shape[1]
        picked = np.array(list(itertools.combinations(range(k + m), m)), dtype=np.intp)
        mine = (picked[:, :, None] == np.arange(k + m)).any(axis=1)
        grown = np.empty((len(picked), k + m, len(orders)), dtype=np.int64)
        grown[mine] = np.tile(np.arange(k, k + m), len(picked))[:, None]
        grown[~mine] = np.tile(orders.T, (len(picked), 1))
        orders = grown.transpose(0, 2, 1).reshape(len(picked) * len(orders), k + m)
    return orders


def label_goods(kind: MechanismKind, lists: Sequence[Sequence[int]],
                sizes: Sequence[int]) -> np.ndarray:
    """(groups x n) int64 counts of the goods that group g's sizes[g] agents,
    all reporting lists[g], receive over every distinct label sequence: one
    engine call over the ``label_orders`` rows on the shared table."""
    pref = np.repeat(np.array(lists, dtype=np.int64), sizes, axis=0)
    goods, _ = batch_mechanism(kind, pref, label_orders(sizes))
    n = len(pref)
    cells = np.repeat(np.arange(len(sizes)) * n, sizes) + goods
    return np.bincount(cells.ravel(), minlength=len(sizes) * n).reshape(len(sizes), n)


def batch_rsd(pref: np.ndarray, orders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``run_rsd`` for every row of ``orders`` at once.

    Each row of the (reps x n) ``orders`` is a tie-break order, and
    ``pref[i]`` of the (n x n) table is agent i's rank list (good ids, best
    first).  Returns (reps x n) arrays of the good assigned to each agent
    and its 1-based rank in their list.
    """
    reps, n = orders.shape
    rows = np.arange(reps)
    cell = rows * n  # row starts in the flat "taken" table
    taken = np.zeros(reps * n, dtype=bool)
    rank_at = np.empty((n, reps), dtype=np.int64)  # by priority position
    for t in range(n):
        # t goods are taken, so one of the picker's first t + 1 is free
        lists = pref[orders[:, t], :t + 1]
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
        bids = pref[:, k][by_position] + cell
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
    return pref[np.arange(len(pref)), ranks - 1], ranks


def enumerated_expected_utilities(kind: MechanismKind, reports: Sequence[RankList],
                                  market: MarketInstance) -> tuple[Fraction, ...]:
    """``mechanisms.exact_expected_utilities`` by one engine call over the
    reports' distinct label sequences: Boston's path there, and the tests'
    reference for RSD's DP.  Agent i of a group of m equal lists holds each
    group position in 1/m of the ∏m_g! orders a sequence stands for, so its
    EU is ∏m_g!/(m·n!) times the group's good counts priced with i's values."""
    sizes = Counter(r.order for r in reports)  # agents per distinct list
    counts = dict(zip(sizes, label_goods(kind, list(sizes), list(sizes.values())).tolist()))
    scale = Fraction(math.prod(map(math.factorial, sizes.values())), math.factorial(market.n))
    return tuple(scale / sizes[r.order] * sum(counts[r.order][g] * (values[g] + p)
                                              for g, p in zip(r.order, market.rho.values))
                 for r, values in zip(reports, market.values.rows))
