"""Symmetric-environment equilibrium analysis.

The environment: every agent shares the same fundamental values, with two
goods (x1, x2) strictly above a common tail value.  Agents choose which of
the two top goods to rank first; the remaining goods are ranked uniformly
at random.  In RSD the other top good is ranked second; in Boston it is
ranked last (except in the all-rank-x1-first corner, where everyone ranks
x2 second and the two mechanisms coincide).

After the top goods resolve, the leftover goods are modeled as a uniform
lottery over the remaining list slots.  This slot-lottery model is written
once, here: ``_lottery_window`` gives the window of list ranks (3..n in RSD
and at the all-x1 corner, 2..n-1 in Boston) and ``_lottery`` its value,
which the closed forms, the brute force and the welfare all price, and
``simulation`` draws the structured profiles' slots from the same window.
``delta`` / ``delta_prime`` are the lottery's value in Boston / RSD.
``SymmetricInstance.of`` is the one check that a market is symmetric.

Each closed form is one integer numerator over a known integer denominator,
one ``Fraction`` per value; the corner and n1 tests compare ints.  The solver
reduces the two no-deviation conditions to an interval of length exactly 1;
``brute_force_equilibria`` re-derives them from first principles so the
interval algebra is independently checked: it runs the real batch engine on
the structured lists for the top-goods phase, and scores the leftover goods
with the same slot lottery.  Agents with the same list are interchangeable
in both engines, so the C(n, n1) label sequences of each n1 (which list sits
at each priority position) weigh exactly as its n! orders; the engine runs
them, 2**n rows over all n1, through ``batch.label_goods``, the enumeration
``expect`` also uses.  Their outcome counts depend on no instance value,
so the engine runs n + 1 times per (mechanism, n) in a process.  Each
instance prices them as exact ints, every group EU times w·n! (w = n − 2
slots in the lottery window), and compares those.

``check_truthtelling_equilibrium`` compares the truthful report with the
few deviations that can beat it, in closed form with no engine at any n;
the tests check it against a scalar-engine table over all n! lists.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (DataFormatError, MarketInstance, RhoSchedule, SizeLimitError, whole_cents,
                   whole_number)
from .mechanisms import MechanismKind

BRUTE_FORCE_MAX_N = 12  # a cold _label_tally runs the engine over 2**n label rows


@dataclass(frozen=True)
class SymmetricInstance:
    """Common-value market: v1 > v2 > vbar, all amounts in cents."""

    n: int
    v1: int
    v2: int
    vbar: int
    rho: RhoSchedule

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"symmetric analysis needs n >= 3, got {self.n}")
        if not self.v1 > self.v2 > self.vbar >= 0:
            raise ValueError(
                f"need v1 > v2 > vbar >= 0, got ({self.v1}, {self.v2}, {self.vbar})")
        if len(self.rho) != self.n:
            raise ValueError("rho schedule length must equal n")

    def good_value(self, good: int) -> int:
        return self.v1 if good == 0 else self.v2 if good == 1 else self.vbar

    @staticmethod
    def of(market) -> "SymmetricInstance":
        """``market`` itself when symmetric, else the symmetric form of a
        MarketInstance: n >= 3 identical value rows (v1, v2, vbar, ..., vbar)."""
        if isinstance(market, SymmetricInstance):
            return market
        row, n = market.values.rows[0], market.n
        if any(r != row for r in market.values.rows):
            raise ValueError("structured profiles need identical value rows")
        if n < 3 or any(v != row[2] for v in row[2:]):
            raise ValueError("structured profiles need goods (x1, x2, common tail)")
        return SymmetricInstance(n, row[0], row[1], row[2], market.rho)

    def market(self) -> MarketInstance:
        row = tuple(self.good_value(g) for g in range(self.n))
        return MarketInstance.from_cents([row] * self.n, self.rho.values)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "v1": self.v1, "v2": self.v2, "vbar": self.vbar,
                "rho": list(self.rho.values)}

    @staticmethod
    def from_json_dict(doc: dict) -> "SymmetricInstance":
        if not isinstance(doc, dict):
            raise DataFormatError(f"symmetric instance JSON must be an object, got {doc!r}")
        try:
            n = whole_number(doc["n"], "n")
            v1, v2, vbar = (whole_cents(doc[k], f"{k} cents") for k in ("v1", "v2", "vbar"))
            rho = doc["rho"]
        except KeyError as exc:
            raise DataFormatError(f"symmetric instance JSON missing field {exc}") from exc
        except ValueError as exc:
            raise DataFormatError(f"symmetric instance JSON: {exc}") from None
        if not isinstance(rho, list):
            raise DataFormatError(f"symmetric instance JSON 'rho' must be a list, got {rho!r}")
        return SymmetricInstance(n, v1, v2, vbar, RhoSchedule(tuple(rho)))


@dataclass(frozen=True)
class SymmetricParams:
    """Derived quantities, cents (alpha dimensionless; None when rho(1)==rho(2))."""

    delta: Fraction
    delta_prime: Fraction
    rho_bar: Fraction
    alpha: Fraction | None


@dataclass(frozen=True)
class EquilibriumSolution:
    mechanism: MechanismKind
    n1_candidates: tuple[int, ...]
    range_lo: Fraction | None
    range_hi: Fraction | None
    corner_all_top: bool


@functools.cache  # the closed forms ask for it on every call
def _lottery_window(kind: MechanismKind, n: int) -> range:
    """The list ranks of the slot lottery.  A loser of the top goods receives
    a leftover good, worth vbar, at a uniform slot of this window of
    w = n − 2 ranks: 3..n in RSD, where the top goods go in the first two
    picks, and 2..n − 1 in Boston, where the other top good is ranked last.
    At the all-x1 corner both mechanisms play RSD's window."""
    return range(3, n + 1) if kind == MechanismKind.RSD else range(2, n)


def _lottery(kind: MechanismKind, inst: SymmetricInstance) -> int:
    """w times the slot lottery's value: vbar plus the window's mean rho."""
    window = _lottery_window(kind, inst.n)
    return len(window) * inst.vbar + sum(inst.rho.values[window.start - 1:window.stop - 1])


def _corner_total(inst: SymmetricInstance) -> int:
    """n times the corner EU: the n agents share every good and every rank once."""
    return inst.v1 + inst.v2 + (inst.n - 2) * inst.vbar + sum(inst.rho.values)


def symmetric_params(inst: SymmetricInstance) -> SymmetricParams:
    w, gap_rho = inst.n - 2, inst.rho.values[0] - inst.rho.values[1]
    rsd = _lottery(MechanismKind.RSD, inst)
    alpha = (Fraction(inst.n * gap_rho + (inst.n - 1) * (inst.v1 - inst.v2), 2 * gap_rho)
             if gap_rho else None)
    return SymmetricParams(Fraction(_lottery(MechanismKind.BOSTON, inst), w),
                           Fraction(rsd, w), Fraction(rsd - w * inst.vbar, w), alpha)


def _group_eus(kind: MechanismKind, inst: SymmetricInstance,
               n1: int) -> tuple[tuple[int, int] | None, tuple[int, int] | None]:
    """(numerator, denominator) of the EU of an x1-first and of an x2-first
    agent when n1 agents in total rank x1 first, as exact ints; a side is
    None when no agent plays it.  Valid for the formal extension 0 <= n1 <= n
    used by the deviation comparisons.

    Boston, over group·w: the top good with chance 1/group, else the
    lottery.  RSD, over n·(n − 1): its top good when it picks first (chance
    1/n); when it picks second (1/n), what the first picker left, one of the
    n − 1 others, of whom n1 − 1 (top 1) or n1 (top 2) rank x1 first; else
    the lottery."""
    n, v1, v2, (rho1, rho2) = inst.n, inst.v1, inst.v2, inst.rho.values[:2]
    lottery = _lottery(kind, inst)
    if kind == MechanismKind.BOSTON:
        w = n - 2
        eu1 = w * (v1 + rho1) + (n1 - 1) * lottery, n1 * w
        eu2 = w * (v2 + rho1) + (n - n1 - 1) * lottery, (n - n1) * w
    else:
        pairs = n * (n - 1)
        eu1 = ((n - 1) * (v1 + rho1 + lottery) + (n1 - 1) * (v2 + rho2)
               + (n - n1) * (v1 + rho1), pairs)
        eu2 = ((n - 1) * (v2 + rho1 + lottery) + n1 * (v2 + rho1)
               + (n - n1 - 1) * (v1 + rho2), pairs)
    return eu1 if n1 else None, eu2 if n1 < n else None


def boston_group_eu(inst: SymmetricInstance, n1: int) -> tuple[Fraction, Fraction]:
    """(EU of an x1-first agent, EU of an x2-first agent) at interior n1."""
    if not 1 <= n1 <= inst.n - 1:
        raise ValueError(f"n1 must be in 1..{inst.n - 1}, got {n1}")
    return tuple(Fraction(*eu) for eu in _group_eus(MechanismKind.BOSTON, inst, n1))


def sd_group_eu(inst: SymmetricInstance, n1: int) -> tuple[Fraction | None, Fraction | None]:
    """The two RSD group EUs; a side is None when no agent plays it at n1."""
    if not 0 <= n1 <= inst.n:
        raise ValueError(f"n1 must be in 0..{inst.n}, got {n1}")
    return tuple(None if eu is None else Fraction(*eu)
                 for eu in _group_eus(MechanismKind.RSD, inst, n1))


def corner_holds(kind: MechanismKind, inst: SymmetricInstance) -> bool:
    """All-rank-x1-first (with x2 second) is an equilibrium.

    In Boston a deviator ranking x2 first wins it outright, so the corner
    payoff must beat v2 + rho(1).  In RSD the deviator only gets x2 when
    ordered first or second, a strictly weaker hurdle, so the Boston corner
    implies the RSD corner but not conversely: picking first and second,
    a corner agent gets v1 + rho(1) and v2 + rho(2), the deviator
    v2 + rho(1) twice, and the lottery is the same."""
    rho1, rho2 = inst.rho.values[:2]
    if kind == MechanismKind.BOSTON:
        return _corner_total(inst) >= inst.n * (inst.v2 + rho1)
    return inst.v1 + rho2 >= inst.v2 + rho1


def corner_eu(inst: SymmetricInstance) -> Fraction:
    """EU of every agent at the all-rank-x1-first corner (both mechanisms)."""
    return Fraction(_corner_total(inst), inst.n)


def solve_equilibrium(kind: MechanismKind, inst: SymmetricInstance) -> EquilibriumSolution:
    """Closed-form equilibrium n1 set: the length-1 interval intersected with
    the integers in [1, n-1], with the corner n1 = n tested separately."""
    n, (rho1, rho2) = inst.n, inst.rho.values[:2]
    if kind == MechanismKind.BOSTON:
        # lo = (n·a − b)/(a + b), with a = w·(v1 + rho(1) − delta) and
        # b = w·(v2 + rho(1) − delta) both > 0
        lottery = _lottery(kind, inst)
        a, b = (n - 2) * (inst.v1 + rho1) - lottery, (n - 2) * (inst.v2 + rho1) - lottery
        lo, den = n * a - b, a + b
    elif rho1 > rho2:
        # lo = alpha − 1/2, over 2·(rho(1) − rho(2))
        lo, den = (n - 1) * (inst.v1 - inst.v2 + rho1 - rho2), 2 * (rho1 - rho2)
    else:
        # with rho(1) == rho(2) alpha is undefined, and the RSD corner
        # always holds (v1 > v2), so the missing interval never matters
        return EquilibriumSolution(kind, (n,), None, None, True)

    hi, corner = lo + den, corner_holds(kind, inst)  # the interval has length 1
    # an empty set is possible (and matches brute force): the interval
    # can sit above n-1 while the corner deviation is still profitable,
    # leaving no stable profile in the structured strategy class
    candidates = (n,) if corner else tuple(k for k in range(1, n) if lo <= k * den <= hi)
    return EquilibriumSolution(kind, candidates, Fraction(lo, den), Fraction(hi, den), corner)


# ---------------------------------------------------------------------------
# brute-force oracle: enumeration of priority-label sequences
# ---------------------------------------------------------------------------

@functools.cache
def _label_tally(kind: MechanismKind, n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Outcome counts [n1][side][outcome] over all 2**n label sequences,
    side 1 being the x2-first list, from one ``batch.label_goods`` call per
    n1.  A side's list fixes each good's rank, so a good's outcome is
    2·good + rank − 1 for a top good at rank <= 2, else 4 (the lottery)."""
    from .batch import label_goods

    tail = tuple(range(2, n))
    if kind == MechanismKind.RSD:
        lists = ((0, 1) + tail, (1, 0) + tail)
    else:
        lists = ((0,) + tail + (1,), (1,) + tail + (0,))
    tally = []
    for n1 in range(n + 1):
        sides = [[0] * 5 for _ in lists]
        for side, lst, row in zip(sides, lists, label_goods(kind, lists, (n1, n - n1)).tolist()):
            for rank, good in enumerate(lst, 1):
                side[2 * good + rank - 1 if good < 2 and rank <= 2 else 4] += row[good]
        tally.append(tuple(map(tuple, sides)))
    return tuple(tally)


def _enum_group_eus(kind: MechanismKind,
                    inst: SymmetricInstance) -> list[tuple[int | None, int | None]]:
    """Per n1 in 0..n, the EUs of an x1-first agent and of an x2-first
    agent times w·n!, as exact ints, None where nobody plays that strategy;
    w = n − 2 is the length of ``_lottery_window``.

    The counts come from ``_label_tally``, whose n + 1 engine calls run once
    per (kind, n) in a process.  A sequence with n1 x1-first positions stands
    for n1!·(n−n1)! of the n! orders of a profile with n1 x1-first agents,
    so the x1-first EU is that group's total over the C(n, n1) such rows
    divided by players = n1·C(n, n1), and likewise for x2-first; n!/players
    is the whole number (n1−1)!·(n−n1)! or n1!·(n−n1−1)!.  An agent who
    receives a top good at rank <= 2 scores value + rho(rank), and everyone
    else the slot lottery, ``_lottery``."""
    n = inst.n
    w, lottery = n - 2, _lottery(kind, inst)
    payoff = [w * (inst.good_value(g) + inst.rho.at(r)) for g in (0, 1) for r in (1, 2)]
    fact = math.factorial
    eus = []
    for n1, sides in enumerate(_label_tally(kind, n)):
        scales = (fact(n1 - 1) * fact(n - n1) if n1 else None,
                  fact(n1) * fact(n - n1 - 1) if n1 < n else None)
        eus.append(tuple(None if scale is None else
                         (sum(c * p for c, p in zip(won, payoff)) + lost * lottery) * scale
                         for (*won, lost), scale in zip(sides, scales)))
    return eus


def brute_force_equilibria(kind: MechanismKind, inst: SymmetricInstance) -> set[int]:
    """Equilibrium n1 set derived directly from the no-deviation inequalities,
    with the top-goods phase enumerated over all priority-label sequences
    (equivalently, all tie-break orders).  Every EU is compared as an exact
    int, scaled by the same factor."""
    n = inst.n
    if n > BRUTE_FORCE_MAX_N:
        raise SizeLimitError(f"brute force limited to n <= {BRUTE_FORCE_MAX_N}")
    if kind == MechanismKind.BOSTON and corner_holds(kind, inst):
        return {n}
    eus = _enum_group_eus(kind, inst)
    u = lambda top, k: eus[k][top - 1]
    if kind == MechanismKind.RSD and u(1, n) >= u(2, n - 1):
        return {n}
    eq: set[int] = set()
    for n1 in range(1, n):
        d_x1_to_x2 = u(1, n1) - u(2, n1 - 1)
        d_x2_to_x1 = u(2, n1) - u(1, n1 + 1)
        if d_x1_to_x2 >= 0 and d_x2_to_x1 >= 0:
            eq.add(n1)
    return eq


# ---------------------------------------------------------------------------
# truth-telling equilibrium check (exact, closed form)
# ---------------------------------------------------------------------------

def _truthtelling_totals(kind: MechanismKind, inst: SymmetricInstance) -> tuple[int, ...]:
    """n times the EU of the truthful report, then of each deviation that can
    beat it, as exact ints.  The n − 1 others report the same truthful list
    (x1, x2, tail), which gives priority position p good p at rank p + 1.
    Under RSD, a deviator at p finds the first p goods of that list taken.
    Under Boston, everyone else bids x1 in round 1, so a deviator who bids x2
    first always gets it; they bid good k − 1 in round k, so the last tail
    good is free in rounds 2 and 3.  With v1 > v2 > vbar and rho
    non-increasing, any list does no better at each p than one of these."""
    n, v1, v2, vbar = inst.n, inst.v1, inst.v2, inst.vbar
    rho1, rho2, rho3 = inst.rho.values[:3]
    totals = (_corner_total(inst),  # truthful: everyone ranks x1 first, the corner
              v1 + (n - 1) * (vbar + rho2) + rho1,  # x1 (p = 0), then the last tail good
              v1 + v2 + (n - 2) * (vbar + rho3) + rho1 + rho2)  # x1, x2 (p = 1), last tail
    if kind == MechanismKind.RSD:  # the last tail good; x2 (p <= 1), then the last tail good
        return totals + (n * (vbar + rho1), 2 * (v2 + rho1) + (n - 2) * (vbar + rho2))
    return totals + (n * (v2 + rho1),)  # x2


def check_truthtelling_equilibrium(kind: MechanismKind, inst: SymmetricInstance) -> bool:
    """True iff no unilateral deviation from all-truthful raises exact EU."""
    totals = _truthtelling_totals(kind, inst)
    return max(totals) == totals[0]


# ---------------------------------------------------------------------------
# equilibrium welfare
# ---------------------------------------------------------------------------

def equilibrium_welfare(kind: MechanismKind, inst: SymmetricInstance,
                        n1: int) -> tuple[Fraction, Fraction]:
    """(rho component, total) of expected equilibrium welfare at n1 (cents):
    n1·u1 + (n − n1)·u2 over the group EUs' integer numerators, and at
    n1 = n, where both mechanisms play the corner, n times the corner EU.

    Total fundamental value is constant across matchings in this
    environment, so the comparison between mechanisms lives entirely in the
    rho component."""
    n = inst.n
    if not 1 <= n1 <= n:
        raise ValueError(f"n1 must be in 1..{n}, got {n1}")
    if n1 == n:
        total, den = _corner_total(inst), 1
    else:
        (num1, den1), (num2, den2) = _group_eus(kind, inst, n1)
        total, den = n1 * num1 * den2 + (n - n1) * num2 * den1, den1 * den2
    values = (inst.v1 + inst.v2 + (n - 2) * inst.vbar) * den
    return Fraction(total - values, den), Fraction(total, den)
