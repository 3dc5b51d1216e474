"""Shared domain types for matching markets with rankings-dependent utility.

Conventions used across the package:

* Money is integer cents everywhere.  Expected values that require division
  are computed as exact ``fractions.Fraction`` of cents.
* Ranks are 1-based: ``rho(1)`` is the utility bonus for receiving a good the
  agent listed first.  Agent ids and good ids are 0-based.
* All types here are immutable value objects; they can be shared freely
  across threads.
"""
from __future__ import annotations

import csv
import operator
import re
from dataclasses import dataclass
from decimal import Context, Decimal, InvalidOperation, Overflow
from typing import Iterable, Sequence


class SizeLimitError(ValueError):
    """Exact enumeration was requested for a market too large to enumerate."""


class DataFormatError(ValueError):
    """An input file violates its documented schema."""


def csv_rows(path, columns: Sequence[str]):
    """Open a CSV file, check that its header is ``columns``, and yield
    ``(lineno, row)`` for each non-blank row after it; the one reader of the
    package's CSV inputs.  Rows are numbered from 2, blank ones included.  A
    row that is not ``len(columns)`` cells wide, text that does not decode
    and a line ``csv`` rejects raise ``DataFormatError``."""
    width = len(columns)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        lineno = 0  # rows read so far, the header included
        try:
            header = next(reader, None)
            if header is None:
                raise DataFormatError(f"{path}: empty file")
            if tuple(header) != tuple(columns):
                raise DataFormatError(f"{path}: bad header; expected {','.join(columns)}")
            lineno = 1
            for lineno, row in enumerate(reader, start=2):
                if len(row) == width:
                    yield lineno, row
                elif row:
                    raise DataFormatError(
                        f"{path}:{lineno}: expected {width} cells, got {len(row)}")
        except csv.Error as exc:
            raise DataFormatError(f"{path}:{lineno + 1}: {exc}") from exc
        except UnicodeDecodeError as exc:  # text decodes in blocks, so no row
            raise DataFormatError(f"{path}: {exc}") from exc


# Plain ``-?digits.dd`` strings, short enough that Decimal's default 28-digit
# context holds them exactly, so both paths of ``cents`` agree.
_PLAIN_MONEY = re.compile(r"-?[0-9]{1,26}\.[0-9][0-9]")
# Amounts of 10**CENTS_DIGITS cents or more are refused: below that every
# float derived from money (means, standard deviations, regression inputs)
# stays finite, and no exponent such as "1e999999" becomes a huge integer.
CENTS_DIGITS = 100
_CENTS_LIMIT = 10 ** CENTS_DIGITS


def cents(amount) -> int:
    """Parse a dollar amount (``"16.56"``, ``16.56``, ``Decimal``) into cents."""
    if type(amount) is str and _PLAIN_MONEY.fullmatch(amount):
        return int(amount.replace(".", ""))
    try:
        d = Decimal(str(amount))
    except InvalidOperation as exc:
        raise ValueError(f"not a money amount: {amount!r}") from exc
    if not d.is_finite():
        raise ValueError(f"not a money amount: {amount!r}")
    # scaling rounds to the context's precision, so give it every digit
    try:
        d = d.scaleb(2, Context(prec=len(d.as_tuple().digits), Emax=CENTS_DIGITS - 1))
    except Overflow:
        raise ValueError(f"not a money amount: {amount!r} "
                         f"(10**{CENTS_DIGITS} cents or more)") from None
    if d != d.to_integral_value():
        raise ValueError(f"sub-cent money amount: {amount!r}")
    return int(d)


def whole_number(x, what: str) -> int:
    """An int, or a float with no fractional part (JSON numbers such as
    ``2824.0``), as an int.  Anything else, ``inf`` and ``nan`` included,
    raises ``ValueError`` naming ``what`` and ``x``."""
    if isinstance(x, float):
        if x.is_integer():
            return int(x)
    elif not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValueError(f"{what} must be a whole number, got {x!r}")


def whole_cents(x, what: str) -> int:
    """``whole_number`` for an amount in cents, which must also be below
    10**CENTS_DIGITS in size, as ``cents`` requires."""
    c = whole_number(x, what)
    if abs(c) >= _CENTS_LIMIT:
        raise ValueError(f"{what} must be below 10**{CENTS_DIGITS}, got {x!r}")
    return c


def dollars(amount_cents) -> float:
    """Cents to a float dollar amount.  For display and JSON output only."""
    return float(amount_cents) / 100.0


def _check_permutation(seq: Sequence[int], what: str) -> None:
    n = len(seq)
    if sorted(seq) != list(range(n)):
        raise ValueError(f"{what} must be a permutation of 0..{n - 1}, got {seq!r}")


@dataclass(frozen=True)
class Good:
    """One indivisible object, identified by a 0-based id."""

    id: int
    label: str

    def __post_init__(self):
        if self.id < 0:
            raise ValueError(f"good id must be non-negative, got {self.id}")


@dataclass(frozen=True)
class RankList:
    """An agent's submitted ordinal report: good ids, most-preferred first."""

    order: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(self.order))
        _check_permutation(self.order, "rank list")

    def __len__(self) -> int:
        return len(self.order)

    def rank_of(self, good_id: int) -> int:
        """1-based position of ``good_id`` in this list."""
        return self.order.index(good_id) + 1


@dataclass(frozen=True)
class RhoSchedule:
    """Rankings-dependent utility per received rank, in cents, non-increasing."""

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values",
                           tuple(whole_cents(v, "rho cents") for v in self.values))
        if not self.values:
            raise ValueError("rho schedule must be non-empty")
        for a, b in zip(self.values, self.values[1:]):
            if b > a:
                raise ValueError(f"rho schedule must be non-increasing, got {self.values}")

    def __len__(self) -> int:
        return len(self.values)

    def at(self, rank: int) -> int:
        """rho(rank) for a 1-based rank."""
        if not 1 <= rank <= len(self.values):
            raise ValueError(f"rank {rank} out of range 1..{len(self.values)}")
        return self.values[rank - 1]


@dataclass(frozen=True)
class ValueMatrix:
    """Fundamental values in cents: ``rows[agent][good]``, n x n, non-negative."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "rows",
                           tuple(tuple(whole_cents(v, "value cents") for v in r)
                                 for r in self.rows))
        n = len(self.rows)
        for r in self.rows:
            if len(r) != n:
                raise ValueError("value matrix must be square")
            if any(v < 0 for v in r):
                raise ValueError("fundamental values must be non-negative")

    def __len__(self) -> int:
        return len(self.rows)

    def value(self, agent: int, good: int) -> int:
        return self.rows[agent][good]


@dataclass(frozen=True)
class MarketInstance:
    """Agents, goods, fundamental values, and the rho schedule of one market."""

    n: int
    goods: tuple[Good, ...]
    values: ValueMatrix
    rho: RhoSchedule

    def __post_init__(self):
        object.__setattr__(self, "goods", tuple(self.goods))
        if self.n < 1:
            raise ValueError(f"market size must be >= 1, got {self.n}")
        if [g.id for g in self.goods] != list(range(self.n)):
            raise ValueError("good ids must be exactly 0..n-1, in order")
        if len(self.values) != self.n or len(self.rho) != self.n:
            raise ValueError("values and rho dimensions must match n")

    @staticmethod
    def from_cents(values: Sequence[Sequence[int]], rho: Sequence[int],
                   labels: Sequence[str] | None = None) -> "MarketInstance":
        n = len(values)
        if labels is None:
            labels = [f"g{j}" for j in range(n)]
        if len(labels) != n:
            raise ValueError(f"need {n} goods labels, got {len(labels)}")
        goods = tuple(Good(j, str(labels[j])) for j in range(n))
        return MarketInstance(n, goods, ValueMatrix(tuple(tuple(r) for r in values)),
                              RhoSchedule(tuple(rho)))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "goods": [g.label for g in self.goods],
            "values": [list(r) for r in self.values.rows],
            "rho": list(self.rho.values),
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "MarketInstance":
        if not isinstance(doc, dict):
            raise DataFormatError(f"market JSON must be an object, got {doc!r}")
        goods = doc.get("goods")
        if goods is not None and not (isinstance(goods, list)
                                      and all(isinstance(g, str) for g in goods)):
            raise DataFormatError(f"market JSON 'goods' must be a list of strings, got {goods!r}")
        try:
            values, rho = doc["values"], doc["rho"]
        except KeyError as exc:
            raise DataFormatError(f"market JSON missing field {exc}") from exc
        if not (isinstance(values, list) and all(isinstance(r, list) for r in values)):
            raise DataFormatError(f"market JSON 'values' must be a list of lists, got {values!r}")
        if not isinstance(rho, list):
            raise DataFormatError(f"market JSON 'rho' must be a list, got {rho!r}")
        return MarketInstance.from_cents(values, rho, goods)


@dataclass(frozen=True)
class Matching:
    """A bijection agent id -> good id, stored as a tuple indexed by agent."""

    assignment: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(self.assignment))
        _check_permutation(self.assignment, "matching")

    def good_of(self, agent: int) -> int:
        return self.assignment[agent]


@dataclass(frozen=True)
class Outcome:
    """A matching annotated with received ranks and realized utilities (cents)."""

    matching: Matching
    received_rank: tuple[int, ...]
    utility: tuple[int, ...]
    welfare_total: int
    rho_total: int


def utility(v_cents: int, rank: int, rho: RhoSchedule) -> int:
    """Realized utility of receiving a good: fundamental value + rho(rank)."""
    return v_cents + rho.at(rank)


def received_rank(matching: Matching, reports: Sequence[RankList], agent: int) -> int:
    """1-based position of the agent's assigned good in their own report."""
    return reports[agent].rank_of(matching.good_of(agent))


def build_outcome(matching: Matching, reports: Sequence[RankList],
                  market: MarketInstance) -> Outcome:
    """Annotate a matching with ranks, utilities and welfare for a market."""
    ranks = tuple(received_rank(matching, reports, i) for i in range(market.n))
    utils = tuple(utility(market.values.value(i, matching.good_of(i)), ranks[i], market.rho)
                  for i in range(market.n))
    rho_total = sum(market.rho.at(r) for r in ranks)
    return Outcome(matching, ranks, utils, sum(utils), rho_total)


def reports_from_json_dict(doc: dict) -> list[RankList]:
    """Parse the ``{"reports": [[good ids]]}`` wire format."""
    if not isinstance(doc, dict):
        raise DataFormatError(f"reports JSON must be an object, got {doc!r}")
    try:
        raw = doc["reports"]
    except KeyError as exc:
        raise DataFormatError("reports JSON missing 'reports' field") from exc
    if not (isinstance(raw, list) and all(isinstance(r, list) for r in raw)):
        raise DataFormatError(f"reports JSON 'reports' must be a list of lists, got {raw!r}")
    reports = [RankList(tuple(whole_number(g, "good id") for g in row)) for row in raw]
    if len({len(r) for r in reports}) > 1:
        raise DataFormatError("all reports must rank the same number of goods")
    if reports and len(reports[0]) != len(reports):
        raise DataFormatError(f"{len(reports)} reports must each rank {len(reports)} goods, "
                              f"got {len(reports[0])}")
    return reports


def reports_to_json_dict(reports: Iterable[RankList]) -> dict:
    return {"reports": [list(r.order) for r in reports]}
