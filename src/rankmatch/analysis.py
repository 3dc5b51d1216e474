"""Experiment-session ingestion and outcome measures.

A session CSV holds one row per subject: Phase I elicited values for the
five goods, the submitted rank list, the good received, the Phase II
elicited value of that good, and covariates.  Net Value is the Phase II
value minus the Phase I value of the same good; its per-rank means are the
main treatment outcome.

Every measure works on a ``SessionTable``, the session as columns; it also
takes a sequence of ``SubjectRecord`` and builds the table first.

A session CSV has two readers.  ``load_session`` reads any file record by
record and names the first malformed row in file order.
``load_session_table`` parses a file in the plain form ``save_session``
writes straight into columns, a block of lines at a time, and leaves every
other file to ``load_session``.
"""
from __future__ import annotations

import csv
import math
import operator
import warnings
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

import numpy as np

from . import prng
from .core import CENTS_DIGITS, DataFormatError, RankList, cents, csv_rows, whole_number
from .elicitation import LOTTERY_ROWS
from .mechanisms import MechanismKind

GOOD_NAMES = ("backpack", "bottle", "notebook", "mug", "pens")
N_GOODS = len(GOOD_NAMES)
GROUP_SIZE = 5

CSV_COLUMNS = (
    "subject_id", "treatment", "group_id",
    "v_backpack", "v_bottle", "v_notebook", "v_mug", "v_pens",
    "rank1", "rank2", "rank3", "rank4", "rank5",
    "good_received", "phase2_value", "phase1_order",
    "risk_row", "loss_row", "crt", "female", "practice",
)
_MONEY_COLUMNS = (3, 4, 5, 6, 7, 14)
_INT_COLUMNS = (8, 9, 10, 11, 12, 13, 15, 16, 17, 18, 19, 20)
# the bound ``cents`` puts on money, here on the ``practice`` count, so the
# regression's float design holds it
PRACTICE_LIMIT = 10**CENTS_DIGITS
# The range checks of a row's whole-number fields, in the order
# ``SubjectRecord`` makes them, as (field, lowest, highest, message): a value
# outside lowest..highest, or not whole, fails with the message formatted
# with the value.  ``SessionTable._rows_valid`` walks them over columns.
_RANGE_RULES = (
    ("phase1_order", 1, 20, "phase1_order must be in 1..20, got {}"),
    ("crt", 0, 3, "crt must be in 0..3, got {}"),
    ("female", 0, 1, "female must be 0/1, got {}"),
    ("risk_row", 1, LOTTERY_ROWS, f"risk_row must be in 1..{LOTTERY_ROWS}, got {{}}"),
    ("loss_row", 1, LOTTERY_ROWS, f"loss_row must be in 1..{LOTTERY_ROWS}, got {{}}"),
    ("practice", 0, math.inf, "practice must be >= 0, got {}"),
    ("practice", -math.inf, PRACTICE_LIMIT - 1, f"practice must be below 10**{CENTS_DIGITS}"),
)


class TruthGaps(NamedTuple):
    """Largest inversion gap of a report per truth-telling scope, in cents.
    A ``SessionTable``'s gaps hold one array entry per report."""

    all: int
    top2: int
    top1: int


TRUTH_SCOPES = TruthGaps._fields


def _truth_gaps(v: np.ndarray) -> TruthGaps:
    """Per scope, the most by which a good listed lower is worth more than a
    good at one of the scope's checked positions (top1: the first, top2: the
    first two, all: every one), from the (N, 5) Phase I values in listed
    order.  A report is truthful at tolerance ``tol`` exactly when its gap
    is <= ``tol``."""
    top1 = v[:, 1:].max(1) - v[:, 0]
    top2 = np.maximum(top1, v[:, 2:].max(1) - v[:, 1])
    rest = np.maximum(v[:, 3:].max(1) - v[:, 2], v[:, 4] - v[:, 3])
    return TruthGaps(np.maximum(top2, rest), top2, top1)


@dataclass(frozen=True)
class SubjectRecord:
    subject_id: str
    treatment: MechanismKind
    group_id: str
    phase1_values: tuple[int, ...]  # cents, indexed by good id
    report: RankList
    good_received: int
    phase2_value: int  # cents
    phase1_order: int
    risk_row: int
    loss_row: int
    crt: int
    female: int
    practice: int

    def __post_init__(self):
        if len(self.phase1_values) != N_GOODS or len(self.report) != N_GOODS:
            raise ValueError("records cover exactly the five session goods")
        if any(v < 0 for v in self.phase1_values) or self.phase2_value < 0:
            raise ValueError("elicited values must be non-negative")
        for v in self.phase1_values:
            whole_number(v, "phase1_values cents")
        whole_number(self.phase2_value, "phase2_value cents")
        if self.good_received not in self.report.order:
            raise ValueError("good_received must appear in the report")
        for field, lowest, highest, message in _RANGE_RULES:
            value = getattr(self, field)
            if not lowest <= value <= highest or value != int(value):
                raise ValueError(message.format(value))
        if not self.subject_id:
            raise ValueError("subject_id must be non-empty")
        if not self.group_id:
            raise ValueError("group_id must be non-empty")

    @property
    def rank_received(self) -> int:
        return self.report.rank_of(self.good_received)

    @property
    def net_value(self) -> int:
        """Phase II value minus Phase I value of the received good, cents."""
        return self.phase2_value - self.phase1_values[self.good_received]

    @cached_property
    def truth_gaps(self) -> TruthGaps:
        """This report's ``TruthGaps`` in cents (see ``_truth_gaps``)."""
        listed = np.array([[self.phase1_values[g] for g in self.report.order]], dtype=object)
        return TruthGaps(*(gap.item() for gap in _truth_gaps(listed)))


def _int_column(ints) -> np.ndarray:
    """int64 when every entry fits, else Python ints in an object array."""
    try:
        return np.array(ints, dtype=np.int64)
    except OverflowError:
        return np.array(ints, dtype=object)


@dataclass(frozen=True, eq=False)
class SessionTable:
    """A session as columns, one entry per subject in file order.

    Integer columns are int64 when every entry fits and ``object`` arrays of
    Python ints otherwise, so money stays exact at any size."""

    subject_id: tuple[str, ...]
    group_id: tuple[str, ...]
    boston: np.ndarray  # bool: True under Boston, False under RSD
    values: np.ndarray  # (N, 5) Phase I cents, indexed by good id
    order: np.ndarray  # (N, 5) reported good ids, most-preferred first
    good: np.ndarray  # good received
    phase2: np.ndarray  # Phase II cents of the good received
    phase1_order: np.ndarray
    risk_row: np.ndarray
    loss_row: np.ndarray
    crt: np.ndarray
    female: np.ndarray
    practice: np.ndarray

    def __len__(self) -> int:
        return len(self.subject_id)

    @staticmethod
    def of(session: Session) -> SessionTable:
        """``session`` itself if it is a table, else its records as columns."""
        if isinstance(session, SessionTable):
            return session
        cells = [(r.subject_id, r.treatment == MechanismKind.BOSTON, r.group_id,
                  *r.phase1_values, *r.report.order, r.good_received, r.phase2_value,
                  r.phase1_order, r.risk_row, r.loss_row, r.crt, r.female, r.practice)
                 for r in session]
        return SessionTable._from_columns(list(zip(*cells)) or [()] * len(CSV_COLUMNS))

    @staticmethod
    def _from_columns(cols) -> SessionTable:
        """Build from parsed columns in ``CSV_COLUMNS`` order (treatment as
        is-Boston flags)."""
        ints = [_int_column(c) for c in cols[3:]]
        return SessionTable(tuple(cols[0]), tuple(cols[2]), np.array(cols[1], dtype=bool),
                            np.column_stack(ints[0:5]), np.column_stack(ints[5:10]),
                            *ints[10:])

    @cached_property
    def rank_received(self) -> np.ndarray:
        return np.argmax(self.order == self.good[:, None], axis=1) + 1

    @cached_property
    def net_value(self) -> np.ndarray:
        """Phase II value minus Phase I value of the received good, cents."""
        return self.phase2 - self.values[np.arange(len(self)), self.good]

    @cached_property
    def truth_gaps(self) -> TruthGaps:
        """``TruthGaps`` of every report, as columns."""
        return _truth_gaps(np.take_along_axis(self.values, self.order, axis=1))

    def _rows_valid(self) -> bool:
        """Whether every row passes the checks ``SubjectRecord`` and
        ``RankList`` make."""
        return bool(
            (np.sort(self.order, axis=1) == np.arange(N_GOODS)).all()
            # with the report a permutation of 0..4, it lists any good in 0..4
            and ((0 <= self.good) & (self.good < N_GOODS)).all()
            and (self.values >= 0).all() and (self.phase2 >= 0).all()
            and all(((lowest <= getattr(self, field)) & (getattr(self, field) <= highest)).all()
                    for field, lowest, highest, _ in _RANGE_RULES)
            and all(self.subject_id) and all(self.group_id))


Session = Union[SessionTable, Sequence[SubjectRecord]]


def _ints(row: list[str], lo: int, hi: int) -> tuple[int, ...]:
    """``int`` of cells lo..hi−1 of a session row; a ValueError names the column."""
    try:
        return tuple(map(int, row[lo:hi]))
    except ValueError:
        for column, cell in zip(CSV_COLUMNS[lo:hi], row[lo:hi]):
            try:
                int(cell)
            except ValueError as exc:
                raise ValueError(f"{column}: {exc}") from None
        raise


def load_session(path) -> list[SubjectRecord]:
    """Read a session CSV; raises DataFormatError naming the offending row."""
    records = []
    reports: dict[tuple[str, ...], RankList] = {}  # immutable, so records share one
    for lineno, row in csv_rows(path, CSV_COLUMNS):
        # cells by position: the header matched CSV_COLUMNS exactly
        try:
            treatment = MechanismKind(row[1].strip().lower())
            values = tuple(map(cents, row[3:8]))
            key = tuple(row[8:13])
            report = reports.get(key)
            if report is None:
                report = reports[key] = RankList(_ints(row, 8, 13))
            rec = SubjectRecord(
                row[0], treatment, row[2], values, report,
                *_ints(row, 13, 14), cents(row[14]), *_ints(row, 15, 21))
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
        records.append(rec)
    return records


def load_session_table(path) -> SessionTable:
    """Read a session CSV as columns: the same table, and the same errors,
    as ``SessionTable.of(load_session(path))``.

    A file in the plain form ``save_session`` writes (ASCII, no quotes,
    ``\\n`` or ``\\r\\n`` line ends, money ``d.dd`` and integers of at most
    18 digits; see ``_plain_table``) whose rows pass ``SubjectRecord``'s
    checks is parsed from its bytes with numpy, a block of lines at a time
    into columns allocated once, so it holds the file, the table and one
    block's work.  Any other file, and any plain file with a bad row, is
    read by ``load_session``, which names the first offending row in file
    order."""
    with open(path, "rb") as fh:
        table = _plain_table(fh.read())
    if table is None:
        return SessionTable.of(load_session(path))
    if table._rows_valid():
        return table
    load_session(path)  # raises the first offending row's error
    raise RuntimeError(f"{path}: the columns fail where load_session does not")


_PLAIN_HEADER = ",".join(CSV_COLUMNS).encode()
# the byte ending each cell of a plain row: a comma, or the newline
_PLAIN_ENDS = np.array([ord(",")] * (len(CSV_COLUMNS) - 1) + [ord("\n")], dtype=np.uint8)
# 10**18 - 1 < 2**63, so a plain number cell always fits int64
_PLAIN_DIGITS = 18
# the bytes of whole lines ``_plain_table`` parses at a time, before the line end
_PLAIN_BLOCK = 1 << 16


def _plain_table(data: bytes) -> SessionTable | None:
    """The table of a session CSV in the plain form ``save_session`` writes,
    or None for any other file.

    Plain means: ASCII with no ``"`` or NUL; lines end in ``\\n`` or
    ``\\r\\n`` (the last may lack it); the header line is exactly
    ``CSV_COLUMNS``; at least one row and no blank line, each row of 21
    cells; treatments ``rsd`` or ``boston``; money ``[0-9]+\\.[0-9][0-9]``
    and integers ``[0-9]+``, of at most 18 digits; every cell shorter than
    ``csv``'s field limit, and in each block the widest id times the rows
    no more than the block's size.  ``csv`` reads such a file cell for cell
    as written, and ``load_session`` parses each cell to the value read
    here.

    Rows are parsed a block of whole lines at a time (``_PLAIN_BLOCK``
    bytes, then on to the line end) into columns allocated once."""
    if not data.isascii() or b'"' in data or b"\0" in data or data.endswith(b"\r"):
        return None
    if not data.startswith((_PLAIN_HEADER + b"\n", _PLAIN_HEADER + b"\r\n")):
        return None
    # a cell csv may refuse: one as wide as its field limit, a line's \r
    # counted; the header's cells here, each block's below
    limit = csv.field_size_limit()
    if max(map(len, CSV_COLUMNS)) >= limit:
        return None
    rows = data.count(b"\n") - data.endswith(b"\n")  # the lines past the header
    if not rows:
        return None
    subject_id: list[str] = []
    group_id: list[str] = []
    boston = np.empty(rows, dtype=bool)
    numbers = np.empty((len(CSV_COLUMNS) - 3, rows), dtype=np.int64)
    values, order = numbers[:10].reshape(2, rows, N_GOODS)
    scalars = numbers[10:]  # good, phase2, phase1_order, risk_row, loss_row, crt, female, practice
    targets = [*values.T, *order.T, *scalars]  # CSV column j is targets[j - 3]
    a = np.frombuffer(data, dtype=np.uint8)
    width = len(CSV_COLUMNS)
    p, at = data.index(b"\n") + 1, 0
    while at < rows:
        stop = data.find(b"\n", p + _PLAIN_BLOCK - 1) + 1 or len(data)
        block, p = a[p:stop], stop
        if block[-1] != ord("\n"):
            block = np.append(block, np.uint8(ord("\n")))  # the last line's missing end
        # every cell's end: row after row of 21
        ends = np.flatnonzero((block == ord(",")) | (block == ord("\n")))
        if len(ends) % width or not (block[ends].reshape(-1, width) == _PLAIN_ENDS).all():
            return None
        start = np.concatenate(([0], ends[:-1] + 1)).reshape(-1, width)
        end = ends.reshape(-1, width)
        if (end - start).max() >= limit:
            return None
        cr = block[end[:, -1] - 1] == ord("\r")
        if np.count_nonzero(block == ord("\r")) != np.count_nonzero(cr):
            return None  # a \r that ends no line
        end[:, -1] -= cr  # a line's \r is no part of its last cell
        widths = end - start
        to = at + len(end)
        if int(widths[:, [0, 2]].max()) * len(end) > len(block):
            return None  # padded ids would outgrow the block
        if widths[:, 1].max() > len("boston"):
            return None
        treatment = _text_cells(block, start[:, 1], end[:, 1])
        boston[at:to] = treatment == "boston"
        if not (boston[at:to] | (treatment == "rsd")).all():
            return None
        money = _plain_numbers(block, start[:, _MONEY_COLUMNS].T, end[:, _MONEY_COLUMNS].T,
                               point=True)
        ints = _plain_numbers(block, start[:, _INT_COLUMNS].T, end[:, _INT_COLUMNS].T,
                              point=False)
        if money is None or ints is None:
            return None
        for j, col in zip(_MONEY_COLUMNS + _INT_COLUMNS, [*money, *ints]):
            targets[j - 3][at:to] = col
        subject_id += _text_cells(block, start[:, 0], end[:, 0]).tolist()
        group_id += _text_cells(block, start[:, 2], end[:, 2]).tolist()
        at = to
    return SessionTable(tuple(subject_id), tuple(group_id), boston, values, order, *scalars)


def _text_cells(a: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The ASCII cells ``a[start:end]`` as one ``U`` array."""
    widths = end - start
    width = max(1, int(widths.max()))
    padded = np.concatenate([a, np.zeros(width, dtype=np.uint8)])
    # row i of the view is the ``width`` bytes from offset i
    cells = np.ndarray((len(a) + 1, width), np.uint8, padded, strides=(1, 1))[start]
    cells *= np.arange(width) < widths[:, None]
    # an ASCII byte is its own UCS-4 code point, and NULs pad a U cell
    return cells.astype(np.uint32).view(f"U{width}").ravel()


def _plain_numbers(a: np.ndarray, start: np.ndarray, end: np.ndarray,
                   point: bool) -> np.ndarray | None:
    """The int64 values of the (column, row) cells ``a[start:end]``, or None
    unless every cell is a plain integer; with ``point``, plain money, read
    in cents."""
    widths = end - start
    shortest, widest = (len("0.00"), _PLAIN_DIGITS + 1) if point else (1, _PLAIN_DIGITS)
    if widths.min() < shortest or widths.max() > widest:
        return None
    width = int(widths.max())
    # every cell right-aligned in ``width`` bytes: the byte at place p lies
    # p bytes before the cell's last
    digits = np.stack([a[end - k] for k in range(width, 0, -1)])
    if point:
        if not (digits[-3] == ord(".")).all():
            return None
        digits[-3] = ord("0")
    digits -= np.uint8(ord("0"))
    place = np.arange(width - 1, -1, -1)
    digits *= place[:, None, None] < widths
    if not (digits < 10).all():
        return None
    # money's point is place 2, so the digits left of it sit one place lower
    exponent = place - (place >= 2) if point else place
    return np.einsum("w,wcr->cr", 10 ** exponent, digits)


def save_session(records: Sequence[SubjectRecord], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([
                r.subject_id, r.treatment.value, r.group_id,
                *(_money(v) for v in r.phase1_values),
                *r.report.order,
                r.good_received, _money(r.phase2_value), r.phase1_order,
                r.risk_row, r.loss_row, r.crt, r.female, r.practice,
            ])


def _money(amount_cents: int) -> str:
    """Non-negative cents as exact dollars with two decimals."""
    return f"{amount_cents // 100}.{amount_cents % 100:02d}"


def nv_rank_summary(records: Session) -> dict[int, tuple[int, Fraction, float]]:
    """Per received rank: (count, exact mean NV in cents, sample sd).  The
    variance is exact, (n·Σv² − (Σv)²) / (n·(n − 1)) over int sums, so the sd
    rounds the same on every Python."""
    t = SessionTable.of(records)
    out = {}
    for rank in range(1, N_GOODS + 1):
        vals = t.net_value[t.rank_received == rank].tolist()
        n = len(vals)
        if not n:
            continue
        total = sum(vals)
        sd = 0.0
        if n > 1:
            sd = math.sqrt(Fraction(n * sum(map(operator.mul, vals, vals)) - total * total,
                                    n * (n - 1)))
        out[rank] = (n, Fraction(total, n), sd)
    return out


def _check_tolerance(tolerance: int) -> None:
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")


def classify_truthful(record: SubjectRecord, tolerance: int, scope: str = "all") -> bool:
    """True iff no good is ranked above another whose Phase I value exceeds
    it by more than ``tolerance`` cents.  ``scope`` restricts which listed
    positions are checked against the rest: 'all', 'top2', or 'top1'."""
    _check_tolerance(tolerance)
    if scope not in TRUTH_SCOPES:
        raise ValueError(f"scope must be one of {TRUTH_SCOPES}, got {scope!r}")
    return getattr(record.truth_gaps, scope) <= tolerance


def truth_rate_table(records: Session, tolerances: Sequence[int]) -> dict:
    """Per-treatment truth-telling rates for each (tolerance, scope) cell."""
    for tol in tolerances:
        _check_tolerance(tol)
    t = SessionTable.of(records)
    out: dict = {}
    for kind in MechanismKind:
        rows = t.boston == (kind == MechanismKind.BOSTON)
        n = int(np.count_nonzero(rows))
        if not n:
            continue
        gaps = [gap[rows] for gap in t.truth_gaps]
        cells = {}
        for tol in tolerances:
            for scope, gap in zip(TRUTH_SCOPES, gaps):
                cells[f"tol_{tol}_{scope}"] = int(np.count_nonzero(gap <= tol)) / n
        out[kind.value] = {"n": n, "rates": cells}
    return out


def welfare_total(records: Session) -> dict[str, float]:
    """Per-treatment mean over groups of the group's summed Phase II values
    (cents).  Groups without exactly five subjects are warned and skipped."""
    t = SessionTable.of(records)
    names = list(dict.fromkeys(t.group_id))
    code = {gid: i for i, gid in enumerate(names)}
    # one group per (group_id, treatment) pair
    group = 2 * np.fromiter(map(code.__getitem__, t.group_id), np.int64, len(t)) + t.boston
    size = np.bincount(group, minlength=2 * len(names))
    kind_of = (MechanismKind.RSD, MechanismKind.BOSTON)
    for kind, gid, n in sorted((kind_of[g % 2].value, names[g // 2], int(size[g]))
                               for g in np.flatnonzero((size != 0) & (size != GROUP_SIZE))):
        warnings.warn(f"group {gid!r} has {n} subjects, expected "
                      f"{GROUP_SIZE}; excluded from welfare")
    complete = size[group] == GROUP_SIZE
    out = {}
    for kind in MechanismKind:
        rows = complete & (t.boston == (kind == MechanismKind.BOSTON))
        n_groups = int(np.count_nonzero(rows)) // GROUP_SIZE
        if n_groups:
            # the sum of the groups' totals is the sum over their members
            out[kind.value] = sum(t.phase2[rows].tolist()) / n_groups
    return out


def analyze_session(records: Session, tolerances: Sequence[int] = (0, 200)) -> dict:
    """Full JSON-ready report: NV means by rank, truth rates, welfare."""
    t = SessionTable.of(records)
    summary = nv_rank_summary(t)
    return {
        "n_subjects": len(t),
        "net_value_by_rank": {
            str(rank): {"n": n, "mean_cents": float(mean), "sd_cents": sd}
            for rank, (n, mean, sd) in summary.items()
        },
        "truth_rates": truth_rate_table(t, tolerances),
        "welfare_mean_cents": welfare_total(t),
    }


def net_value_design(records: Session,
                     tolerance: int = 200) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """(y, X, column names) for the Net Value regression: rank dummies
    (rank 1 omitted), a truthful-report dummy, and the stored covariates.
    Net Value in dollars; ``y`` and ``X`` are C-contiguous float64."""
    _check_tolerance(tolerance)
    columns = ["const", "rank2", "rank3", "rank4", "rank5", "truthful",
               "risk_row", "loss_row", "crt", "female", "practice"]
    t = SessionTable.of(records)
    X = np.empty((len(t), len(columns)))
    X[:, 0] = 1.0
    X[:, 1:5] = t.rank_received[:, None] == np.arange(2, N_GOODS + 1)
    X[:, 5] = t.truth_gaps.all <= tolerance
    for j, covariate in enumerate((t.risk_row, t.loss_row, t.crt, t.female, t.practice), 6):
        X[:, j] = covariate
    y = np.asarray(t.net_value / 100.0, dtype=np.float64)
    return y, X, columns


# ---------------------------------------------------------------------------
# synthetic session generator (testing / pipeline validation)
# ---------------------------------------------------------------------------

PLANTED_PHASE1 = (2824, 2256, 911, 653, 533)  # cents, descending by good id


def generate_session(n_groups: int, rho_cents: Sequence[int], noise_sd_cents: float,
                     seed: int, treatment: MechanismKind = MechanismKind.RSD,
                     misreport_rate: float = 0.0) -> list[SubjectRecord]:
    """Synthetic session over common Phase I values with a planted rho.

    Each group of five runs the actual mechanism on the submitted reports
    under a drawn tie-break order.  Reports are truthful except that each
    subject independently swaps their top two goods with probability
    ``misreport_rate``.  Phase II value = Phase I value of the received
    good + rho(received rank) + Gaussian noise, floored at zero."""
    if len(rho_cents) != N_GOODS:
        raise ValueError(f"rho must have {N_GOODS} entries")
    from .mechanisms import TieBreakOrder, run_mechanism

    gen = prng.generator(seed, 0)
    truthful = RankList(tuple(range(N_GOODS)))
    swapped = RankList((1, 0) + tuple(range(2, N_GOODS)))
    records = []
    for g in range(n_groups):
        reports = [swapped if (misreport_rate > 0
                               and float(gen.random()) < misreport_rate)
                   else truthful for _ in range(GROUP_SIZE)]
        order = TieBreakOrder(tuple(int(x) for x in gen.permutation(GROUP_SIZE)))
        matching = run_mechanism(treatment, reports, order)
        for member in range(GROUP_SIZE):
            good = matching.good_of(member)
            rank = reports[member].rank_of(good)
            noise = float(gen.normal(0.0, noise_sd_cents)) if noise_sd_cents > 0 else 0.0
            phase2 = max(0, round(PLANTED_PHASE1[good] + rho_cents[rank - 1] + noise))
            records.append(SubjectRecord(
                subject_id=f"s{g:03d}_{member}", treatment=treatment,
                group_id=f"g{g:03d}", phase1_values=PLANTED_PHASE1,
                report=reports[member], good_received=good, phase2_value=phase2,
                phase1_order=int(gen.integers(1, 21)),
                risk_row=int(gen.integers(1, 51)), loss_row=int(gen.integers(1, 51)),
                crt=int(gen.integers(0, 4)), female=int(gen.integers(0, 2)),
                practice=int(gen.integers(0, 6))))
    return records
