"""Experiment-session ingestion and outcome measures.

A session CSV holds one row per subject: Phase I elicited values for the
five goods, the submitted rank list, the good received, the Phase II
elicited value of that good, and covariates.  Net Value is the Phase II
value minus the Phase I value of the same good; its per-rank means are the
main treatment outcome.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import prng
from .core import DataFormatError, RankList, cents
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


class TruthGaps(NamedTuple):
    """Largest inversion gap of a report per truth-telling scope, in cents."""

    all: int
    top2: int
    top1: int


TRUTH_SCOPES = TruthGaps._fields


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
        if self.good_received not in self.report.order:
            raise ValueError("good_received must appear in the report")
        if not 1 <= self.phase1_order <= 20:
            raise ValueError(f"phase1_order must be in 1..20, got {self.phase1_order}")
        if not 0 <= self.crt <= 3:
            raise ValueError(f"crt must be in 0..3, got {self.crt}")
        if self.female not in (0, 1):
            raise ValueError(f"female must be 0/1, got {self.female}")

    @property
    def rank_received(self) -> int:
        return self.report.rank_of(self.good_received)

    @property
    def net_value(self) -> int:
        """Phase II value minus Phase I value of the received good, cents."""
        return self.phase2_value - self.phase1_values[self.good_received]

    @cached_property
    def truth_gaps(self) -> TruthGaps:
        """Per scope, the most by which a good listed lower is worth more
        than a good at one of the scope's checked positions (top1: the
        first, top2: the first two, all: every one).  The report is
        truthful at tolerance ``tol`` exactly when the gap is <= ``tol``."""
        v = [self.phase1_values[g] for g in self.report.order]
        top1 = max(v[1:]) - v[0]
        top2 = max(top1, max(v[2:]) - v[1])
        return TruthGaps(max(top2, max(v[3:]) - v[2], v[4] - v[3]), top2, top1)


def load_session(path) -> list[SubjectRecord]:
    """Read a session CSV; raises DataFormatError naming the offending row."""
    records = []
    reports: dict[tuple[str, ...], RankList] = {}  # immutable, so records share one
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        if tuple(header) != CSV_COLUMNS:
            raise DataFormatError(
                f"{path}: bad header; expected {','.join(CSV_COLUMNS)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_COLUMNS):
                raise DataFormatError(
                    f"{path}:{lineno}: expected {len(CSV_COLUMNS)} cells, got {len(row)}")
            # cells by position: the header matched CSV_COLUMNS exactly
            try:
                treatment = MechanismKind(row[1].strip().lower())
                values = tuple(map(cents, row[3:8]))
                key = tuple(row[8:13])
                report = reports.get(key)
                if report is None:
                    report = reports[key] = RankList(tuple(map(int, key)))
                rec = SubjectRecord(
                    row[0], treatment, row[2], values, report,
                    int(row[13]), cents(row[14]), *map(int, row[15:]))
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
            records.append(rec)
    return records


def save_session(records: Sequence[SubjectRecord], path) -> None:
    with open(path, "w", newline="") as fh:
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


def nv_rank_summary(records: Sequence[SubjectRecord]) -> dict[int, tuple[int, Fraction, float]]:
    """Per received rank: (count, exact mean NV in cents, sample sd)."""
    by_rank: dict[int, list[int]] = {}
    for r in records:
        by_rank.setdefault(r.rank_received, []).append(r.net_value)
    out = {}
    for rank, vals in sorted(by_rank.items()):
        n = len(vals)
        mean = Fraction(sum(vals), n)
        if n > 1:
            m = float(mean)
            sd = math.sqrt(sum((v - m) ** 2 for v in vals) / (n - 1))
        else:
            sd = 0.0
        out[rank] = (n, mean, sd)
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


def truth_rate_table(records: Sequence[SubjectRecord],
                     tolerances: Sequence[int]) -> dict:
    """Per-treatment truth-telling rates for each (tolerance, scope) cell."""
    for tol in tolerances:
        _check_tolerance(tol)
    out: dict = {}
    for kind in MechanismKind:
        gaps = [r.truth_gaps for r in records if r.treatment == kind]
        if not gaps:
            continue
        cells = {}
        for tol in tolerances:
            for j, scope in enumerate(TRUTH_SCOPES):
                cells[f"tol_{tol}_{scope}"] = sum(g[j] <= tol for g in gaps) / len(gaps)
        out[kind.value] = {"n": len(gaps), "rates": cells}
    return out


def welfare_total(records: Sequence[SubjectRecord]) -> dict[str, float]:
    """Per-treatment mean over groups of the group's summed Phase II values
    (cents).  Groups without exactly five subjects are warned and skipped."""
    sums: dict[tuple[MechanismKind, str], list[int]] = {}
    for r in records:
        sums.setdefault((r.treatment, r.group_id), []).append(r.phase2_value)
    totals: dict[MechanismKind, list[int]] = {}
    for (kind, gid), vals in sorted(sums.items(), key=lambda kv: (kv[0][0].value, kv[0][1])):
        if len(vals) != GROUP_SIZE:
            warnings.warn(f"group {gid!r} has {len(vals)} subjects, expected "
                          f"{GROUP_SIZE}; excluded from welfare")
            continue
        totals.setdefault(kind, []).append(sum(vals))
    return {kind.value: sum(v) / len(v) for kind, v in totals.items()}


def analyze_session(records: Sequence[SubjectRecord],
                    tolerances: Sequence[int] = (0, 200)) -> dict:
    """Full JSON-ready report: NV means by rank, truth rates, welfare."""
    summary = nv_rank_summary(records)
    return {
        "n_subjects": len(records),
        "net_value_by_rank": {
            str(rank): {"n": n, "mean_cents": float(mean), "sd_cents": sd}
            for rank, (n, mean, sd) in summary.items()
        },
        "truth_rates": truth_rate_table(records, tolerances),
        "welfare_mean_cents": welfare_total(records),
    }


def net_value_design(records: Sequence[SubjectRecord],
                     tolerance: int = 200) -> tuple[list, list, list[str]]:
    """(y, X, column names) for the Net Value regression: rank dummies
    (rank 1 omitted), a truthful-report dummy, and the stored covariates.
    Net Value in dollars."""
    _check_tolerance(tolerance)
    columns = ["const", "rank2", "rank3", "rank4", "rank5", "truthful",
               "risk_row", "loss_row", "crt", "female", "practice"]
    y, X = [], []
    for r in records:
        rank = r.rank_received
        X.append([1.0,
                  float(rank == 2), float(rank == 3), float(rank == 4), float(rank == 5),
                  float(r.truth_gaps.all <= tolerance),
                  float(r.risk_row), float(r.loss_row), float(r.crt),
                  float(r.female), float(r.practice)])
        y.append(r.net_value / 100.0)
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
