"""Two-screen multiple price list and lottery tasks: encoding and payments.

All amounts are integer cents.  MPL rows encode the last row at which the
subject kept the object; screen 1 steps in dollars, screen 2 refines within
the selected dollar in 2-cent steps (screen 2 spans $x.02 ... $x+1.00).
A subject who would exchange the object even at the lowest money amount is
encoded with ``screen1_row = 0``; the decoded value is $0.00.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import DataFormatError, csv_rows

MPL_ROWS = 50
LOTTERY_ROWS = 50

RESPONSE_COLUMNS = ("subject_id", "task_id", "screen1_row", "screen2_row",
                    "switch_row")


class LotteryTask(str, Enum):
    HOLT_LAURY = "holt_laury"
    LOSS_AVERSION = "loss_aversion"


@dataclass(frozen=True)
class MplResponse:
    """Last keep-object rows on the two MPL screens."""

    screen1_row: int
    screen2_row: int

    def __post_init__(self):
        if not 0 <= self.screen1_row <= MPL_ROWS:
            raise ValueError(f"screen1_row must be in 0..{MPL_ROWS}, got {self.screen1_row}")
        if not 1 <= self.screen2_row <= MPL_ROWS:
            raise ValueError(f"screen2_row must be in 1..{MPL_ROWS}, got {self.screen2_row}")


@dataclass(frozen=True)
class LotteryResponse:
    task: LotteryTask
    switch_row: int

    def __post_init__(self):
        if not 1 <= self.switch_row <= LOTTERY_ROWS:
            raise ValueError(f"switch_row must be in 1..{LOTTERY_ROWS}, got {self.switch_row}")


@dataclass(frozen=True)
class KeepObject:
    """Payment outcome: the subject keeps the object (no money)."""


@dataclass(frozen=True)
class Money:
    amount_cents: int


def decode_mpl(resp: MplResponse) -> int:
    """Elicited object value in cents: screen1 dollars + 2 cents per
    screen-2 row.  The row-0 sentinel decodes to 0."""
    if resp.screen1_row == 0:
        return 0
    return 100 * resp.screen1_row + 2 * resp.screen2_row


def encode_mpl(value_cents: int) -> MplResponse:
    """Inverse of decode_mpl for representable values (even cents,
    0 or in $1.02 .. $51.00)."""
    if value_cents == 0:
        return MplResponse(0, 1)
    if value_cents % 2:
        raise ValueError(f"MPL values step in 2 cents, got {value_cents}")
    s2 = ((value_cents - 2) % 100) // 2 + 1
    s1 = (value_cents - 2 * s2) // 100
    resp = MplResponse(s1, s2)
    if decode_mpl(resp) != value_cents:
        raise ValueError(f"value {value_cents} cents is not representable")
    return resp


def resolve_mpl_payment(resp: MplResponse, draw1: int, draw2: int) -> KeepObject | Money:
    """Pay out the MPL: draw1 selects a screen-1 row in 1..50 (dollars),
    draw2 a screen-2 row.  Below the switch the subject keeps the object;
    above it they take the row's money; at the switch the second screen
    repeats the rule within the dollar."""
    for name, d in (("draw1", draw1), ("draw2", draw2)):
        if not 1 <= d <= MPL_ROWS:
            raise ValueError(f"{name} must be in 1..{MPL_ROWS}, got {d}")
    if draw1 < resp.screen1_row:
        return KeepObject()
    if draw1 > resp.screen1_row:
        return Money(100 * draw1)
    if draw2 <= resp.screen2_row:
        return KeepObject()
    return Money(100 * resp.screen1_row + 2 * draw2)


def loss_aversion_loss(row: int) -> int:
    """Option-B loss amount (cents) at a given row: $20.00 at row 1,
    stepping down $0.40 per row to $0.40 at row 50."""
    if not 1 <= row <= LOTTERY_ROWS:
        raise ValueError(f"row must be in 1..{LOTTERY_ROWS}, got {row}")
    return 2000 - 40 * (row - 1)


def _row_cell(cell: str, column: str) -> int:
    """A row-number cell: ASCII digits only, so no sign, space, underscore
    or other script's digits that ``int`` would take."""
    if not (cell.isascii() and cell.isdigit()):
        raise ValueError(f"{column} must be a row number in ASCII digits, got {cell!r}")
    try:
        return int(cell)
    except ValueError as exc:  # more digits than int() converts
        raise ValueError(f"{column}: {exc}") from None


def _parse_response(task: str, screen1: str, screen2: str,
                    switch: str) -> MplResponse | LotteryResponse:
    """One response from a row's four response cells; raises ValueError."""
    if task == "mpl":
        resp: MplResponse | LotteryResponse = MplResponse(
            _row_cell(screen1, "screen1_row"), _row_cell(screen2, "screen2_row"))
        filled = "switch_row" if switch else ""
    else:
        resp = LotteryResponse(LotteryTask(task), _row_cell(switch, "switch_row"))
        filled = "screen1_row" if screen1 else "screen2_row" if screen2 else ""
    if filled:
        cell = {"screen1_row": screen1, "screen2_row": screen2, "switch_row": switch}[filled]
        raise ValueError(f"{filled} must be blank when task_id is {task}, got {cell!r}")
    return resp


def load_responses(path) -> list[tuple[str, MplResponse | LotteryResponse]]:
    """Read raw elicitation responses from CSV.

    Header: subject_id,task_id,screen1_row,screen2_row,switch_row with
    task_id one of mpl / holt_laury / loss_aversion; MPL rows fill the two
    screen columns with row numbers in ASCII digits and leave switch_row
    blank, lottery rows the reverse.  Returns (subject_id, response) pairs;
    rows with the same four response cells share one response object, parsed
    once.  Malformed rows, rows of another width and a filled cell that the
    row's task leaves blank included, raise DataFormatError with a file:row:
    prefix (see ``core.csv_rows``).
    """
    parsed: dict[tuple[str, ...], MplResponse | LotteryResponse] = {}
    out: list[tuple[str, MplResponse | LotteryResponse]] = []
    for lineno, (subject, task, screen1, screen2, switch) in csv_rows(path, RESPONSE_COLUMNS):
        cells = (task, screen1, screen2, switch)
        resp = parsed.get(cells)
        if resp is None:
            try:
                resp = parsed[cells] = _parse_response(*cells)
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
        out.append((subject, resp))
    return out


def resolve_lottery_payment(resp: LotteryResponse, draw: int, coin: float) -> Money:
    """Pay out a lottery task.  ``draw`` selects a row in 1..50; the subject
    plays option/lottery A iff draw <= switch_row.  ``coin`` is a uniform
    [0,1) real resolving the lottery itself.

    Holt-Laury: the high payoff occurs with probability 2*draw%; A pays
    $24.00 / $20.00, B pays $38.00 / $12.00.  Loss aversion: A pays $20.00
    plus a 50% chance of a $10.00 bonus; B pays $30.00 minus a 50% chance
    of the row's loss."""
    if not 1 <= draw <= LOTTERY_ROWS:
        raise ValueError(f"draw must be in 1..{LOTTERY_ROWS}, got {draw}")
    if not 0.0 <= coin < 1.0:
        raise ValueError(f"coin must be in [0, 1), got {coin}")
    plays_a = draw <= resp.switch_row
    if resp.task == LotteryTask.HOLT_LAURY:
        high = coin < 0.02 * draw
        if plays_a:
            return Money(2400 if high else 2000)
        return Money(3800 if high else 1200)
    if plays_a:
        return Money(2000 + (1000 if coin < 0.5 else 0))
    return Money(3000 - (loss_aversion_loss(draw) if coin < 0.5 else 0))
