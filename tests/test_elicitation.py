import random
import re

import pytest

from rankmatch.core import DataFormatError
from rankmatch.elicitation import (
    load_responses,
    KeepObject,
    LotteryResponse,
    LotteryTask,
    Money,
    MplResponse,
    decode_mpl,
    encode_mpl,
    loss_aversion_loss,
    resolve_lottery_payment,
    resolve_mpl_payment,
)


def test_decode_goldens():
    assert decode_mpl(MplResponse(16, 28)) == 1656
    assert decode_mpl(MplResponse(1, 50)) == 200
    assert decode_mpl(MplResponse(50, 1)) == 5002
    assert decode_mpl(MplResponse(0, 1)) == 0


def test_row_validation():
    with pytest.raises(ValueError):
        MplResponse(51, 1)
    with pytest.raises(ValueError):
        MplResponse(1, 0)
    with pytest.raises(ValueError):
        LotteryResponse(LotteryTask.HOLT_LAURY, 0)


def test_round_trip_all_pairs():
    for s1 in range(1, 51):
        for s2 in range(1, 51):
            v = decode_mpl(MplResponse(s1, s2))
            assert encode_mpl(v) == MplResponse(s1, s2)
    assert encode_mpl(0) == MplResponse(0, 1)
    with pytest.raises(ValueError):
        encode_mpl(3)
    with pytest.raises(ValueError):
        encode_mpl(2)  # below the screen-1 grid


def test_decode_strictly_increasing():
    prev = -1
    for s1 in range(1, 51):
        for s2 in range(1, 51):
            v = decode_mpl(MplResponse(s1, s2))
            assert v > prev
            prev = v


def test_mpl_payment_rules():
    resp = MplResponse(16, 28)
    assert resolve_mpl_payment(resp, 10, 1) == KeepObject()
    assert resolve_mpl_payment(resp, 20, 1) == Money(2000)
    assert resolve_mpl_payment(resp, 16, 40) == Money(1680)
    assert resolve_mpl_payment(resp, 16, 28) == KeepObject()
    assert resolve_mpl_payment(resp, 16, 29) == Money(1658)
    with pytest.raises(ValueError):
        resolve_mpl_payment(resp, 0, 1)


def test_mpl_payment_consistent_with_decode():
    resp = MplResponse(7, 13)
    value = decode_mpl(resp)
    for draw1 in range(1, 51):
        for draw2 in (1, 13, 14, 50):
            result = resolve_mpl_payment(resp, draw1, draw2)
            if isinstance(result, Money):
                assert result.amount_cents > value
            elif draw1 < resp.screen1_row:
                assert result == KeepObject()


def test_holt_laury():
    hl = LotteryResponse(LotteryTask.HOLT_LAURY, 30)
    assert resolve_lottery_payment(hl, 50, 0.5) == Money(3800)  # row 50: 100% high
    hl50 = LotteryResponse(LotteryTask.HOLT_LAURY, 50)
    assert resolve_lottery_payment(hl50, 1, 0.01) == Money(2400)
    assert resolve_lottery_payment(hl50, 1, 0.5) == Money(2000)
    assert resolve_lottery_payment(hl, 31, 0.9) == Money(1200)


def test_loss_aversion():
    assert loss_aversion_loss(1) == 2000
    assert loss_aversion_loss(50) == 40
    la = LotteryResponse(LotteryTask.LOSS_AVERSION, 10)
    assert resolve_lottery_payment(la, 5, 0.7) == Money(2000)
    assert resolve_lottery_payment(la, 5, 0.2) == Money(3000)
    assert resolve_lottery_payment(la, 11, 0.2) == Money(3000 - loss_aversion_loss(11))
    assert resolve_lottery_payment(la, 11, 0.7) == Money(3000)


def test_load_responses(tmp_path):
    path = tmp_path / "resp.csv"
    path.write_text(
        "subject_id,task_id,screen1_row,screen2_row,switch_row\n"
        "s1,mpl,16,28,\n"
        "s1,holt_laury,,,30\n"
        "s2,loss_aversion,,,10\n")
    rows = load_responses(path)
    assert rows == [
        ("s1", MplResponse(16, 28)),
        ("s1", LotteryResponse(LotteryTask.HOLT_LAURY, 30)),
        ("s2", LotteryResponse(LotteryTask.LOSS_AVERSION, 10)),
    ]


def test_load_responses_errors(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("subject,task\n")
    with pytest.raises(DataFormatError, match="header"):
        load_responses(bad_header)
    bad_row = tmp_path / "r.csv"
    bad_row.write_text(
        "subject_id,task_id,screen1_row,screen2_row,switch_row\n"
        "s1,mpl,16,99,\n")
    with pytest.raises(DataFormatError, match=":2:"):
        load_responses(bad_row)


HEADER = "subject_id,task_id,screen1_row,screen2_row,switch_row\n"


def test_load_responses_counts_blank_rows(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text(HEADER + "s1,mpl,16,28,\n\ns1,mpl,16,99,\n")  # bad cell on line 4
    with pytest.raises(DataFormatError, match=r"blank\.csv:4: screen2_row"):
        load_responses(path)


@pytest.mark.parametrize("row, message", [
    ("s3,mpl,16,28,7", "switch_row must be blank when task_id is mpl, got '7'"),
    ("s7,mpl,16,28,x", "switch_row must be blank when task_id is mpl, got 'x'"),
    ("s1,holt_laury,3,,30", "screen1_row must be blank when task_id is holt_laury, got '3'"),
    ("s2,loss_aversion,,28,10",
     "screen2_row must be blank when task_id is loss_aversion, got '28'"),
])
def test_load_responses_rejects_cells_the_task_leaves_blank(tmp_path, row, message):
    path = tmp_path / "filled.csv"
    path.write_text(HEADER + "s1,mpl,16,28,\n" + row + "\n")
    with pytest.raises(DataFormatError, match=re.escape(f"filled.csv:3: {message}")):
        load_responses(path)


@pytest.mark.parametrize("row, column, cell", [
    ("s2,mpl,1_6,28,", "screen1_row", "1_6"),
    ("s2,mpl,16, 28,", "screen2_row", " 28"),
    ("s2,holt_laury,,,\u0663\u0660", "switch_row", "\u0663\u0660"),
    ("s2,loss_aversion,,,+5", "switch_row", "+5"),
    ("s2,mpl,,28,", "screen1_row", ""),
])
def test_load_responses_takes_ascii_digits_only(tmp_path, row, column, cell):
    path = tmp_path / "digits.csv"
    path.write_text(HEADER + "s1,mpl,16,28,\n" + row + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=re.escape(
            f"digits.csv:3: {column} must be a row number in ASCII digits, got {cell!r}")):
        load_responses(path)


def test_load_responses_names_the_column_of_a_long_row_number(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text(HEADER + "s1,mpl,16,28,\ns2,mpl,16," + "2" * 5000 + ",\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=re.escape(
            "long.csv:3: screen2_row: Exceeds the limit (4300 digits)")):
        load_responses(path)


def test_load_responses_shares_repeated_cells(tmp_path):
    # rows with the same response cells share one parsed response; each row
    # keeps its own subject, and a bad row is reported at its first line
    # even when a later row repeats its cells
    path = tmp_path / "repeats.csv"
    path.write_text(HEADER + "s1,mpl,16,28,\ns2,holt_laury,,,30\ns3,mpl,16,28,\n"
                    "s4,holt_laury,,,30\ns5,mpl,016,28,\n")
    rows = load_responses(path)
    assert rows == [("s1", MplResponse(16, 28)),
                    ("s2", LotteryResponse(LotteryTask.HOLT_LAURY, 30)),
                    ("s3", MplResponse(16, 28)),
                    ("s4", LotteryResponse(LotteryTask.HOLT_LAURY, 30)),
                    ("s5", MplResponse(16, 28))]
    assert rows[0][1] is rows[2][1] and rows[1][1] is rows[3][1]
    bad = tmp_path / "bad.csv"
    bad.write_text(HEADER + "s1,mpl,16,28,\ns2,mpl,16,99,\ns3,mpl,16,28,\ns4,mpl,16,99,\n")
    with pytest.raises(DataFormatError, match=r"bad\.csv:3: screen2_row must be in 1\.\.50"):
        load_responses(bad)


def test_load_responses_rejects_wide_rows(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text(HEADER + "s1,mpl,16,28,\ns1,holt_laury,,,30,7\n")
    with pytest.raises(DataFormatError, match=r"wide\.csv:3: expected 5 cells, got 6"):
        load_responses(path)


def test_load_responses_field_limit_names_file(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text(HEADER + "s1,mpl,16,28,\n" + "s" * 131_073 + ",mpl,16,28,\n")
    with pytest.raises(DataFormatError, match=r"long\.csv:3: field larger than field limit"):
        load_responses(path)


def test_load_responses_undecodable_names_file(tmp_path):
    path = tmp_path / "bytes.csv"
    path.write_bytes(HEADER.encode() + b"s1,mpl,16,28,\n\xff,mpl,16,28,\n")
    with pytest.raises(DataFormatError, match=r"bytes\.csv: 'utf-8' codec can't decode"):
        load_responses(path)


# ---------------------------------------------------------------------------
# seeded fuzz: byte and token mutants of a valid responses file
# ---------------------------------------------------------------------------

FUZZ_MUTANTS = 6000
FUZZ_TOKENS = (b"", b"0", b"1", b"50", b"51", b"-1", b"+7", b" 16", b"1_6", b"2.5", b"x",
               b"mpl", b"holt_laury", b"loss_aversion", b'"7"', b'"a,b"', b'"', b"\xe9",
               "\u00e9".encode(), "\u0663".encode(), b"\x00", b"9" * 5000, b",", b"\r\n")
FUZZ_BYTES = b',\r\n" -+.0123456789x'
FUZZ_CELL = rb"[^,\r\n]+"


def _fuzz_edit(rng, data):
    """One random edit: a cell replaced from ``FUZZ_TOKENS``, or a byte
    deleted, replaced or inserted."""
    cells = list(re.finditer(FUZZ_CELL, data))
    if rng.random() < 0.6:
        m = rng.choice(cells)
        return data[:m.start()] + rng.choice(FUZZ_TOKENS) + data[m.end():]
    i = rng.randrange(len(data) + 1)
    byte = bytes([rng.choice(FUZZ_BYTES) if rng.random() < 0.9 else rng.randrange(256)])
    op = rng.randrange(3)  # delete, replace, insert
    return data[:i] + (byte if op else b"") + data[i + (op != 2):]


def test_fuzzed_responses(tmp_path):
    """Mutants of a valid responses file, with CRLF and LF line ends, either
    load or raise ``DataFormatError`` naming the file; when the header is
    intact and the bytes decode, the error names the row as well."""
    rng = random.Random(1505)
    rows = []
    for i in range(30):
        task = rng.choice(("mpl", "holt_laury", "loss_aversion"))
        cells = ([rng.randint(0, 50), rng.randint(1, 50), ""] if task == "mpl"
                 else ["", "", rng.randint(1, 50)])
        rows.append(",".join(map(str, [f"s{i}", task, *cells])))
    lf = (HEADER + "\n".join(rows) + "\n").encode()
    bases = (lf, lf.replace(b"\n", b"\r\n"))
    path = tmp_path / "responses.csv"
    path.write_bytes(lf)
    assert len(load_responses(path)) == len(rows)
    row_fault = re.compile(re.escape(str(path)) + r":[0-9]+: ")
    seen = set()
    for i in range(FUZZ_MUTANTS):
        data = bases[i % 2]
        for _ in range(rng.randint(1, 2)):
            data = _fuzz_edit(rng, data)
        path.write_bytes(data)
        try:
            load_responses(path)
            seen.add("loaded")
        except DataFormatError as exc:
            message = str(exc)
            assert message.startswith(f"{path}:"), (data, message)
            try:
                intact = data.decode().splitlines()[0] == HEADER.strip()
            except (UnicodeDecodeError, IndexError):
                intact = False
            if intact:
                assert row_fault.match(message), (data, message)
            seen.add("row fault" if row_fault.match(message) else "file fault")
    assert seen == {"loaded", "row fault", "file fault"}


def test_lottery_validation():
    la = LotteryResponse(LotteryTask.LOSS_AVERSION, 10)
    with pytest.raises(ValueError):
        resolve_lottery_payment(la, 51, 0.5)
    with pytest.raises(ValueError):
        resolve_lottery_payment(la, 5, 1.0)
