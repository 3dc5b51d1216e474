"""The columnar session path against per-record oracles.

``SessionTable`` measures must equal today's record loops exactly, and
``load_session_table`` must accept, reject and build exactly what
``load_session`` does.
"""
import csv
import json
import math
import random
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from rankmatch import analysis, cli
from rankmatch.analysis import (
    CSV_COLUMNS,
    GROUP_SIZE,
    PLANTED_PHASE1,
    TRUTH_SCOPES,
    SessionTable,
    SubjectRecord,
    analyze_session,
    load_session,
    load_session_table,
    net_value_design,
    nv_rank_summary,
    save_session,
    truth_rate_table,
    welfare_total,
)
from rankmatch.core import DataFormatError, RankList
from rankmatch.mechanisms import MechanismKind

GOLDEN = Path(__file__).parent / "data" / "golden"


# ---------------------------------------------------------------------------
# per-record oracles: the loops the measures ran before they took columns
# ---------------------------------------------------------------------------

def oracle_nv_rank_summary(records):
    by_rank = {}
    for r in records:
        by_rank.setdefault(r.rank_received, []).append(r.net_value)
    out = {}
    for rank, vals in sorted(by_rank.items()):
        n = len(vals)
        mean = Fraction(sum(vals), n)
        sd = math.sqrt(sum((v - mean) ** 2 for v in vals) / (n - 1)) if n > 1 else 0.0
        out[rank] = (n, mean, sd)
    return out


def oracle_gaps(r):
    """Largest v[lo] - v[hi] over listed pairs, hi among the scope's first
    positions, in ``TRUTH_SCOPES`` order."""
    v = [r.phase1_values[g] for g in r.report.order]
    return tuple(max(v[lo] - v[hi] for hi in range(limit) for lo in range(hi + 1, 5))
                 for limit in (5, 2, 1))


def oracle_truth_rate_table(records, tolerances):
    out = {}
    for kind in MechanismKind:
        gaps = [oracle_gaps(r) for r in records if r.treatment == kind]
        if not gaps:
            continue
        cells = {}
        for tol in tolerances:
            for j, scope in enumerate(TRUTH_SCOPES):
                cells[f"tol_{tol}_{scope}"] = sum(g[j] <= tol for g in gaps) / len(gaps)
        out[kind.value] = {"n": len(gaps), "rates": cells}
    return out


def oracle_welfare_total(records):
    sums = {}
    for r in records:
        sums.setdefault((r.treatment, r.group_id), []).append(r.phase2_value)
    totals = {}
    for (kind, gid), vals in sorted(sums.items(), key=lambda kv: (kv[0][0].value, kv[0][1])):
        if len(vals) != GROUP_SIZE:
            warnings.warn(f"group {gid!r} has {len(vals)} subjects, expected "
                          f"{GROUP_SIZE}; excluded from welfare")
            continue
        totals.setdefault(kind, []).append(sum(vals))
    return {kind.value: sum(v) / len(v) for kind, v in totals.items()}


def oracle_analyze_session(records, tolerances):
    return {
        "n_subjects": len(records),
        "net_value_by_rank": {
            str(rank): {"n": n, "mean_cents": float(mean), "sd_cents": sd}
            for rank, (n, mean, sd) in oracle_nv_rank_summary(records).items()
        },
        "truth_rates": oracle_truth_rate_table(records, tolerances),
        "welfare_mean_cents": oracle_welfare_total(records),
    }


def oracle_net_value_design(records, tolerance):
    y, X = [], []
    for r in records:
        rank = r.rank_received
        X.append([1.0,
                  float(rank == 2), float(rank == 3), float(rank == 4), float(rank == 5),
                  float(oracle_gaps(r)[0] <= tolerance),
                  float(r.risk_row), float(r.loss_row), float(r.crt),
                  float(r.female), float(r.practice)])
        y.append(r.net_value / 100.0)
    return y, X


def with_warnings(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [(w.category, str(w.message)) for w in caught]


# ---------------------------------------------------------------------------
# columns equal records
# ---------------------------------------------------------------------------

def random_session(seed):
    """Tied values, random reports, both treatments and group sizes other
    than five; one session in four has money past int64."""
    rng = random.Random(seed)
    big = seed % 4 == 0
    records = []
    for g in range(rng.randint(0, 8)):
        kind = rng.choice(list(MechanismKind))
        for m in range(rng.choice((5, 5, 5, 4, 6, 1))):
            pool = [0, 100, 537, 537, 2824, rng.randint(0, 5000)]
            if big:
                pool += [2**63 + rng.randint(0, 10**6), 10**25 + 1]
            values = tuple(rng.choice(pool) for _ in range(5))
            report = RankList(tuple(rng.sample(range(5), 5)))
            good = rng.randrange(5)
            records.append(SubjectRecord(
                f"s{g}_{m}", kind if rng.random() < 0.95 else rng.choice(list(MechanismKind)),
                f"g{g % 5}", values, report, good, rng.choice(pool),
                rng.randint(1, 20), rng.randint(1, 50), rng.randint(1, 50), rng.randint(0, 3),
                rng.randint(0, 1), 10**30 if big and rng.random() < 0.1 else rng.randint(0, 5)))
    if rng.random() < 0.5:
        rng.shuffle(records)
    return records


def assert_measures_equal(session, records, tolerances):
    for tol in tolerances:
        assert truth_rate_table(session, [0, tol]) == oracle_truth_rate_table(records, [0, tol])
        y, X, cols = net_value_design(session, tol)
        y_ref, X_ref = oracle_net_value_design(records, tol)
        assert y.dtype == X.dtype == np.float64
        assert y.flags.c_contiguous and X.flags.c_contiguous
        assert X.shape == (len(records), len(cols))
        assert y.tolist() == y_ref and X.tolist() == X_ref
    assert nv_rank_summary(session) == oracle_nv_rank_summary(records)
    assert with_warnings(welfare_total, session) == with_warnings(oracle_welfare_total, records)
    assert (with_warnings(analyze_session, session, tolerances)
            == with_warnings(oracle_analyze_session, records, tolerances))


def test_columns_equal_records(tmp_path):
    path = tmp_path / "session.csv"
    dtypes = set()
    for seed in range(200):
        records = random_session(seed)
        tolerances = [0, 100, 537, random.Random(seed).choice((1, 4000, 10**30))]
        table = SessionTable.of(records)
        assert SessionTable.of(table) is table
        dtypes.add(table.values.dtype)
        assert_measures_equal(records, records, tolerances)
        assert_measures_equal(table, records, tolerances)
        save_session(records, path)
        assert_measures_equal(load_session_table(path), records, tolerances)
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


# ---------------------------------------------------------------------------
# the columnar parse and the record loader agree on every input
# ---------------------------------------------------------------------------

def assert_tables_equal(a, b):
    for name in SessionTable.__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, tuple):
            assert x == y, name
        else:
            assert (x.dtype, x.shape, x.tolist()) == (y.dtype, y.shape, y.tolist()), name


def base_lines(tmp_path):
    recs = []
    for i, kind in enumerate(MechanismKind):
        for m in range(GROUP_SIZE):
            recs.append(SubjectRecord(
                f"s{i}{m}", kind, f"g{i}", PLANTED_PHASE1, RankList((1, 0, 2, 4, 3)),
                m, 1000 + m, 1 + m, 2 + m, 3 + m, m % 4, m % 2, m))
    path = tmp_path / "base.csv"
    save_session(recs, path)
    return path.read_text().splitlines()


def load_both(path):
    """Each loader's table, or its error text."""
    try:
        expected = SessionTable.of(load_session(path))
    except DataFormatError as exc:
        with pytest.raises(DataFormatError) as info:
            load_session_table(path)
        assert str(info.value) == str(exc)
        return None
    table = load_session_table(path)
    assert_tables_equal(table, expected)
    return table


BAD_CELLS = ("", "x", "-1.00", "1.005", "99", "-3", "٣", "BOSTON", "1.5", " 1.00",
             "10000000000000000.00", "2", "0.00", "1e999999", "1" + "0" * 400,
             # 18 digits fit the plain parse; 19 go to the record reader
             "999999999999999999", "9223372036854775807", "9999999999999999.99",
             "92233720368547758.07", "s\u00e9", 'x"y')


def load_bad_cells(path, lines, linenos):
    """Each of ``BAD_CELLS`` in each column of each of ``linenos`` (1-based
    file lines), one edit at a time: both loaders build the same table or
    raise the same error.  Returns how many edited files loaded."""
    loaded = 0
    for j in range(len(CSV_COLUMNS)):
        for cell in BAD_CELLS:
            for lineno in linenos:
                edited = list(lines)
                row = edited[lineno - 1].split(",")
                row[j] = cell
                edited[lineno - 1] = ",".join(row)
                loaded += load_both_lines(path, edited) is not None
    return loaded


def test_table_equals_records(tmp_path):
    lines = base_lines(tmp_path)
    path = tmp_path / "edited.csv"
    load_both_lines(path, lines)
    assert load_bad_cells(path, lines, (2, len(lines))) > 0

    short, long_ = lines[3].rsplit(",", 1)[0], lines[3] + ",1"
    duplicate = lines[3].replace(",1,0,2,4,3,", ",1,1,2,4,3,")
    row = lines[3].split(",")
    row[4] = '"1.00,2.00"'  # a comma inside a money cell
    comma = ",".join(row)
    for edited in (lines[:3] + [short] + lines[4:], lines[:3] + [long_] + lines[4:],
                   lines[:3] + [duplicate] + lines[4:], lines[:3] + [comma] + lines[4:],
                   lines[:1], lines[:2] + [""] + lines[2:],
                   ["x"] + lines[1:], []):
        load_both_lines(path, edited)

    text = "".join(line + "\n" for line in lines)
    limit = csv.field_size_limit()
    for edited in (text.replace("\n", "\r\n"), text[:-1], text.replace("\n", "\r\n")[:-2],
                   text.replace("\n", "\r", 1), text.replace("\n", "\r", 5), text[:-1] + "\r",
                   text.replace("\n", "\n\r\n", 3), "\ufeff" + text,
                   lines[0] + "\r\n", lines[0], text.replace("s00", "s" + "0" * limit, 1),
                   text.replace("s00", "s" + "0" * (limit - 2), 1)):
        path.write_bytes(edited.encode())
        load_both(path)


def load_both_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return load_both(path)


# a block of a few rows, so a 30-row file spans several
SMALL_BLOCK = 300


def test_table_equals_records_across_blocks(tmp_path, monkeypatch):
    """Plain files parsed a few rows at a time: a bad cell in the first, a
    middle or the last block, and an id too wide for its block or for
    ``csv`` in a middle block, load as ``load_session`` reads them."""
    monkeypatch.setattr(analysis, "_PLAIN_BLOCK", SMALL_BLOCK)
    lines = base_lines(tmp_path)
    lines = lines[:1] + lines[1:] * 3
    path = tmp_path / "edited.csv"
    assert load_both_lines(path, lines) is not None
    assert path.stat().st_size > 3 * SMALL_BLOCK  # four blocks or more
    assert load_bad_cells(path, lines, (2, 16, len(lines))) > 0

    middle = lines[15].split(",")
    for wide, loads in (("s" * 500, True), ("s" * (csv.field_size_limit() + 1), False)):
        edited = list(lines)
        edited[15] = ",".join([wide, *middle[1:]])
        assert (load_both_lines(path, edited) is not None) == loads
        assert analysis._plain_table(path.read_bytes()) is None


def test_block_edges(tmp_path, monkeypatch):
    """A block runs from its first byte through the first line end at least
    ``_PLAIN_BLOCK`` bytes on.  Over the sizes swept here each block's
    search starts on every byte of its third row, the \\r and \\n among
    them.  So a block ends after its third row; with nine rows the last
    block's search starts on every byte of the last line, and with ten it
    starts past the file's end.  CRLF files, files without a final newline,
    and a blank line that starts the second block each load as
    ``load_session`` reads them; the plain parse refuses the blank line."""
    lines = base_lines(tmp_path)
    files = []  # (text, whether the plain parse reads it)
    for rows in (lines[:10], lines):
        text = "".join(line + "\n" for line in rows)
        crlf = text.replace("\n", "\r\n")
        files += [(crlf, True), (text[:-1], True), (crlf[:-2], True)]
    blank = "".join(line + "\n" for line in lines[:4] + [""] + lines[4:])
    files += [(blank, False), (blank.replace("\n", "\r\n"), False)]
    path = tmp_path / "edges.csv"
    for data, plain in files:
        path.write_bytes(data.encode())
        first = data.index("\n") + 1
        row = data.index("\n", first) + 1 - first
        for block in range(2 * row + 1, 3 * row + 1):
            monkeypatch.setattr(analysis, "_PLAIN_BLOCK", block)
            assert load_both(path) is not None
            assert (analysis._plain_table(data.encode()) is not None) == plain


def retained_bytes(table):
    """Bytes a table holds: its arrays' data, its id tuples and their strings."""
    total = 0
    for name in SessionTable.__dataclass_fields__:
        column = getattr(table, name)
        if isinstance(column, tuple):
            total += sys.getsizeof(column) + sum({id(s): sys.getsizeof(s) for s in column}.values())
        else:
            total += column.nbytes
    return total


def test_plain_parse_memory(tmp_path):
    """A plain file of 50 000 rows is parsed a block at a time: the traced
    peak of ``load_session_table`` stays within the table it returns, the
    file's bytes and 4 MiB."""
    lines = base_lines(tmp_path)
    path = tmp_path / "large.csv"
    path.write_bytes("".join(line + "\r\n" for line in lines[:1] + lines[1:] * 5000).encode())
    tracemalloc.start()
    try:
        table = load_session_table(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 50_000
    assert peak <= retained_bytes(table) + path.stat().st_size + 4 * 2**20


def test_valid_non_plain_files_load(tmp_path):
    """A quoted cell, money outside ``d.dd`` form and a number past 18
    digits each leave the plain form; such a file is read record by record
    into the same table."""
    lines = base_lines(tmp_path)
    path = tmp_path / "edited.csv"
    edits = [(3, "1.5"), (4, " 1.00"), (14, "10000000000000000.00"), (0, '"s,00"')]
    for j, cell in edits:
        row = lines[2].split(",")
        row[j] = cell
        lines[2] = ",".join(row)
    expected = load_both_lines(path, lines)
    assert analysis._plain_table(path.read_bytes()) is None
    assert expected.subject_id[1] == "s,00"
    assert expected.values[1, 0] == 150 and expected.values[1, 1] == 100
    assert expected.phase2[1] == 10**18


def test_plain_files_load_without_csv(tmp_path, monkeypatch):
    """A file as ``save_session`` writes it, with CRLF or LF line ends, is
    parsed from its bytes; ``csv`` reads it for no table."""
    records = random_session(1)
    path = tmp_path / "session.csv"
    save_session(records, path)
    crlf = path.read_bytes()
    assert crlf.count(b"\r\n") == len(records) + 1

    def csv_reader(path, columns):
        raise AssertionError("csv read a plain file")

    for data in (crlf, crlf.replace(b"\r\n", b"\n")):
        path.write_bytes(data)
        expected = SessionTable.of(load_session(path))
        with monkeypatch.context() as patch:
            patch.setattr(analysis, "csv_rows", csv_reader)
            assert_tables_equal(load_session_table(path), expected)


# ---------------------------------------------------------------------------
# seeded fuzz: mutated session files through both loaders and the CLI
# ---------------------------------------------------------------------------

FUZZ_MUTANTS = 1200
FUZZ_TOKENS = [bytes([c]) for c in b',\r\n". -e0123456789x'] + ["\u00e9".encode()]


def mutate(rng, data):
    """``data`` with one to four byte edits: a token inserted, a byte
    deleted, or a byte replaced by a token."""
    data = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(len(data) + 1)
        edit = rng.randrange(3)
        if edit == 0:
            data[at:at] = rng.choice(FUZZ_TOKENS)
        elif at < len(data):
            data[at:at + 1] = rng.choice(FUZZ_TOKENS) if edit == 1 else b""
    return bytes(data)


def reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_fuzzed_sessions(tmp_path, capsys, monkeypatch):
    """Mutants of ``save_session`` files, with CRLF and LF line ends: the
    columnar loader builds the record loader's table or raises its error,
    and ``analyze --ols`` exits 0 with strict JSON, or 1 with one error line
    that names the file.  Every other pair of mutants is parsed in blocks of
    ``SMALL_BLOCK`` bytes, so its edits fall in any of several blocks."""
    rng = random.Random(20240901)
    path = tmp_path / "mutant.csv"
    save_session(analysis.generate_session(2, (287, 100, 50, 0, -69), 120.0, seed=7,
                                           misreport_rate=0.3) + random_session(1)[:5], path)
    crlf = path.read_bytes()
    bases = (crlf, crlf.replace(b"\r\n", b"\n"))
    blocks = (analysis._PLAIN_BLOCK, SMALL_BLOCK)
    assert len(crlf) > 3 * SMALL_BLOCK
    seen: dict = {block: set() for block in blocks}
    for i in range(FUZZ_MUTANTS):
        block = blocks[i // 2 % 2]
        monkeypatch.setattr(analysis, "_PLAIN_BLOCK", block)
        data = mutate(rng, bases[i % 2])
        path.write_bytes(data)
        loaded = load_both(path) is not None
        seen[block].add((analysis._plain_table(data) is not None, loaded))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # incomplete groups
            code = cli.main(["analyze", "--session", str(path), "--ols"])
        out, err = capsys.readouterr()
        if code == 0:
            assert loaded and err == ""
            json.loads(out, parse_constant=reject_constant)
        else:
            assert code == 1 and out == "", data
            assert err.startswith(f"error: {path}") and err.count("\n") == 1, err
    # plain and record-read files, each loaded and rejected, at either block size
    for outcomes in seen.values():
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


# ---------------------------------------------------------------------------
# golden analyze output
# ---------------------------------------------------------------------------

BLAS_FREE_TABLES = ("net_value_by_rank.csv", "truth_rates.csv", "welfare.csv")


def test_golden_analyze(tmp_path):
    out, tables = tmp_path / "analyze.json", tmp_path / "tables"
    with pytest.warns(UserWarning, match="^group 'g003' has 4 subjects"):
        code = cli.main(["analyze", "--session", str(GOLDEN / "session.csv"), "--ols",
                         "--tables", str(tables), "--out", str(out)])
    assert code == 0
    got = json.loads(out.read_text())
    want = json.loads((GOLDEN / "analyze.json").read_text())
    ols, ols_want = got.pop("net_value_ols"), want.pop("net_value_ols")
    assert (json.dumps(got, indent=2, sort_keys=True)
            == json.dumps(want, indent=2, sort_keys=True))
    for name in BLAS_FREE_TABLES:
        assert (tables / name).read_bytes() == (GOLDEN / name).read_bytes(), name
    # least squares runs on BLAS, whose last bits vary between builds
    assert ols["stars"] == ols_want["stars"]
    assert ols["columns"] == ols_want["columns"] and ols["nobs"] == ols_want["nobs"]
    for key in ("coef", "se", "t", "p"):
        assert ols[key] == pytest.approx(ols_want[key], rel=1e-12), key
    assert ols["r_squared"] == pytest.approx(ols_want["r_squared"], rel=1e-12)
