import math
import random
import re
from fractions import Fraction

import pytest

from rankmatch.analysis import (
    CSV_COLUMNS,
    GOOD_NAMES,
    PLANTED_PHASE1,
    TRUTH_SCOPES,
    SubjectRecord,
    analyze_session,
    classify_truthful,
    generate_session,
    load_session,
    load_session_table,
    net_value_design,
    nv_rank_summary,
    save_session,
    truth_rate_table,
    welfare_total,
)
from rankmatch.core import DataFormatError, RankList, cents
from rankmatch.mechanisms import MechanismKind
from rankmatch.stats import ols_fit

RHO = (287, 100, 50, 0, -69)


def make_record(report=(0, 1, 2, 3, 4), good=0, phase2=3111, **kw):
    base = dict(subject_id="s1", treatment=MechanismKind.RSD, group_id="g1",
                phase1_values=PLANTED_PHASE1, report=RankList(tuple(report)),
                good_received=good, phase2_value=phase2, phase1_order=1,
                risk_row=25, loss_row=25, crt=2, female=0, practice=1)
    base.update(kw)
    return SubjectRecord(**base)


def test_net_value_identity():
    rec = make_record(good=0, phase2=3111)
    assert rec.net_value == 3111 - 2824
    assert rec.rank_received == 1


def test_record_validation():
    for kw, message in ((dict(phase1_values=PLANTED_PHASE1[:4]),
                         "records cover exactly the five session goods"),
                        (dict(phase1_values=(-1,) + PLANTED_PHASE1[1:]),
                         "elicited values must be non-negative"),
                        (dict(phase2=-5), "elicited values must be non-negative"),
                        (dict(phase1_values=(2824.7,) + PLANTED_PHASE1[1:]),
                         "phase1_values cents must be a whole number, got 2824.7"),
                        (dict(phase1_values=PLANTED_PHASE1[:4] + (math.nan,)),
                         "phase1_values cents must be a whole number, got nan"),
                        (dict(phase2=3000.5),
                         "phase2_value cents must be a whole number, got 3000.5"),
                        (dict(phase2=math.inf),
                         "phase2_value cents must be a whole number, got inf"),
                        (dict(good=7), "good_received must appear in the report"),
                        (dict(phase1_order=0), "phase1_order must be in 1..20, got 0"),
                        (dict(phase1_order=21), "phase1_order must be in 1..20, got 21"),
                        (dict(phase1_order=1.5), "phase1_order must be in 1..20, got 1.5"),
                        (dict(crt=-1), "crt must be in 0..3, got -1"),
                        (dict(crt=4), "crt must be in 0..3, got 4"),
                        (dict(female=2), "female must be 0/1, got 2"),
                        (dict(female=0.5), "female must be 0/1, got 0.5"),
                        (dict(risk_row=0), "risk_row must be in 1..50, got 0"),
                        (dict(risk_row=51), "risk_row must be in 1..50, got 51"),
                        (dict(loss_row=-3), "loss_row must be in 1..50, got -3"),
                        (dict(loss_row=99), "loss_row must be in 1..50, got 99"),
                        (dict(practice=-1), "practice must be >= 0, got -1"),
                        (dict(practice=10**100), "practice must be below 10**100"),
                        (dict(subject_id=""), "subject_id must be non-empty"),
                        (dict(group_id=""), "group_id must be non-empty")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_record(**kw)
    for kw in (dict(phase1_order=20), dict(crt=0), dict(crt=3), dict(female=1),
               dict(risk_row=1), dict(loss_row=50), dict(practice=0), dict(practice=10**30),
               dict(practice=10**100 - 1), dict(phase2=3111.0)):
        make_record(**kw)


def test_classify_truthful_scopes():
    truthful = make_record()
    for scope in ("all", "top2", "top1"):
        assert classify_truthful(truthful, 0, scope)
    # bottle (good 1) above backpack (good 0): gap 568 > 200
    swapped = make_record(report=(1, 0, 2, 3, 4), good=1, phase2=2256)
    assert not classify_truthful(swapped, 200, "all")
    assert not classify_truthful(swapped, 200, "top1")
    assert classify_truthful(swapped, 568, "all")
    # mug (3) and pens (4) swapped: gap 120 <= 200
    tail_swap = make_record(report=(0, 1, 2, 4, 3))
    assert classify_truthful(tail_swap, 200, "all")
    assert not classify_truthful(tail_swap, 0, "all")
    assert classify_truthful(tail_swap, 0, "top2")


def pairwise_gap(rec, scope):
    """Oracle: the largest v[lo] - v[hi] over listed pairs hi above lo, with
    hi among the scope's first positions."""
    limit = {"all": 5, "top2": 2, "top1": 1}[scope]
    v = [rec.phase1_values[g] for g in rec.report.order]
    return max(v[lo] - v[hi] for hi in range(limit) for lo in range(hi + 1, 5))


def pairwise_truthful(rec, tol, scope):
    limit = {"all": 5, "top2": 2, "top1": 1}[scope]
    v = [rec.phase1_values[g] for g in rec.report.order]
    return all(v[lo] <= v[hi] + tol for hi in range(limit) for lo in range(hi + 1, 5))


def random_records(seed, n):
    """Per-subject Phase I values with frequent ties and random reports."""
    rng = random.Random(seed)
    recs = []
    for i in range(n):
        values = tuple(rng.choice((0, 100, 250, 537, 537, rng.randint(0, 3000)))
                       for _ in range(5))
        order = list(range(5))
        rng.shuffle(order)
        recs.append(make_record(
            report=order, good=rng.randrange(5), subject_id=f"s{i}",
            treatment=rng.choice(list(MechanismKind)), phase1_values=values))
    return recs


def test_truth_gaps_match_pairwise_oracle():
    recs = random_records(31, 400)
    for rec in recs:
        for scope in TRUTH_SCOPES:
            gap = pairwise_gap(rec, scope)
            assert getattr(rec.truth_gaps, scope) == gap
            for tol in {0, gap, gap - 1, gap + 1}:
                if tol >= 0:
                    assert (classify_truthful(rec, tol, scope)
                            == pairwise_truthful(rec, tol, scope)), (rec, tol, scope)
    tolerances = [0, 100, 537]
    table = truth_rate_table(recs, tolerances)
    for kind in MechanismKind:
        subset = [r for r in recs if r.treatment == kind]
        assert table[kind.value]["n"] == len(subset)
        for tol in tolerances:
            for scope in TRUTH_SCOPES:
                expected = sum(pairwise_truthful(r, tol, scope) for r in subset) / len(subset)
                assert table[kind.value]["rates"][f"tol_{tol}_{scope}"] == expected
    for tol in (0, 250):
        _, X, cols = net_value_design(recs, tol)
        j = cols.index("truthful")
        assert [row[j] for row in X] == [float(pairwise_truthful(r, tol, "all")) for r in recs]


def test_truth_checks_reject_bad_tolerance_and_scope():
    rec = make_record()
    with pytest.raises(ValueError, match=r"^tolerance must be >= 0, got -1$"):
        classify_truthful(rec, -1)
    with pytest.raises(ValueError, match=r"^scope must be one of \('all', 'top2', 'top1'\), "
                                         r"got 'top3'$"):
        classify_truthful(rec, 0, "top3")
    with pytest.raises(ValueError, match=r"^tolerance must be >= 0, got -5$"):
        truth_rate_table([rec], [0, -5])
    with pytest.raises(ValueError, match=r"^tolerance must be >= 0, got -5$"):
        net_value_design([rec], -5)


def test_truth_rates_monotone_in_tolerance_and_scope():
    recs = generate_session(30, RHO, 150.0, seed=4, misreport_rate=0.4)
    table = truth_rate_table(recs, [0, 100, 200, 600])["rsd"]["rates"]
    for scope in ("all", "top2", "top1"):
        rates = [table[f"tol_{t}_{scope}"] for t in (0, 100, 200, 600)]
        assert rates == sorted(rates)
    for t in (0, 100, 200, 600):
        assert table[f"tol_{t}_all"] <= table[f"tol_{t}_top2"] <= table[f"tol_{t}_top1"]


def test_misreport_rate_recovery():
    recs = generate_session(100, RHO, 0.0, seed=6, misreport_rate=0.25)
    observed = 1.0 - truth_rate_table(recs, [0])["rsd"]["rates"]["tol_0_all"]
    se = math.sqrt(0.25 * 0.75 / len(recs))
    assert abs(observed - 0.25) < 4 * se


def test_welfare_total_and_incomplete_group():
    recs = generate_session(4, RHO, 0.0, seed=2)
    expected = sum(PLANTED_PHASE1) + sum(RHO)
    assert welfare_total(recs) == {"rsd": float(expected)}
    with pytest.warns(UserWarning, match="excluded"):
        out = welfare_total(recs[:-1])  # last group now has 4 subjects
    assert out == {"rsd": float(expected)}


def test_zero_noise_recovers_planted_rho():
    recs = generate_session(20, RHO, 0.0, seed=101)
    summary = nv_rank_summary(recs)
    for j in range(5):
        count, mean, sd = summary[j + 1]
        assert count == 20
        assert float(mean) == RHO[j]
        assert sd == 0.0


def test_nv_sd_is_exact():
    """The sd is the square root of the exact sample variance, so it does not
    depend on how a Python version rounds a float sum; on this session the
    float loop over (v − mean)**2 misses it in the last digits."""
    recs = generate_session(10, RHO, 120.0, seed=1)
    summary = nv_rank_summary(recs)
    float_loop_differs = False
    for rank, (n, mean, sd) in summary.items():
        vals = [r.net_value for r in recs if r.rank_received == rank]
        assert n == len(vals) > 1 and mean == Fraction(sum(vals), n)
        assert sd == math.sqrt(sum((v - mean) ** 2 for v in vals) / (n - 1))
        m = float(mean)
        loop = math.sqrt(sum((v - m) ** 2 for v in vals) / (n - 1))
        assert loop == pytest.approx(sd, rel=1e-12)
        float_loop_differs |= loop != sd
    assert float_loop_differs


def test_session_round_trip(tmp_path):
    recs = generate_session(10, RHO, 120.0, seed=9, misreport_rate=0.2)
    path = tmp_path / "session.csv"
    save_session(recs, path)
    assert load_session(path) == recs


def test_session_round_trip_keeps_cents_beyond_float(tmp_path):
    big = (2**53 + 1, 10**17 + 1, 0, 5, 99)
    rec = make_record(phase1_values=big, phase2=2**53 + 1)
    path = tmp_path / "session.csv"
    save_session([rec], path)
    row = path.read_text().splitlines()[1].split(",")
    assert row[3:8] == ["90071992547409.93", "1000000000000000.01", "0.00", "0.05", "0.99"]
    assert row[14] == "90071992547409.93"
    assert load_session(path) == [rec]


def test_load_session_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("not,the,header\n")
    with pytest.raises(DataFormatError, match="header"):
        load_session(path)
    recs = generate_session(1, RHO, 0.0, seed=1)
    good = tmp_path / "good.csv"
    save_session(recs, good)
    lines = good.read_text().splitlines()
    lines[1] = lines[1].replace(",0,1,2,3,4,", ",0,0,2,3,4,", 1)
    bad = tmp_path / "badrow.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match=":2:"):
        load_session(bad)
    # money cells outside the plain d.dd form still go through Decimal
    recs = generate_session(1, RHO, 0.0, seed=1)
    for amount, err in (("1.005", "sub-cent money amount: '1.005'"),
                        ("12.3.4", "not a money amount: '12.3.4'"),
                        ("1.5", None)):
        recs_path = tmp_path / "money.csv"
        save_session(recs, recs_path)
        lines = recs_path.read_text().splitlines()
        row = lines[3].split(",")
        row[4] = amount  # v_bottle
        lines[3] = ",".join(row)
        recs_path.write_text("\n".join(lines) + "\n")
        if err is None:
            assert load_session(recs_path)[2].phase1_values[1] == 150
        else:
            with pytest.raises(DataFormatError) as info:
                load_session(recs_path)
            assert str(info.value) == f"{recs_path}:4: {err}"


def test_load_session_names_the_bad_integer_column(tmp_path):
    """A cell of an integer column that ``int`` rejects, as not a number or
    as more digits than it converts, fails with the file, row and column,
    from both readers."""
    path = tmp_path / "bad.csv"
    save_session(generate_session(1, RHO, 0.0, seed=1), path)
    lines = path.read_text().splitlines()
    for column in CSV_COLUMNS[8:14] + CSV_COLUMNS[15:]:  # every integer column
        for cell, message in (("x", "invalid literal for int() with base 10: 'x'"),
                              ("9" * 5000, "Exceeds the limit (4300 digits)")):
            row = lines[2].split(",")
            row[CSV_COLUMNS.index(column)] = cell
            path.write_text("\n".join(lines[:2] + [",".join(row)] + lines[3:]) + "\n")
            for load in (load_session, load_session_table):
                with pytest.raises(DataFormatError) as info:
                    load(path)
                assert str(info.value).startswith(f"{path}:3: {column}: {message}"), column


def test_analyze_session_shape():
    recs = generate_session(10, RHO, 50.0, seed=3, misreport_rate=0.1)
    doc = analyze_session(recs, [0, 200])
    assert doc["n_subjects"] == 50
    assert set(doc["net_value_by_rank"]) == {"1", "2", "3", "4", "5"}
    assert "rsd" in doc["truth_rates"] and "rsd" in doc["welfare_mean_cents"]


def test_design_recovers_planted_rank_effects():
    recs = generate_session(80, RHO, 100.0, seed=12, misreport_rate=0.3)
    y, X, cols = net_value_design(recs)
    res = ols_fit(y, X, cols)
    by = dict(zip(res.columns, res.coef))
    se = dict(zip(res.columns, res.se))
    for name, j in (("rank2", 1), ("rank3", 2), ("rank4", 3), ("rank5", 4)):
        planted = (RHO[j] - RHO[0]) / 100.0
        assert abs(by[name] - planted) < 3 * se[name]
