import json
import re
from decimal import Context, Decimal, InvalidOperation
from fractions import Fraction

import pytest

from rankmatch.core import (
    DataFormatError,
    MarketInstance,
    Matching,
    RankList,
    RhoSchedule,
    ValueMatrix,
    build_outcome,
    cents,
    dollars,
    received_rank,
    reports_from_json_dict,
    reports_to_json_dict,
    utility,
)


def test_cents_parsing():
    assert cents("16.56") == 1656
    assert cents(2) == 200
    assert cents("0.02") == 2
    assert dollars(1656) == 16.56
    with pytest.raises(ValueError):
        cents("1.005")
    with pytest.raises(ValueError):
        cents("abc")
    for bad in ("inf", "-Infinity", "nan", float("inf"), float("nan")):
        with pytest.raises(ValueError, match="not a money amount"):
            cents(bad)
    # exact past the 28 digits of Decimal's default context
    assert cents("12345678901234567890123456789.01") == 1234567890123456789012345678901
    assert cents("9" * 58 + ".99") == 10 ** 60 - 1
    with pytest.raises(ValueError, match="sub-cent money amount"):
        cents("1" * 60 + ".001")
    # below 10**100 cents, and no exponent scales past it
    assert cents("9" * 98 + ".99") == 10 ** 100 - 1
    assert cents("0e999999999") == 0
    for bad in ("1e999999", "-1e999999", "1e98", "1" + "0" * 98 + ".00", 1e300):
        with pytest.raises(ValueError, match="not a money amount"):
            cents(bad)


def decimal_cents(amount):
    """Reference parse through Decimal alone, scaled without rounding: the
    value, or the error text."""
    try:
        d = Decimal(str(amount)).scaleb(2, Context(prec=100))
    except InvalidOperation:
        return f"not a money amount: {amount!r}"
    if not d.is_finite():
        return f"not a money amount: {amount!r}"
    if d != d.to_integral_value():
        return f"sub-cent money amount: {amount!r}"
    return int(d)


def test_cents_fast_path_equals_decimal_path():
    cases = ["0.00", "-0.00", "-0.50", "007.50", "16.56", "1.5", "1.005", " 1.00",
             "+1.00", "1e2", "1_000.00", "\u0661.\u0660\u0660", "1.", ".50", "inf",
             "nan", "", "1.00\n", "90071992547409.93", "1000000000000000.01",
             "12345678901234567890123456.78", "123456789012345678901234567.89",
             2, 16.56, Decimal("1.10")]
    for amount in cases:
        try:
            got = cents(amount)
        except ValueError as exc:
            got = str(exc)
        assert got == decimal_cents(amount), amount
        assert type(got) in (int, str)
    assert cents("-0.50") == -50 and cents("007.50") == 750


def test_rank_list():
    r = RankList((2, 0, 1))
    assert r.rank_of(2) == 1
    assert r.rank_of(0) == 2
    assert r.rank_of(1) == 3
    with pytest.raises(ValueError):
        RankList((0, 0, 1))


def test_rho_schedule():
    rho = RhoSchedule((10, 0, -5))
    assert rho.at(1) == 10 and rho.at(3) == -5
    with pytest.raises(ValueError):
        RhoSchedule((0, 10))
    with pytest.raises(ValueError):
        rho.at(4)


def test_amounts_in_cents_are_whole_numbers():
    # integral floats are read as ints; the JSON reader gives 1e999 as inf
    rho = RhoSchedule((10.0, 0, -5.0))
    assert rho.values == (10, 0, -5) and all(type(v) is int for v in rho.values)
    assert ValueMatrix(((2824.0, 7), (0, 1e15))).rows == ((2824, 7), (0, 10**15))
    assert RhoSchedule((10**100 - 1, 1 - 10**100)).values == (10**100 - 1, 1 - 10**100)
    bad = (2824.7, 120.5, -0.5, float("inf"), float("-inf"), float("nan"), None, True,
           "2824", Fraction(1, 2), [1])
    for amount in bad:
        message = "rho cents must be a whole number, got " + re.escape(repr(amount))
        with pytest.raises(ValueError, match=message):
            RhoSchedule((amount, -10))
        with pytest.raises(ValueError, match="value cents must be a whole number"):
            ValueMatrix(((amount, 0), (0, 0)))
    for amount in (10**100, -10**100, 1e100, 1e300):
        with pytest.raises(ValueError, match=r"must be below 10\*\*100"):
            RhoSchedule((amount,))
        with pytest.raises(ValueError, match=r"must be below 10\*\*100"):
            MarketInstance.from_json_dict({"values": [[amount]], "rho": [0]})
    with pytest.raises(DataFormatError, match="market JSON must be an object"):
        MarketInstance.from_json_dict([[1]])


def test_market_round_trip():
    m = MarketInstance.from_cents([[100, 70, 0]] * 3, [10, 0, 0], ["x", "y", "z"])
    m2 = MarketInstance.from_json_dict(json.loads(json.dumps(m.to_json_dict())))
    assert m2 == m
    with pytest.raises(DataFormatError):
        MarketInstance.from_json_dict({"values": [[1]]})
    with pytest.raises(ValueError, match="need 3 goods labels, got 2"):
        MarketInstance.from_json_dict({"values": [[100, 70, 0]] * 3, "rho": [10, 0, 0],
                                       "goods": ["x", "y"]})
    for goods in (5, "ab", ["x", 2]):
        with pytest.raises(DataFormatError, match="'goods' must be a list of strings"):
            MarketInstance.from_json_dict({"values": [[100, 70]] * 2, "rho": [10, 0],
                                           "goods": goods})


def test_single_good_market():
    m = MarketInstance.from_cents([[50]], [5])
    assert m.n == 1


def test_outcome():
    m = MarketInstance.from_cents([[100, 70, 0]] * 3, [10, 0, 0])
    reports = [RankList((0, 1, 2)), RankList((1, 0, 2)), RankList((2, 1, 0))]
    matching = Matching((0, 1, 2))
    out = build_outcome(matching, reports, m)
    assert out.received_rank == (1, 1, 1)
    assert out.utility == (110, 80, 10)
    assert out.welfare_total == 200 and out.rho_total == 30
    assert received_rank(matching, reports, 1) == 1
    assert utility(70, 2, m.rho) == 70


def test_reports_json():
    doc = {"reports": [[0, 1], [1, 0]]}
    reports = reports_from_json_dict(doc)
    assert reports_to_json_dict(reports) == doc
    with pytest.raises(DataFormatError):
        reports_from_json_dict({})
