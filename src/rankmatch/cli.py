"""Command-line front end.

Subcommands: mechanism | expect | equilibrium | simulate | analyze |
elicit-decode | selftest.  All output is JSON with sorted keys (plus
optional CSV side files), byte-identical for identical inputs and seed.
Exit codes: 0 success, 1 data error, 2 usage error.

Each ``cmd_*`` imports the modules it runs, so ``mechanism`` and
``elicit-decode`` start without numpy.  ``_emit`` writes every report with
``_write_json``, which gives the text of ``json.dumps(doc, indent=2,
sort_keys=True, allow_nan=False)`` without json's generator-based indent
path.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .core import (DataFormatError, MarketInstance, RankList, SizeLimitError, cents,
                   reports_from_json_dict)

if TYPE_CHECKING:
    from .equilibrium import SymmetricInstance
    from .mechanisms import MechanismKind, TieBreakOrder

DEFAULT_SEED = 20240901


_JSON_TYPES = frozenset((str, float, int, dict, list, tuple, bool, type(None)))
_quote = json.encoder.encode_basestring_ascii


def _json_float(x: float) -> str:
    if -math.inf < x < math.inf:
        return float.__repr__(x)
    raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")


def _json_key(key) -> str:
    """A dict key as json.dumps coerces it, before quoting."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _json_float(key)
    if key is None or key is True or key is False:
        return "null" if key is None else "true" if key else "false"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _write_json(obj, pad: str, out: list) -> None:
    """Append ``obj`` to ``out`` as ``json.dumps(obj, indent=2,
    sort_keys=True, allow_nan=False)`` writes it at indentation ``pad``.
    Exact types are tested first; a subclass (np.float64, IntEnum, a str
    enum) is written as the base json.dumps' isinstance order finds.
    Reports are trees, so there is no circular-reference check."""
    kind = type(obj)
    if kind not in _JSON_TYPES:
        kind = next((base for base in (str, int, float, list, tuple, dict)
                     if isinstance(obj, base)), None)
        if kind is None:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if kind is str:
        out.append(_quote(obj))
    elif kind is float:
        out.append(_json_float(obj))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        inner, sep = pad + "  ", "{"
        for key, value in sorted(obj.items()):
            out.append(f"{sep}\n{inner}{_quote(key if type(key) is str else _json_key(key))}: ")
            _write_json(value, inner, out)
            sep = ","
        out.append(f"\n{pad}}}")
    elif kind is list or kind is tuple:
        if not obj:
            out.append("[]")
            return
        inner, sep = pad + "  ", "["
        for value in obj:
            out.append(f"{sep}\n{inner}")
            _write_json(value, inner, out)
            sep = ","
        out.append(f"\n{pad}]")
    else:
        out.append("null" if obj is None else "true" if obj else "false")


def _emit(doc: dict, out=None) -> None:
    pieces: list[str] = []
    try:
        _write_json(doc, "", pieces)
    except ValueError as exc:  # NaN or infinity has no JSON form
        raise DataFormatError(f"cannot write the report as JSON: {exc}") from exc
    pieces.append("\n")
    text = "".join(pieces)
    if out is not None:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path, parse):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(json.load(fh))
    except (ValueError, RecursionError) as exc:
        # bad text, JSON or values, or JSON nested past the recursion limit;
        # an OSError names the path itself
        raise DataFormatError(f"{path}: {exc}") from exc


def _check_fit(reports, reports_path, market, market_path) -> None:
    """A data error naming both files unless there is one report for each of
    the market's n agents (the reader makes each rank n goods)."""
    if len(reports) != market.n:
        raise DataFormatError(f"{reports_path}: {len(reports)} reports do not fit the "
                              f"n = {market.n} market of {market_path}")


def _parse_order(text: str) -> TieBreakOrder:
    from .mechanisms import TieBreakOrder

    try:
        return TieBreakOrder(tuple(int(x) for x in text.split(",")))
    except ValueError as exc:
        raise DataFormatError(f"bad --order {text!r}: {exc}") from exc


def _frac(f) -> dict:
    return {"exact": str(f), "cents": float(f)}


def cmd_mechanism(args) -> int:
    from .mechanisms import MechanismKind, run_mechanism

    reports = _load_json(args.reports, reports_from_json_dict)
    if args.market is not None:
        market = _load_json(args.market, MarketInstance.from_json_dict)
        _check_fit(reports, args.reports, market, args.market)
    order = _parse_order(args.order)
    if len(order) != len(reports):
        raise DataFormatError(f"--order {args.order!r} orders {len(order)} agents, but "
                              f"{args.reports} has {len(reports)} reports")
    matching = run_mechanism(MechanismKind(args.kind), reports, order)
    doc = {
        "kind": args.kind,
        "order": list(order.order),
        "assignment": list(matching.assignment),
        "received_rank": [reports[i].rank_of(matching.good_of(i))
                          for i in range(len(reports))],
    }
    if args.market is not None:
        from .core import build_outcome
        out = build_outcome(matching, reports, market)
        doc["utility_cents"] = list(out.utility)
        doc["welfare_total_cents"] = out.welfare_total
        doc["rho_total_cents"] = out.rho_total
        doc["goods"] = [market.goods[matching.good_of(i)].label
                        for i in range(len(reports))]
    _emit(doc, args.out)
    return 0


def cmd_expect(args) -> int:
    from .mechanisms import MechanismKind, exact_expected_utilities

    reports = _load_json(args.reports, reports_from_json_dict)
    market = _load_json(args.market, MarketInstance.from_json_dict)
    _check_fit(reports, args.reports, market, args.market)
    try:
        eus = exact_expected_utilities(MechanismKind(args.kind), reports, market)
    except SizeLimitError as exc:  # the market is too large to enumerate
        raise SizeLimitError(f"{args.market}: {exc}") from exc
    _emit({"kind": args.kind, "expected_utility": [_frac(u) for u in eus]}, args.out)
    return 0


def _equilibrium_report(kind: MechanismKind, inst: SymmetricInstance,
                        brute: bool) -> dict:
    from . import equilibrium

    doc: dict = {}
    sol = equilibrium.solve_equilibrium(kind, inst)
    doc["n1_set"] = list(sol.n1_candidates)
    doc["corner_all_top"] = sol.corner_all_top
    if sol.range_lo is not None:
        doc["range"] = [_frac(sol.range_lo), _frac(sol.range_hi)]
    if brute:
        doc["brute_force_n1_set"] = sorted(
            equilibrium.brute_force_equilibria(kind, inst))
    welfare = {}
    for n1 in doc["n1_set"]:
        rho_c, total = equilibrium.equilibrium_welfare(kind, inst, n1)
        welfare[str(n1)] = {"rho": _frac(rho_c), "total": _frac(total)}
    doc["welfare"] = welfare
    return doc


def cmd_equilibrium(args) -> int:
    from .equilibrium import SymmetricInstance
    from .mechanisms import MechanismKind

    inst = _load_json(args.instance, SymmetricInstance.from_json_dict)
    doc: dict = {"n": inst.n}
    kinds = list(MechanismKind) if args.kind == "both" else [MechanismKind(args.kind)]
    try:
        for kind in kinds:
            doc[kind.value] = _equilibrium_report(kind, inst, args.brute_force)
    except SizeLimitError as exc:  # the instance is too large to enumerate
        raise SizeLimitError(f"{args.instance}: {exc}") from exc
    _emit(doc, args.out)
    return 0


def cmd_simulate(args) -> int:
    from . import simulation
    from .equilibrium import SymmetricInstance
    from .mechanisms import MechanismKind

    def parse_market(doc):
        market = (MarketInstance if isinstance(doc, dict) and "values" in doc
                  else SymmetricInstance).from_json_dict(doc)
        if args.structured_n1 is None:
            return market, None
        # a structured profile needs the symmetric form and 0 <= K <= n; a
        # market without them is a data error in this file
        inst = SymmetricInstance.of(market)
        return inst, simulation.StrategyProfile.structured_n1(inst.n, args.structured_n1)

    market, profile = _load_json(args.market, parse_market)
    if (args.profile_reports is None) == (args.structured_n1 is None):
        raise DataFormatError(
            "give exactly one of --profile-reports / --structured-n1")
    if args.threads < 1:
        raise DataFormatError(f"threads must be >= 1, got {args.threads}")
    if args.profile_reports is not None:
        reports = _load_json(args.profile_reports, reports_from_json_dict)
        _check_fit(reports, args.profile_reports, market, args.market)
        profile = simulation.StrategyProfile.fixed_reports(reports)
    if args.csv is not None:
        report = simulation.write_replication_csv(MechanismKind(args.kind), market,
                                                  profile, args.reps, args.seed, args.csv)
    else:
        report = simulation.simulate(MechanismKind(args.kind), market, profile,
                                     args.reps, args.seed, threads=args.threads)
    _emit(report.to_json_dict(), args.out)
    return 0


def cmd_analyze(args) -> int:
    from . import analysis, stats

    tolerance = cents(args.tolerance)
    if tolerance < 0:
        raise DataFormatError(f"tolerance must be >= 0, got {tolerance}")
    table = analysis.load_session_table(args.session)
    doc = analysis.analyze_session(table, sorted({0, tolerance}))
    if args.ols and len(table):
        y, X, cols = analysis.net_value_design(table, tolerance)
        try:
            doc["net_value_ols"] = stats.ols_fit(y, X, cols,
                                                 robust=args.robust).to_json_dict()
        except ValueError as exc:
            doc["net_value_ols"] = {"error": str(exc)}
    if args.tables is not None:
        _write_tables(doc, args.tables)
    _emit(doc, args.out)
    return 0


def _write_tables(doc: dict, directory: str) -> None:
    """Emit plain-CSV views of the analysis report for external plotting,
    removing an earlier run's ``net_value_ols.csv`` when this one has none."""
    import csv
    import os

    os.makedirs(directory, exist_ok=True)

    def table(name, header, rows):
        with open(os.path.join(directory, name), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)

    table("net_value_by_rank.csv", ["rank", "n", "mean_cents", "sd_cents"],
          [[rank, d["n"], d["mean_cents"], d["sd_cents"]]
           for rank, d in sorted(doc["net_value_by_rank"].items())])
    table("truth_rates.csv", ["treatment", "classification", "rate"],
          [[treat, key, rate]
           for treat, block in sorted(doc["truth_rates"].items())
           for key, rate in sorted(block["rates"].items())])
    table("welfare.csv", ["treatment", "mean_cents"],
          sorted(doc["welfare_mean_cents"].items()))
    ols = doc.get("net_value_ols")
    if ols and "error" not in ols:
        table("net_value_ols.csv", ["term", "coef", "se", "t", "p", "stars"],
              [[c, ols["coef"][j], ols["se"][j], ols["t"][j], ols["p"][j],
                ols["stars"][j]] for j, c in enumerate(ols["columns"])])
    else:
        try:
            os.remove(os.path.join(directory, "net_value_ols.csv"))
        except FileNotFoundError:
            pass


def cmd_elicit_decode(args) -> int:
    from . import elicitation

    resp = elicitation.MplResponse(args.screen1, args.screen2)
    value = elicitation.decode_mpl(resp)
    _emit({"screen1_row": args.screen1, "screen2_row": args.screen2,
           "value_cents": value, "value_dollars": f"{value / 100:.2f}"}, args.out)
    return 0


def cmd_selftest(args) -> int:
    from . import elicitation, stats
    from .mechanisms import MechanismKind, TieBreakOrder, exact_expected_utilities, run_mechanism

    checks: list[tuple[str, bool]] = []

    # small-market welfare: RSD truthful vs Boston equilibrium reports
    market = MarketInstance.from_cents([[100, 80, 0]] * 3, [10, 0, 0])
    truthful = [RankList((0, 1, 2))] * 3
    eus = exact_expected_utilities(MechanismKind.RSD, truthful, market)
    checks.append(("rsd truthful welfare 190 cents", sum(eus) == Fraction(190)))
    boston_eq = [RankList((0, 1, 2)), RankList((0, 1, 2)), RankList((1, 2, 0))]
    eub = exact_expected_utilities(MechanismKind.BOSTON, boston_eq, market)
    checks.append(("boston equilibrium welfare 200 cents", sum(eub) == Fraction(200)))

    # four-agent worked allocations (goods 0..3 = pizza, chips, soda, pretzels)
    rsd_reports = [RankList((1, 0, 2, 3)), RankList((0, 1, 2, 3)),
                   RankList((0, 3, 1, 2)), RankList((3, 2, 1, 0))]
    m = run_mechanism(MechanismKind.RSD, rsd_reports, TieBreakOrder((1, 2, 3, 0)))
    checks.append(("rsd worked example", m.assignment == (1, 0, 3, 2)))
    boston_reports = [RankList((0, 3, 1, 2)), RankList((0, 1, 2, 3)),
                      RankList((0, 1, 3, 2)), RankList((3, 2, 1, 0))]
    m = run_mechanism(MechanismKind.BOSTON, boston_reports, TieBreakOrder((1, 0, 2, 3)))
    checks.append(("boston worked example", m.assignment == (2, 0, 1, 3)))

    checks.append(("mpl decode (16, 28) -> 1656",
                   elicitation.decode_mpl(elicitation.MplResponse(16, 28)) == 1656))
    stat, p = stats.jonckheere_terpstra([[5, 4], [3, 2], [1]], "decreasing")
    checks.append(("jt exact p = 1/30", abs(p - 1 / 30) < 1e-12))
    stat, p = stats.wilcoxon_ranksum([1, 2], [3, 4])
    checks.append(("wilcoxon exact p = 1/3", abs(p - 1 / 3) < 1e-12))

    ok = all(passed for _, passed in checks)
    for name, passed in checks:
        sys.stdout.write(f"{'PASS' if passed else 'FAIL'}  {name}\n")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankmatch",
        description="Matching mechanisms with rankings-dependent utility")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", help="write JSON here instead of stdout")

    p = sub.add_parser("mechanism", help="run one mechanism on fixed reports")
    p.add_argument("--kind", choices=["rsd", "boston"], required=True)
    p.add_argument("--reports", required=True, help="reports JSON file")
    p.add_argument("--order", required=True, help="tie-break order, e.g. 1,0,2,3")
    p.add_argument("--market", help="optional market JSON for utilities")
    add_out(p)
    p.set_defaults(fn=cmd_mechanism)

    p = sub.add_parser("expect", help="exact expected utilities over all orders")
    p.add_argument("--kind", choices=["rsd", "boston"], required=True)
    p.add_argument("--reports", required=True)
    p.add_argument("--market", required=True)
    add_out(p)
    p.set_defaults(fn=cmd_expect)

    p = sub.add_parser("equilibrium", help="solve the symmetric-environment equilibrium")
    p.add_argument("--instance", required=True, help="symmetric instance JSON")
    p.add_argument("--kind", choices=["rsd", "boston", "both"], default="both")
    p.add_argument("--brute-force", action="store_true",
                   help="also report the enumeration-based equilibrium set")
    add_out(p)
    p.set_defaults(fn=cmd_equilibrium)

    p = sub.add_parser("simulate", help="seeded Monte Carlo simulation")
    p.add_argument("--kind", choices=["rsd", "boston"], required=True)
    p.add_argument("--market", required=True,
                   help="market JSON or symmetric instance JSON")
    p.add_argument("--profile-reports", help="fixed reports JSON")
    p.add_argument("--structured-n1", type=int,
                   help="structured profile: first K agents rank x1 first")
    p.add_argument("--reps", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--csv", help="also write per-replication records here")
    add_out(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("analyze", help="session CSV -> outcome measures")
    p.add_argument("--session", required=True)
    p.add_argument("--tolerance", default="2.00",
                   help="truth-telling tolerance in dollars (default 2.00)")
    p.add_argument("--ols", action="store_true", help="include the Net Value regression")
    p.add_argument("--robust", action="store_true",
                   help="heteroskedasticity-robust standard errors")
    p.add_argument("--tables", metavar="DIR",
                   help="also write plain-CSV tables here for external plotting")
    add_out(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("elicit-decode", help="decode a two-screen MPL response")
    p.add_argument("--screen1", type=int, required=True)
    p.add_argument("--screen2", type=int, required=True)
    add_out(p)
    p.set_defaults(fn=cmd_elicit_decode)

    p = sub.add_parser("selftest", help="run built-in golden checks")
    p.set_defaults(fn=cmd_selftest)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; parse_args only reads it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:  # DataFormatError is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
