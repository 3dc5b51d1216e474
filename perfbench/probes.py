"""Layer probes: each module's public functions timed call by call.

The traced run of every workload ends with these probes, so each per-layer
metric is measured on every workload with the same calls; the inputs come
from the workload seed.  Timings run untraced.  The engine-call and block
counts come from a separate run under a ``Tracer`` and a counting wrapper
around ``prng.generator``.
"""
from __future__ import annotations

import random
import statistics
import time
import warnings
from pathlib import Path

from rankmatch import analysis, elicitation, equilibrium, mechanisms, prng, simulation, stats
from rankmatch.core import build_outcome
from rankmatch.mechanisms import MechanismKind, TieBreakOrder

import tracing
import workloads as wl

ENGINE_CALLS = 1000
ENGINE_SIZES = (4, 8, 10)
REPEATS = 3
PROBE_STRUCTURED_REPS = 200_000
PROBE_FIXED_REPS = {4: 20_000, 10: 5_000}
PROBE_CSV_REPS = 2_000
PROBE_SESSION_GROUPS = 300
PROBE_OLS_GROUPS = 1_000
PROBE_RESPONSES = 5_000


def _each_ns(fn, args_list) -> list[int]:
    clock = time.perf_counter_ns
    out = []
    for args in args_list:
        t0 = clock()
        fn(*args)
        out.append(clock() - t0)
    return out


def _pct(samples: list, q: int) -> float:
    """q-th percentile (of 100) by the inclusive method."""
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def _median_s(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _count_engine_calls_and_blocks(fn) -> tuple[int, int]:
    """Engine calls (from spans) and Philox streams opened, one per block."""
    tracer = tracing.Tracer()
    generator = prng.generator
    blocks = 0

    def counting_generator(*args):
        nonlocal blocks
        blocks += 1
        return generator(*args)

    tracer.install()
    prng.generator = counting_generator
    try:
        fn()
    finally:
        prng.generator = generator
        tracer.uninstall()
    return sum(s[tracing.NAME] in tracing.ENGINE_SPANS for s in tracer.spans), blocks


def probe_engines(rng: random.Random) -> dict:
    m = {}
    for n in ENGINE_SIZES:
        market, reports = wl.random_market(rng, n)
        orders = [TieBreakOrder(tuple(rng.sample(range(n), n))) for _ in range(ENGINE_CALLS)]
        for kind, fn in (("rsd", mechanisms.run_rsd), ("boston", mechanisms.run_boston)):
            ns = _each_ns(fn, [(reports, o) for o in orders])
            m[f"mechanisms.run_{kind}_us.n{n}.p50"] = _pct(ns, 50) / 1e3
            m[f"mechanisms.run_{kind}_us.n{n}.p90"] = _pct(ns, 90) / 1e3
        if n == 10:
            matchings = [mechanisms.run_rsd(reports, o) for o in orders]
            ns = _each_ns(build_outcome, [(mt, reports, market) for mt in matchings])
            m["core.build_outcome_us.n10"] = statistics.median(ns) / 1e3
            perms = [o.order for o in orders]
            m["core.tiebreak_order_us.n10"] = statistics.median(
                _each_ns(TieBreakOrder, [(p,) for p in perms])) / 1e3
            m["prng.draw_order_us.n10"] = statistics.median(
                _each_ns(prng.draw_order, [(10, rng.randrange(2**32), s)
                                           for s in range(ENGINE_CALLS)])) / 1e3
    market, reports = wl.random_market(rng, wl.EXPECT_N)
    for kind in wl.KINDS:
        m[f"mechanisms.exact_eu_s.{kind.value}"] = _median_s(
            lambda: mechanisms.exact_expected_utilities(kind, reports, market), 1)
    return m


def probe_simulation(rng: random.Random, seed: int, work: Path) -> dict:
    m = {}
    kind = MechanismKind.RSD
    struct = simulation.StrategyProfile.structured_n1(wl.E1.n, wl.E1_N1)
    t1 = _median_s(lambda: simulation.simulate(kind, wl.E1, struct,
                                               PROBE_STRUCTURED_REPS, seed, threads=1))
    t2 = _median_s(lambda: simulation.simulate(kind, wl.E1, struct,
                                               PROBE_STRUCTURED_REPS, seed, threads=2))
    m["simulation.simulate_s.structured_t1"] = t1
    m["simulation.simulate_s.structured_t2"] = t2
    m["simulation.thread_speedup"] = t1 / t2
    blocks = 0
    for n, reps in PROBE_FIXED_REPS.items():
        market, reports = wl.random_market(rng, n)
        profile = simulation.StrategyProfile.fixed_reports(reports)

        def run(market=market, profile=profile, reps=reps):
            simulation.simulate(kind, market, profile, reps, seed)
        m[f"simulation.simulate_s.fixed_n{n}"] = _median_s(run, 1)
        calls, run_blocks = _count_engine_calls_and_blocks(run)
        m[f"simulation.engine_calls_per_rep.n{n}"] = calls / reps
        blocks += run_blocks
        if n == 10:
            path = work / "probe_replications.csv"
            m["simulation.csv_s"] = _median_s(
                lambda: simulation.write_replication_csv(kind, market, profile,
                                                         PROBE_CSV_REPS, seed, path), 1)
    m["simulation.blocks"] = blocks
    return m


def probe_equilibrium(rng: random.Random) -> dict:
    m = {}
    instances = {n: [wl.random_symmetric(rng, n) for _ in range(REPEATS)]
                 for n in wl.EQ_SIZES}
    flat = [(k, inst) for insts in instances.values() for inst in insts for k in wl.KINDS]
    m["equilibrium.solve_us"] = statistics.median(
        _each_ns(equilibrium.solve_equilibrium, flat)) / 1e3
    m["equilibrium.welfare_us"] = statistics.median(
        _each_ns(equilibrium.equilibrium_welfare, [(k, i, 1) for k, i in flat])) / 1e3
    for n, insts in instances.items():
        ms = [sum(_each_ns(equilibrium.brute_force_equilibria, [(k, i) for k in wl.KINDS]))
              for i in insts]
        m[f"equilibrium.brute_force_ms.n{n}"] = statistics.median(ms) / 1e6
    ms = [sum(_each_ns(equilibrium.check_truthtelling_equilibrium, [(k, i) for k in wl.KINDS]))
          for i in instances[6]]
    m["equilibrium.truthtelling_ms"] = statistics.median(ms) / 1e6
    return m


def probe_stats_analysis(rng: random.Random, seed: int, work: Path) -> dict:
    m = {}
    groups = [[rng.randint(0, 20) for _ in range(4)] for _ in range(3)]
    m["stats.jt_exact_ms.3x4"] = 1e3 * _median_s(
        lambda: stats.jonckheere_terpstra(groups, "decreasing", method="exact"), 1)
    designs = [([rng.randint(0, 30) for _ in range(6)], [rng.randint(0, 30) for _ in range(6)])
               for _ in range(5)]
    m["stats.wilcoxon_exact_ms.n12"] = statistics.median(
        _each_ns(stats.wilcoxon_ranksum, [(a, b, "exact") for a, b in designs])) / 1e6
    big = [[rng.gauss(-10 * g, 30) for _ in range(200)] for g in range(5)]
    m["stats.jt_approx_ms"] = 1e3 * _median_s(
        lambda: stats.jonckheere_terpstra(big, "decreasing", method="approx"))
    a = [rng.gauss(0, 1) for _ in range(5000)]
    b = [rng.gauss(0.1, 1) for _ in range(5000)]
    m["stats.wilcoxon_approx_ms"] = 1e3 * _median_s(
        lambda: stats.wilcoxon_ranksum(a, b, method="approx"))

    t0 = time.perf_counter()
    records = wl.session_records(seed, PROBE_SESSION_GROUPS)
    m["analysis.generate_session_s"] = time.perf_counter() - t0
    path = work / "probe_session.csv"
    analysis.save_session(records, path)
    m["analysis.load_session_s"] = _median_s(lambda: analysis.load_session(path))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        m["analysis.analyze_session_s"] = _median_s(
            lambda: analysis.analyze_session(records, (0, 200)), 1)
    m["analysis.groups_excluded"] = sum("excluded from welfare" in str(w.message)
                                        for w in caught)
    m["analysis.net_value_design_s"] = _median_s(
        lambda: analysis.net_value_design(records, 200))
    y, X, cols = analysis.net_value_design(wl.session_records(seed, PROBE_OLS_GROUPS), 200)
    for name, robust in (("classical", False), ("hc1", True)):
        m[f"stats.ols_ms.{name}"] = 1e3 * _median_s(
            lambda: stats.ols_fit(y, X, cols, robust=robust))

    responses = work / "probe_responses.csv"
    wl.write_responses(responses, wl.random_responses(rng, PROBE_RESPONSES))
    m["elicitation.load_responses_s"] = _median_s(
        lambda: elicitation.load_responses(responses))
    return m


def run_probes(seed: int, work: Path) -> dict:
    rng = random.Random(seed)
    m = {}
    m.update(probe_engines(rng))
    m.update(probe_simulation(rng, seed, work))
    m.update(probe_equilibrium(rng))
    m.update(probe_stats_analysis(rng, seed, work))
    return m
