"""rankmatch benchmark: run one workload in this process and report metrics.

    python3 perfbench/run.py --workload {simulate,exact,session} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a source checkout; the package is imported from
``src/`` next to this directory.  ``--trace 0`` times untraced passes over the
workload's jobs and prints the end-to-end metrics.  Before every pass it times
a fixed reference loop, and ``wall_s`` scales the pass by the loop's
reference time over its measured time, so that the host's minute-scale
speed swings cancel out of the figure.  ``--trace 1`` alternates
untraced and traced passes, then runs the layer probes, and prints the
per-layer metrics.  Both print one line per metric, then a final JSON line
``{"correct", "attempted", "failed", "metrics"}``, and write a results file
(plus, traced, the spans of the last traced pass) under ``perfbench/out/``.
See README.md in this directory.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("simulate", "exact", "session")
SETUP_SPAWNS = 5
IMPORTTIME_SPAWNS = 3
SPAWN_TIMEOUT_S = 60
# The reference loop's time on this benchmark's baseline machine in a calm
# spell (2 shared vCPUs of an Intel Xeon), so ``wall_s`` reads in seconds.
REFERENCE_LOOP_S = 0.008
# Idle time before the reference loop: longer than OpenBLAS worker threads
# spin after a BLAS call (about 0.1 s), which would slow the loop.
REFERENCE_SETTLE_S = 0.2
REFERENCE_REPEATS = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; "trace.*" and the cli metrics come from the
# workload's own passes, the rest from probes.py
PER_LAYER = {
    "cli.import_s": "s", "cli.import.scipy_s": "s", "cli.import.numpy_s": "s",
    "cli.self_s": "s", "trace.overhead_s": "s", "trace.span_coverage": "ratio",
    "mechanisms.engine_calls": "count",
    "core.build_outcome_us.n10": "us", "core.tiebreak_order_us.n10": "us",
    "prng.draw_order_us.n10": "us",
    **{f"mechanisms.run_{k}_us.n{n}.{q}": "us" for k in ("rsd", "boston")
       for n in (4, 8, 10) for q in ("p50", "p90")},
    "mechanisms.exact_eu_s.rsd": "s", "mechanisms.exact_eu_s.boston": "s",
    "simulation.simulate_s.structured_t1": "s", "simulation.simulate_s.structured_t2": "s",
    "simulation.thread_speedup": "ratio",
    "simulation.simulate_s.fixed_n4": "s", "simulation.simulate_s.fixed_n10": "s",
    "simulation.engine_calls_per_rep.n4": "ratio", "simulation.engine_calls_per_rep.n10": "ratio",
    "simulation.blocks": "count", "simulation.csv_s": "s",
    "equilibrium.solve_us": "us", "equilibrium.welfare_us": "us",
    **{f"equilibrium.brute_force_ms.n{n}": "ms" for n in (3, 4, 5, 6)},
    "equilibrium.truthtelling_ms": "ms",
    "stats.jt_exact_ms.3x4": "ms", "stats.wilcoxon_exact_ms.n12": "ms",
    "stats.jt_approx_ms": "ms", "stats.wilcoxon_approx_ms": "ms",
    "stats.ols_ms.classical": "ms", "stats.ols_ms.hc1": "ms",
    "analysis.generate_session_s": "s", "analysis.load_session_s": "s",
    "analysis.analyze_session_s": "s", "analysis.net_value_design_s": "s",
    "analysis.groups_excluded": "count",
    "elicitation.load_responses_s": "s",
}


class SetupError(Exception):
    """The checkout cannot be benchmarked (missing sources, failed import)."""


def spawn_import(extra: tuple = ()) -> tuple[float, str]:
    """Seconds for a fresh interpreter to import rankmatch.cli, and its stderr."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *extra, "-c", "import rankmatch.cli"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=SPAWN_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SetupError(f"import rankmatch.cli failed:\n{proc.stderr}")
    return elapsed, proc.stderr


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)$")


def parse_importtime(text: str) -> dict:
    """cli.import_s is the cumulative time of rankmatch.cli; the numpy and
    scipy figures sum the self time of every module of that package."""
    total = scipy = numpy = 0
    for line in text.splitlines():
        match = _IMPORTTIME.match(line)
        if not match:
            continue
        own, cumulative, name = match.groups()
        root = name.split(".", 1)[0]
        if name == "rankmatch.cli":
            total = int(cumulative)
        elif root == "scipy":
            scipy += int(own)
        elif root == "numpy":
            numpy += int(own)
    if not total:
        raise SetupError("no rankmatch.cli line in -X importtime output")
    return {"cli.import_s": total / 1e6, "cli.import.scipy_s": scipy / 1e6,
            "cli.import.numpy_s": numpy / 1e6}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def record(self, job: str, messages: list) -> None:
        self.attempted += 1
        if messages:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append({"job": job, "messages": messages[:5]})


def reference_loop() -> float:
    """Seconds for a fixed piece of work that no change to the package can
    speed up: a pure-Python dict loop (the interpreter-bound side of the
    workloads) and a numpy sort (the array side)."""
    import numpy as np

    source, buffer = _reference_arrays()
    t0 = time.perf_counter()
    counts: dict = {}
    for i in range(30_000):
        counts[i % 997] = counts.get(i % 997, 0) + i % 13
    np.copyto(buffer, source)
    buffer.sort()  # in place: the loop allocates nothing large
    return time.perf_counter() - t0


def reference_time() -> float:
    """The reference loop's median time, after the previous job's threads
    have gone idle."""
    time.sleep(REFERENCE_SETTLE_S)
    return statistics.median(reference_loop() for _ in range(REFERENCE_REPEATS))


@functools.cache
def _reference_arrays():
    import numpy as np

    source = np.random.default_rng(0).random(200_000)
    return source, np.empty_like(source)


def run_pass(workload, tally: Tally, tracer=None) -> tuple[dict, float]:
    """Run every job once.  Return job -> seconds, timed around ``run`` only,
    and the reference loop's time, taken before the first job."""
    loop_s = reference_time()
    times = {}
    for job in workload.jobs:
        if tracer is not None:
            tracer.job = job.name
        for path in job.outputs:
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink(missing_ok=True)
        error = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                result = job.run()
            except Exception as exc:  # a failing job is counted, not fatal
                result, error = None, exc
            times[job.name] = time.perf_counter() - t0
        if error is not None:
            messages = [f"raised {error!r}"]
        else:
            try:
                messages = job.check(result, [str(w.message) for w in caught])
            except Exception as exc:  # a malformed output fails its check
                messages = [f"check raised {exc!r}"]
        tally.record(job.name, messages)
    return times, loop_s


def machine_block() -> dict:
    import numpy
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu or platform.processor(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def repeat_share(n: int, reps: int, seed: int) -> float:
    """Share of replications whose tie-break order appeared earlier in the
    same fixed-profile simulation, with orders drawn as ``simulation`` draws
    them: one Philox stream (seed, block) per block of BLOCK_SIZE reps."""
    import numpy as np
    from rankmatch import prng, simulation

    seen: set = set()
    done = block = 0
    while done < reps:
        size = min(simulation.BLOCK_SIZE, reps - done)
        orders = np.tile(np.arange(n), (size, 1))
        prng.generator(seed, block).permuted(orders, axis=1, out=orders)
        seen.update(map(tuple, orders.tolist()))
        done += size
        block += 1
    return 1.0 - len(seen) / reps


def job_medians(passes: list) -> dict:
    return {name: statistics.median(p[name] for p, _ in passes) for name in passes[0][0]}


def scaled_wall(passes: list) -> float:
    """The typical pass: the sum over jobs of each job's median scaled time,
    a job's time times REFERENCE_LOOP_S over the reference loop's time in
    the same pass."""
    return sum(statistics.median(times[name] * REFERENCE_LOOP_S / loop_s
                                 for times, loop_s in passes)
               for name in passes[0][0])


def measure_untraced(workload, seconds: float, tally: Tally) -> tuple[list, dict]:
    run_pass(workload, tally)  # warm-up: lazy imports, first-call set-up
    passes = []
    end = time.perf_counter() + seconds
    while not passes or time.perf_counter() < end:
        passes.append(run_pass(workload, tally))
    metrics = {"wall_s": scaled_wall(passes),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    return passes, metrics


def measure_traced(workload, seconds: float, tally: Tally, seed: int,
                   work: Path) -> tuple[list, dict, dict]:
    import probes
    import tracing

    run_pass(workload, tally)
    plain, traced, span_passes = [], [], []
    tracer = tracing.Tracer()
    end = time.perf_counter() + seconds
    while not traced or time.perf_counter() < end:
        plain.append(run_pass(workload, tally))
        tracer.install()
        try:
            traced.append(run_pass(workload, tally, tracer))
        finally:
            tracer.uninstall()
        span_passes.append(tracer.spans)

    per_job = tracing.summarize(span_passes)
    layers = tracing.layer_totals(per_job)
    traced_wall = scaled_wall(traced)
    plain_wall = scaled_wall(plain)
    mean_traced = statistics.fmean(sum(p.values()) for p, _ in traced)
    metrics = {
        "cli.self_s": layers["cli"],
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.span_coverage": sum(j["top_level_s"] for j in per_job.values()) / mean_traced,
        "mechanisms.engine_calls": round(sum(j["engine_calls"] for j in per_job.values())),
    }
    metrics.update(probes.run_probes(seed, work))
    detail = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
              "traced_passes": len(traced), "layer_self_s": layers, "jobs": per_job,
              "last_pass_spans": span_passes[-1]}
    return plain, metrics, detail


def print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{name:44s} {value:.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (SRC / "rankmatch" / "cli.py").is_file():
            raise SetupError(f"no rankmatch sources under {SRC}")
        if args.trace:
            spawns = [spawn_import(("-X", "importtime")) for _ in range(IMPORTTIME_SPAWNS)]
            parsed = [parse_importtime(err) for _, err in spawns]
            import_metrics = {k: statistics.median(p[k] for p in parsed) for k in parsed[0]}
        else:
            spawns = [spawn_import() for _ in range(SETUP_SPAWNS)]
    except (SetupError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setup_samples = [t for t, _ in spawns]

    sys.path.insert(0, str(SRC))
    import workloads

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    tally = Tally()
    try:
        t0 = time.perf_counter()
        workload = workloads.BUILDERS[args.workload](args.seed, work)
        inputs_s = time.perf_counter() - t0
        if args.trace:
            passes, metrics, detail = measure_traced(workload, args.seconds, tally,
                                                     args.seed, work)
            metrics = {**import_metrics, **metrics}
            units = PER_LAYER
        else:
            passes, metrics = measure_untraced(workload, args.seconds, tally)
            metrics = {"setup_s": statistics.median(setup_samples), **metrics}
            detail = {}
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    medians = job_medians(passes)
    rates = {name: work_units / sum(medians[j] for j in jobs)
             for name, (work_units, jobs) in workload.rates.items()}
    spans = detail.pop("last_pass_spans", None)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": machine_block(),
        "property": {
            "repeat_share_fixed_n4": repeat_share(4, workloads.SIM_FIXED_N4_REPS, args.seed),
            "repeat_share_fixed_n10": repeat_share(10, workloads.SIM_FIXED_N10_REPS, args.seed),
        },
        "setup_samples_s": setup_samples, "inputs_s": inputs_s,
        "passes": len(passes), "pass_wall_s": [sum(p.values()) for p, _ in passes],
        "pass_reference_loop_s": [loop_s for _, loop_s in passes],
        "pass_job_s": [p for p, _ in passes],
        "job_median_s": medians, "unscaled_wall_s": sum(medians.values()), "rates": rates, "metrics": metrics,
        "attempted": tally.attempted, "failed": tally.failed, "failures": tally.failures,
        **detail,
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(results, indent=1) + "\n")
    if spans is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans) + "\n")

    for failure in tally.failures:
        print(f"FAILED {failure['job']}: {'; '.join(failure['messages'])}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} passes={len(passes)} "
          f"attempted={tally.attempted} failed={tally.failed}")
    print_metrics(metrics, units)
    print(f"# {'unscaled wall_s':42s} {sum(medians.values()):.6g} s "
          "(sum of job medians, not gated)")
    for name, value in rates.items():
        print(f"# {name:42s} {value:.6g} 1/s (job median, not gated)")
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
