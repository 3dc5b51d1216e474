"""In-memory span recording around the public functions of each rankmatch module.

The benchmark never edits the package: ``Tracer.install`` rebinds each traced
function, in every ``rankmatch`` module that holds it under the same name, to
a wrapper that records a span.  ``uninstall`` restores the originals, so
untraced passes run the unmodified code.  Names are rebound wherever they are
bound because modules import each other's functions by name (``cli`` holds
its own ``exact_expected_utilities``, ``simulation`` its own
``build_outcome``); ``run_mechanism`` looks ``run_rsd``/``run_boston`` up in
``mechanisms`` at call time, so wrapping those two counts every engine call.

``prng`` is not wrapped: ``simulation`` calls it from pool threads under
``--threads 2``, and spans keep one call stack for the main thread.  Its
time counts as the self time of its caller.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "core", "mechanisms", "equilibrium", "simulation",
          "elicitation", "stats", "analysis")

# module -> public functions wrapped in a span
TRACED = {
    "cli": ("main",),
    "core": ("build_outcome", "reports_from_json_dict"),
    "mechanisms": ("run_rsd", "run_boston", "exact_expected_utilities"),
    "equilibrium": ("solve_equilibrium", "brute_force_equilibria",
                    "check_truthtelling_equilibrium", "equilibrium_welfare"),
    "simulation": ("simulate", "write_replication_csv"),
    "elicitation": ("load_responses", "decode_mpl"),
    "stats": ("jonckheere_terpstra", "wilcoxon_ranksum", "ols_fit"),
    "analysis": ("load_session", "analyze_session", "net_value_design"),
}

ENGINE_SPANS = ("mechanisms.run_rsd", "mechanisms.run_boston")

# span fields: [name, start_ns, end_ns, parent index or -1, job id]
NAME, START, END, PARENT, JOB = range(5)


class Tracer:
    """Collects spans in a list; ``job`` tags every span opened under it."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.job = ""

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Start a new span list and wrap every traced function."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.spans = []
        modules = [m for key, m in sys.modules.items()
                   if key == "rankmatch" or key.startswith("rankmatch.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"rankmatch.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    if mod.__dict__.get(fname) is original:
                        self._saved.append((mod, fname, original))
                        setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._saved):
            setattr(mod, fname, original)
        self._saved.clear()


def self_times(spans: list[list]) -> list[int]:
    """Per span: its duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def summarize(passes: list) -> dict:
    """Per job, averaged over traced passes (each a list of spans): self
    seconds per layer, engine calls, and the duration of top-level spans."""
    jobs: dict = {}
    for spans in passes:
        for s, self_ns in zip(spans, self_times(spans)):
            job = jobs.setdefault(s[JOB], {"self_s": defaultdict(float),
                                           "engine_calls": 0, "top_level_s": 0.0})
            job["self_s"][s[NAME].split(".", 1)[0]] += self_ns / 1e9 / len(passes)
            if s[NAME] in ENGINE_SPANS:
                job["engine_calls"] += 1 / len(passes)
            if s[PARENT] < 0:
                job["top_level_s"] += (s[END] - s[START]) / 1e9 / len(passes)
    for job in jobs.values():
        job["self_s"] = dict(job["self_s"])
    return jobs


def layer_totals(summary: dict) -> dict[str, float]:
    """Self seconds per layer summed over jobs."""
    out = {layer: 0.0 for layer in LAYERS}
    for job in summary.values():
        for layer, sec in job["self_s"].items():
            out[layer] += sec
    return out
