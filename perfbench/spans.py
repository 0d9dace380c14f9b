"""Span recording around the public functions of ``targetset``.

A :class:`Recorder` replaces each traced public function, in every
``targetset`` module namespace that holds it, with a wrapper that records a
span (name, start, end, parent span) plus a few facts read off the call's
arguments and result.  Leaving the ``with`` block restores the originals, so
code outside it runs the program untouched.  Spans stay in memory; the caller
writes them out when the run ends.
"""

from __future__ import annotations

import hashlib
import statistics
import sys
import time
from collections import Counter, defaultdict

clock = time.perf_counter


def order_digest(order) -> str:
    """sha256 of an elimination order, written as ``vertex:case`` pairs."""
    return hashlib.sha256(",".join(f"{v}:{int(c)}" for v, c in order).encode()).hexdigest()


def _solver_facts(args, report, keep):
    g = args[0]
    facts = {"edges": g.m, "size": report.size, "cases": report.case_counts}
    if keep:
        facts.update(g=g, t=args[1], target_set=report.target_set,
                     order_sha=order_digest(report.elimination_order))
    return facts


def _bound_facts(args, value, keep):
    # The (graph, thresholds) objects are alive for the whole run_bench call,
    # so their ids tell distinct instances apart within one iteration.
    return {"pair": (id(args[0]), id(args[1])), "value": value}


# Traced public name -> (layer, facts extractor).
TARGETS = {
    "gnp": ("generators", None),
    "load_edge_list": ("graph", lambda args, g, keep: {"edges": g.m}),
    "constant_capped": ("thresholds", None),
    "random_in_degree": ("thresholds", None),
    "tss_solve": ("solver", _solver_facts),
    "greedy_tss": ("reference", _solver_facts),
    "is_target_set": ("diffusion", lambda args, ok, keep: {"ok": ok}),
    "bound_new": ("bounds", _bound_facts),
    "bound_old": ("bounds", _bound_facts),
    "run_bench": ("bench", lambda args, rows, keep: {
        "rows": len(rows), "error_rows": sum(1 for row in rows if row.error)}),
    "write_csv": ("bench", None),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "facts")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.facts = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Context manager that records spans for the calls made inside it.

    With ``keep`` the solver spans also hold the instance, the emitted set
    and the elimination-order digest, so the caller can re-check them.
    """

    def __init__(self, keep: bool = False):
        self.keep = keep
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Recorder":
        package = sys.modules["targetset"]
        modules = [m for name, m in sys.modules.items()
                   if name == "targetset" or name.startswith("targetset.")]
        for name, (_, extract) in TARGETS.items():
            original = getattr(package, name)
            wrapper = self._wrap(name, original, extract)
            for module in modules:
                if vars(module).get(name) is original:
                    setattr(module, name, wrapper)
                    self._patched.append((module, name, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _wrap(self, name, fn, extract):
        spans, stack, keep = self.spans, self._stack, self.keep

        def traced(*args, **kwargs):
            span = Span(name, clock(), stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if extract is not None:
                span.facts = extract(args, result, keep)
            return result

        traced.__wrapped__ = fn
        return traced


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one iteration's spans (names as in BENCHMARK.json)."""
    secs: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    child_secs: dict[int, float] = defaultdict(float)
    facts_sum: Counter = Counter()
    cases = [0, 0, 0]
    pairs = set()
    for span in spans:
        secs[span.name] += span.seconds
        calls[span.name] += 1
        if span.parent >= 0:
            child_secs[span.parent] += span.seconds
        facts = span.facts
        if span.name == "tss_solve":
            facts_sum["tss_edges"] += facts["edges"]
            cases = [a + b for a, b in zip(cases, facts["cases"])]
        elif span.name == "greedy_tss":
            facts_sum["greedy_edges"] += facts["edges"]
            facts_sum["greedy_seeds"] += facts["size"]
        elif span.name == "load_edge_list":
            facts_sum["edges"] += facts["edges"]
        elif span.name in ("bound_new", "bound_old"):
            pairs.add(facts["pair"])
        elif span.name == "run_bench":
            facts_sum["rows"] += facts["rows"]
            facts_sum["error_rows"] += facts["error_rows"]
    bench_self = sum((span.seconds - child_secs[i] for i, span in enumerate(spans)
                      if span.name == "run_bench"), 0.0)
    bound_calls = calls["bound_new"] + calls["bound_old"]

    def per_edge(name, edges):
        return secs[name] * 1e9 / edges if edges else 0.0

    return {
        "generators.gnp_s": secs["gnp"],
        "generators.gnp_calls": calls["gnp"],
        "graph.load_edge_list_s": secs["load_edge_list"],
        "graph.edges": facts_sum["edges"],
        "thresholds.assign_s": secs["constant_capped"] + secs["random_in_degree"],
        "thresholds.assign_calls": calls["constant_capped"] + calls["random_in_degree"],
        "solver.tss_solve_s": secs["tss_solve"],
        "solver.tss_solve_calls": calls["tss_solve"],
        "solver.ns_per_edge": per_edge("tss_solve", facts_sum["tss_edges"]),
        "solver.case_activated": cases[0],
        "solver.case_seeded": cases[1],
        "solver.case_discarded": cases[2],
        "reference.greedy_tss_s": secs["greedy_tss"],
        "reference.greedy_tss_calls": calls["greedy_tss"],
        "reference.greedy_ns_per_edge": per_edge("greedy_tss", facts_sum["greedy_edges"]),
        "reference.greedy_seeds": facts_sum["greedy_seeds"],
        "diffusion.is_target_set_s": secs["is_target_set"],
        "diffusion.is_target_set_calls": calls["is_target_set"],
        "bounds.bound_new_s": secs["bound_new"],
        "bounds.bound_old_s": secs["bound_old"],
        "bounds.bound_calls": bound_calls,
        # How often each of the two bounds is computed per distinct
        # (graph, thresholds) pair; 1.0 would mean no repeated work.
        "bounds.calls_per_instance": bound_calls / (2 * len(pairs)) if pairs else 0.0,
        "bench.run_bench_s": secs["run_bench"],
        "bench.self_s": bench_self,
        "bench.rows": facts_sum["rows"],
        "bench.error_rows": facts_sum["error_rows"],
        "bench.write_csv_s": secs["write_csv"],
    }


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric lower median over iterations: always one measured value, so
    counts, which repeat exactly, pass through unchanged."""
    return {key: statistics.median_low(s[key] for s in samples) for key in samples[0]}


def span_records(spans: list[Span], iteration: int) -> list[dict]:
    """JSON-ready span records: timings and the numeric facts only."""
    records = []
    for span in spans:
        facts = {k: v for k, v in span.facts.items() if isinstance(v, (int, float))}
        records.append({"iteration": iteration, "name": span.name,
                        "layer": TARGETS[span.name][0], "start": span.start,
                        "end": span.end, "parent": span.parent, **facts})
    return records
