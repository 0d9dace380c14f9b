"""The three benchmark workloads.

Each workload is a closed loop with a single caller: ``setup()`` builds the
inputs through the public API, ``run(inputs)`` does what the matching CLI verb
does after its inputs exist, and ``inspect``/``check``/``deep_check`` verify
the inputs and outputs outside the timed regions.  The workloads call ``targetset.<name>`` through
the package attribute so that a :class:`spans.Recorder` can see every call.

An operation is one solver call plus its checks; ``Outcome.failed`` counts
the operations with an error row, a set that is not a target set, a broken
bound relation or an output that differs from the warm-up iteration's.
"""

from __future__ import annotations

import hashlib
import io
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

import targetset as ts
from spans import order_digest


@dataclass
class Outcome:
    attempted: int
    tss_seeds: int = 0
    greedy_seeds: int = 0
    bound_checks: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    failures: dict[str, list[str]] = field(default_factory=dict)  # operation -> why

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, op: str, message: str) -> None:
        self.failures.setdefault(op, []).append(message)

    def merge(self, other: "Outcome") -> None:
        """Fold in the deeper checks of the same operations."""
        for op, messages in other.failures.items():
            self.failures.setdefault(op, []).extend(messages)
        self.bound_checks += other.bound_checks
        self.digests.update(other.digests)


def preferential_attachment(n: int, k: int, seed: int) -> str:
    """Barabasi-Albert graph as edge-list text, byte-identical per seed.

    Vertex v >= k links to k distinct earlier vertices, each drawn with
    probability proportional to its current degree (the pool lists every
    vertex once per incident edge; the first k vertices start in it once).
    """
    rng = random.Random(seed)
    pool = list(range(k))
    lines = []
    for v in range(k, n):
        targets: list[int] = []
        while len(targets) < k:
            u = rng.choice(pool)
            if u not in targets:
                targets.append(u)
        lines.extend(f"{v} {u}\n" for u in targets)
        pool.extend(targets)
        pool.extend([v] * k)
    return "".join(lines)


def graph_facts(g) -> dict[str, int]:
    return {"n": g.n, "m": g.m, "max_degree": max(g.degrees, default=0)}


def largest_heap_key(g, t) -> int:
    """Largest absolute key ``tss_solve`` pushes on its heaps for (g, t).

    Watches the solver module's ``heappush`` during one extra, untimed solve.
    Keys of 2^63 and above do not fit a signed 64-bit word.
    """
    solver = sys.modules["targetset.solver"]
    push = solver.heappush
    largest = 0

    def watched(heap, key):
        nonlocal largest
        largest = max(largest, abs(key))
        push(heap, key)

    solver.heappush = watched
    try:
        ts.tss_solve(g, t)
    finally:
        solver.heappush = push
    return largest


def _op(row) -> str:
    return f"t={row.t_param} {row.algorithm}"


class GnpSweep:
    """The ``bench`` verb: const-policy sweep t = 1..10, tss and greedy, CSV out."""

    name = "gnp-sweep"

    def __init__(self, seed: int, workdir: Path, n: int = 5_000):
        source = ts.GraphSource("gnp", n=n, p=10.0 / n)
        self.cfg = ts.BenchConfig(
            sources=(source,), policy="const", sweep=tuple(range(1, 11)),
            algorithms=("tss", "greedy"), seed=seed, timings=False)
        # The graph run_bench builds for its first repetition of the source.
        self.source = source.with_seed(ts.derive_seed(seed, "graph", source.name, 0))

    def setup(self):
        return self.source.build()

    def run(self, g):
        rows = ts.run_bench(self.cfg)
        buf = io.StringIO()
        ts.write_csv(rows, buf)
        return rows, buf.getvalue()

    def check(self, g, outputs) -> Outcome:
        rows, csv_text = outputs
        out = Outcome(attempted=len(rows))
        out.digests["csv_sha256"] = hashlib.sha256(csv_text.encode()).hexdigest()
        for row in rows:
            if row.error:
                out.fail(_op(row), f"error row {row.error!r}")
            elif row.algorithm == "tss":
                out.tss_seeds += row.solution_size
            else:
                out.greedy_seeds += row.solution_size
        return out

    def deep_check(self, g, outputs, spans) -> Outcome:
        """Re-check every emitted set and the exact bounds run_bench computed."""
        rows, _ = outputs
        out = Outcome(attempted=0)
        solves = []
        for span in spans:
            if span.name in ("tss_solve", "greedy_tss"):
                solves.append(dict(span.facts))
            elif span.name in ("bound_new", "bound_old") and solves:
                solves[-1][span.name] = span.facts["value"]
        if len(solves) != len(rows):
            for row in rows:
                out.fail(_op(row), f"{len(solves)} solver calls for {len(rows)} rows")
            return out
        # The bound relations are proven when every component has >= 3
        # vertices, the condition check_bound_dominance uses.
        applicable = g.n >= 3 and all(len(c) >= 3 for c in ts.connected_components(g))
        orders = hashlib.sha256()
        for row, solve in zip(rows, solves):
            if row.error:  # already failed by check()
                continue
            op = _op(row)
            if solve["g"].adjacency != g.adjacency:
                out.fail(op, "run_bench graph differs from the set-up graph")
            if not ts.is_target_set(solve["g"], solve["t"], solve["target_set"]):
                out.fail(op, "emitted set is not a target set")
            if row.solution_size != solve["size"]:
                out.fail(op, f"CSV size {row.solution_size} != emitted size {solve['size']}")
            bn, bo = solve.get("bound_new"), solve.get("bound_old")
            if bn is None or bo is None:
                out.fail(op, "bounds not computed")
                continue
            if (row.bound_new, row.bound_old) != (f"{float(bn):.6g}", f"{float(bo):.6g}"):
                out.fail(op, "CSV bounds differ from the exact values")
            if row.algorithm == "tss":
                orders.update(solve["order_sha"].encode())
                if applicable:
                    out.bound_checks += 1
                    if not bn <= bo:
                        out.fail(op, f"bound_new {bn} > bound_old {bo}")
                    if not solve["size"] <= bn:
                        out.fail(op, f"tss size {solve['size']} > bound_new {bn}")
        out.digests["tss_orders_sha256"] = orders.hexdigest()
        return out

    def inspect(self, g) -> tuple[dict, Outcome]:
        return graph_facts(g), Outcome(attempted=0)


class _SolveWorkload:
    """Shared checks of the ``solve``-style workloads (inputs are (g, t))."""

    def inspect(self, inputs) -> tuple[dict, Outcome]:
        """Graph facts and the bound relations of the instance, from solves of
        its own; made before the warm-up run so they add nothing to its peak
        memory.  The run's tss_solve repeats the same order in every
        iteration (checked through its digest), so it is the set checked."""
        out = Outcome(attempted=0)
        try:
            out.bound_checks += ts.check_bound_dominance(*inputs).applicable
        except AssertionError as exc:
            out.fail("tss", f"bound relation broken: {exc}")
        facts = {**graph_facts(inputs[0]),
                 "heap_key_bits": largest_heap_key(*inputs).bit_length()}
        return facts, out

    def deep_check(self, inputs, outputs, spans) -> Outcome:
        return Outcome(attempted=0)


class GnpSolve(_SolveWorkload):
    """The ``solve --alg tss`` path on one large sparse G(n, 10/n) instance."""

    name = "gnp-solve"

    def __init__(self, seed: int, workdir: Path, n: int = 100_000):
        self.n = n
        self.graph_seed = ts.derive_seed(seed, self.name, "graph")
        self.threshold_seed = ts.derive_seed(seed, self.name, "thresholds")

    def setup(self):
        g = ts.gnp(self.n, 10.0 / self.n, seed=self.graph_seed)
        return g, ts.random_in_degree(g, self.threshold_seed)

    def run(self, inputs):
        g, t = inputs
        report = ts.tss_solve(g, t)
        return report, ts.is_target_set(g, t, report.target_set)

    def check(self, inputs, outputs) -> Outcome:
        report, ok = outputs
        out = Outcome(attempted=1, tss_seeds=report.size)
        out.digests["tss_order_sha256"] = order_digest(report.elimination_order)
        if not ok:
            out.fail("tss", "emitted set is not a target set")
        return out


class PowerlawSolve(_SolveWorkload):
    """Heavy-tailed graph from an edge-list file: tss and greedy, each verified."""

    name = "powerlaw-solve"

    def __init__(self, seed: int, workdir: Path, n: int = 50_000):
        # Written once, outside the timed set-up: only loading is measured.
        self.path = Path(workdir) / "powerlaw.edges"
        self.path.write_text(preferential_attachment(n, 5, ts.derive_seed(seed, self.name, "graph")))
        self.threshold_seed = ts.derive_seed(seed, self.name, "thresholds")

    def setup(self):
        g = ts.load_edge_list(self.path)
        return g, ts.random_in_degree(g, self.threshold_seed)

    def run(self, inputs):
        g, t = inputs
        tss = ts.tss_solve(g, t)
        tss_ok = ts.is_target_set(g, t, tss.target_set)
        greedy = ts.greedy_tss(g, t)
        greedy_ok = ts.is_target_set(g, t, greedy.target_set)
        return tss, tss_ok, greedy, greedy_ok

    def check(self, inputs, outputs) -> Outcome:
        tss, tss_ok, greedy, greedy_ok = outputs
        out = Outcome(attempted=2, tss_seeds=tss.size, greedy_seeds=greedy.size)
        out.digests["tss_order_sha256"] = order_digest(tss.elimination_order)
        if not tss_ok:
            out.fail("tss", "emitted set is not a target set")
        if not greedy_ok:
            out.fail("greedy", "emitted set is not a target set")
        return out


WORKLOADS = {cls.name: cls for cls in (GnpSweep, GnpSolve, PowerlawSolve)}
