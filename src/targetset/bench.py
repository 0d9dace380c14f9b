"""Benchmark harness: threshold sweeps over graph sources, CSV output, and
randomized cross-checks of the solver against the exact oracle."""

from __future__ import annotations

import csv
import hashlib
import random
from dataclasses import astuple, dataclass, fields
from typing import IO, Sequence

from .bounds import bound_new, bound_old
from .generators import GraphSource, clique_graph, cycle_graph, random_tree
from .graph import _check_int
from .reference import ALGORITHMS, EXACT_CAP, TSS, clique_optimum, exact_solve, solve
from .thresholds import assign_thresholds, constant_capped, random_in_degree


def derive_seed(master: int, *parts) -> int:
    """Stable per-task seed so no task reads another task's random stream."""
    text = str(master) + "|" + "|".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class BenchRow:
    graph_name: str
    n: int
    m: int
    t_param: int | None
    algorithm: str
    solution_size: int | None
    bound_new: str
    bound_old: str
    elapsed_ms: str
    seed: int
    error: str = ""


CSV_HEADER = ",".join(f.name for f in fields(BenchRow))


@dataclass(frozen=True)
class BenchConfig:
    """One benchmark run, validated once here for the library and the CLI.

    With the constant-capped policy (plain ``const``; the sweep supplies
    every T) each value in ``sweep`` produces one instance per source and
    repetition; ``sweep=None`` means T = 1..10 and an empty sweep is an
    error.  Other policies draw one assignment per (source, repetition) and
    take no sweep: any ``sweep`` but ``None`` raises ``ValueError``, as do
    a sweep value that is not an int or is repeated, ``repetitions`` that is
    not an int >= 1, a ``seed`` or ``exact_cap`` that is not an int, empty
    ``sources`` or ``algorithms``, and a repeated source (two sources with
    one name build the same graphs).  ``timings`` off keeps the CSV
    byte-identical across runs; switch it on to study scaling.
    """

    sources: tuple[GraphSource, ...]
    policy: str = "const"
    sweep: tuple[int, ...] | None = None
    algorithms: tuple[str, ...] = (TSS,)
    seed: int = 0
    repetitions: int = 1
    timings: bool = False
    exact_cap: int = EXACT_CAP

    def __post_init__(self):
        if not self.sources:
            raise ValueError("bench needs at least one graph source")
        if not self.algorithms:
            raise ValueError("bench needs at least one algorithm")
        names = [src.name for src in self.sources]
        for name in names:
            if names.count(name) > 1:
                raise ValueError(f"repeated graph source {name!r}")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {alg!r}")
        if len(set(self.algorithms)) < len(self.algorithms):
            raise ValueError(f"repeated algorithm in {','.join(self.algorithms)!r}")
        kind = self.policy.partition(":")[0]
        if kind not in ("const", "random", "degree", "file"):
            raise ValueError(f"unknown threshold policy {self.policy!r}")
        if kind != "const":
            if self.sweep is not None:
                raise ValueError(f"--sweep needs the const policy; {self.policy!r} ignores it")
        elif self.policy != "const":
            raise ValueError(
                f"bench ignores T in {self.policy!r}; pass the const values with --sweep"
            )
        elif self.sweep is None:
            object.__setattr__(self, "sweep", tuple(range(1, 11)))
        elif not self.sweep:
            raise ValueError("const policy needs a nonempty sweep")
        seen: set[int] = set()
        for value in self.sweep or ():
            if type(value) is not int:
                raise ValueError(f"sweep value {value!r} is not an int")
            if value in seen:
                raise ValueError(f"repeated sweep value {value}")
            seen.add(value)
        _check_int("repetitions", self.repetitions, 1)
        _check_int("exact_cap", self.exact_cap)
        _check_int("seed", self.seed)


def run_bench(cfg: BenchConfig) -> list[BenchRow]:
    """Build each instance, then solve, verify and bound it once per algorithm.

    Rows come in configuration order (source, repetition, sweep value,
    algorithm).  A policy other than ``const`` has no sweep: one instance
    per (source, repetition), with ``t_param`` ``None``.  A solver error
    such as an oversized exact instance becomes an error row and the run
    continues; an emitted set that fails the target-set re-check raises
    ``AssertionError``, because that is a bug.  A source that cannot be
    built (a missing edge file, say) raises ``ValueError`` or ``OSError``
    when the loop reaches it.
    """
    rows = []
    for src in cfg.sources:
        for rep in range(cfg.repetitions):
            gseed = derive_seed(cfg.seed, "graph", src.name, rep)
            g = src.with_seed(gseed).build()
            for t_param in cfg.sweep or (None,):
                if t_param is None:
                    tseed = derive_seed(cfg.seed, "thresholds", src.name, rep, t_param)
                    t = assign_thresholds(g, cfg.policy, tseed)
                else:
                    t = constant_capped(g, t_param)
                for alg in cfg.algorithms:
                    instance = dict(graph_name=src.name, n=g.n, m=g.m, t_param=t_param,
                                    algorithm=alg, seed=gseed)
                    try:
                        solution, seconds = solve(g, t, alg, cfg.exact_cap)[1:]
                    except ValueError as exc:
                        rows.append(BenchRow(**instance, solution_size=None, bound_new="",
                                             bound_old="", elapsed_ms="", error=str(exc)))
                        continue
                    rows.append(BenchRow(
                        **instance,
                        solution_size=len(solution),
                        bound_new=f"{float(bound_new(g, t)):.6g}",
                        bound_old=f"{float(bound_old(g, t)):.6g}",
                        elapsed_ms=f"{seconds * 1000.0:.3f}" if cfg.timings else "",
                    ))
    return rows


def write_csv(rows: Sequence[BenchRow], stream: IO) -> None:
    """Write ``CSV_HEADER`` and one line per row, fields in declaration order.

    The ``csv`` module quotes a field that holds a comma, a quote or a line
    break; ``None`` becomes an empty field.
    """
    writer = csv.writer(stream, lineterminator="\n")
    stream.write(CSV_HEADER + "\n")
    writer.writerows(astuple(row) for row in rows)


def run_verify(klass: str, n_max: int, instances: int, seed: int = 0) -> list[str]:
    """Cross-check the solver against the exact oracle on a graph class and
    return one line per mismatch (empty when every instance agrees).

    Random instances of ``tree``, ``cycle`` or ``clique`` are drawn with the
    thresholds that exercise every elimination branch: uniform in [1, d] for
    trees, mixes of {0, 1, 2, d+1} for cycles, uniform in [1, n+2] for
    cliques (where the closed form is checked as well).
    """
    if klass not in ("tree", "cycle", "clique"):
        raise ValueError(f"unknown verification class {klass!r}")
    _check_int("instances", instances, 1)
    _check_int("n_max", n_max, 3)
    _check_int("seed", seed)
    mismatches: list[str] = []
    for i in range(instances):
        iseed = derive_seed(seed, klass, i)
        rng = random.Random(iseed)
        n = rng.randint(3, n_max)
        if klass == "tree":
            g = random_tree(n, seed=derive_seed(iseed, "graph"))
            t = random_in_degree(g, seed=derive_seed(iseed, "thresholds"))
        elif klass == "cycle":
            g = cycle_graph(n)
            t = [rng.choice((0, 1, 2, 3)) for _ in range(n)]
        else:
            g = clique_graph(n)
            t = sorted(rng.randint(1, n + 2) for _ in range(n))
        got = solve(g, t, TSS)[0].size
        want = exact_solve(g, t, max_vertices=max(EXACT_CAP, n)).optimum_size
        if got != want:
            mismatches.append(
                f"{klass} n={n} seed={iseed}: solver size {got} != optimum {want}"
            )
            continue
        if klass == "clique":
            closed = clique_optimum(t)
            if closed != want:
                mismatches.append(
                    f"clique n={n} seed={iseed}: closed form {closed} != optimum {want}"
                )
    return mismatches
