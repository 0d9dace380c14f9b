"""Benchmark harness: threshold sweeps over graph sources, CSV output, and
randomized cross-checks of the solver against the exact oracle."""

from __future__ import annotations

import csv
import hashlib
import random
from dataclasses import astuple, dataclass, fields
from typing import IO, Sequence

from .bounds import bound_new, bound_old
from .generators import _SEEDED_KINDS, GraphSource, clique_graph, cycle_graph, random_tree
from .graph import _check_int
from .reference import ALGORITHMS, EXACT_CAP, TSS, clique_optimum, exact_solve, solve
from .thresholds import _parse_policy, assign_thresholds, random_in_degree


def derive_seed(master: int, *parts) -> int:
    """Stable per-task seed so no task reads another task's random stream."""
    text = str(master) + "|" + "|".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class BenchRow:
    """One CSV row: an instance, an algorithm's result on it, or its error."""

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

    With plain ``const`` each ``sweep`` value T gives one ``const:T``
    instance per source and repetition (``None`` means 1..10).  Other
    policies draw one assignment per (source, repetition) and take no sweep.
    ``ValueError`` is raised before any graph is built for: a sweep with a
    policy other than ``const``, a sweep that is empty, not a sequence, or
    holds a value that is not an int >= 1 or is repeated; ``repetitions``
    not an int >= 1, ``seed`` not an int, ``exact_cap`` not an int >= 0;
    ``sources`` or ``algorithms`` empty or not a sequence, a source that is
    not a ``GraphSource``, a repeated source or algorithm, an unknown
    algorithm; and a policy ``assign_thresholds`` would reject.  ``timings``
    off keeps the CSV byte-identical across runs.
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
        if not isinstance(self.sources, Sequence):
            raise ValueError(f"sources must be a sequence of GraphSources, got {self.sources!r}")
        if not isinstance(self.algorithms, Sequence):
            raise ValueError(f"algorithms must be a sequence of names, got {self.algorithms!r}")
        if not self.sources:
            raise ValueError("bench needs at least one graph source")
        if not self.algorithms:
            raise ValueError("bench needs at least one algorithm")
        names: set[str] = set()
        for src in self.sources:
            if not isinstance(src, GraphSource):
                raise ValueError(f"graph source {src!r} is not a GraphSource")
            if src.name in names:
                raise ValueError(f"repeated graph source {src.name!r}")
            names.add(src.name)
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {alg!r}")
        if len(set(self.algorithms)) < len(self.algorithms):
            raise ValueError(f"repeated algorithm in {','.join(self.algorithms)!r}")
        if self.policy != "const":
            if _parse_policy(self.policy)[0] == "const":
                raise ValueError(f"bench ignores T in {self.policy!r}; "
                                 "pass the const values with --sweep")
            if self.sweep is not None:
                raise ValueError(f"--sweep needs the const policy; {self.policy!r} ignores it")
        elif self.sweep is None:
            object.__setattr__(self, "sweep", tuple(range(1, 11)))
        elif not isinstance(self.sweep, Sequence):
            raise ValueError(f"sweep must be a sequence of ints, got {self.sweep!r}")
        elif not self.sweep:
            raise ValueError("const policy needs a nonempty sweep")
        seen: set[int] = set()
        for value in self.sweep or ():
            if type(value) is not int:
                raise ValueError(f"sweep value {value!r} is not an int")
            if value < 1:
                raise ValueError(f"sweep value {value} must be >= 1")
            if value in seen:
                raise ValueError(f"repeated sweep value {value}")
            seen.add(value)
        _check_int("repetitions", self.repetitions, 1)
        _check_int("exact_cap", self.exact_cap, 0)
        _check_int("seed", self.seed)


def run_bench(cfg: BenchConfig) -> list[BenchRow]:
    """Build each instance, then solve, verify and bound it once per algorithm.

    Rows come in configuration order (source, repetition, sweep value,
    algorithm); without a sweep ``t_param`` is ``None``.  A solver
    ``ValueError`` (an oversized exact instance, say) becomes an error row;
    an emitted set that fails the target-set re-check raises
    ``AssertionError``.  A source that cannot be built raises ``ValueError``
    or ``OSError`` when the loop reaches it.  A source whose graph ignores
    the seed is built once for all repetitions.  Anything but a
    ``BenchConfig`` raises ``ValueError``.
    """
    if not isinstance(cfg, BenchConfig):
        raise ValueError(f"expected a BenchConfig, got {cfg!r}")
    rows = []
    for src in cfg.sources:
        g = None
        for rep in range(cfg.repetitions):
            gseed = derive_seed(cfg.seed, "graph", src.name, rep)
            if g is None or src.kind in _SEEDED_KINDS:
                g = src.with_seed(gseed).build()
            # Held all at once, so no two instances share an object id (CHANGES.md).
            assignments = [(t_param, assign_thresholds(
                g, cfg.policy if t_param is None else f"const:{t_param}",
                derive_seed(cfg.seed, "thresholds", src.name, rep, t_param)))
                for t_param in cfg.sweep or (None,)]
            for t_param, t in assignments:
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
    """Write ``CSV_HEADER`` and one line per row, fields in declaration order,
    quoted as the ``csv`` module does (``None`` is an empty field).  ``rows``
    that is not a sequence of ``BenchRow`` and a ``stream`` without a
    ``write`` method raise ``ValueError`` before anything is written."""
    if not (isinstance(rows, Sequence) and all(isinstance(row, BenchRow) for row in rows)):
        raise ValueError(f"rows must be a sequence of BenchRows, got {rows!r}")
    if not callable(getattr(stream, "write", None)):
        raise ValueError(f"expected a writable stream, got {stream!r}")
    writer = csv.writer(stream, lineterminator="\n")
    stream.write(CSV_HEADER + "\n")
    writer.writerows(astuple(row) for row in rows)


def run_verify(klass: str, n_max: int, instances: int, seed: int = 0) -> list[str]:
    """Cross-check the solver against the exact oracle on random ``tree``,
    ``cycle`` or ``clique`` instances; return one line per mismatch.

    The thresholds exercise every elimination branch: uniform in [1, d] for
    trees, {0, 1, 2, d+1} for cycles, uniform in [1, n+2] for cliques (where
    the closed form is checked as well).
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
