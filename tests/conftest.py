"""Shared instance builders for the test suite."""

from __future__ import annotations

import random
from pathlib import Path

from targetset import (
    Graph,
    clique_graph,
    cycle_graph,
    derive_seed,
    gnp,
    random_tree,
    star_graph,
)


def activation_closure(g: Graph, t, seeds) -> set[int]:
    """Final active set by exhaustive re-scanning, with no round bookkeeping.

    Deliberately naive (recounts active neighbors from scratch on every
    sweep): it is the reference the worklist engine of ``run_activation``
    and ``is_target_set`` is checked against, and shows that the fixpoint
    does not depend on processing order.
    """
    active = set(seeds)
    changed = True
    while changed:
        changed = False
        for u in range(g.n):
            if u not in active:
                hits = sum(1 for w in g.adjacency[u] if w in active)
                if hits >= t[u]:
                    active.add(u)
                    changed = True
    return active


def read_int_pairs_by_line(source, expected: str):
    """Yield ``(lineno, a, b)`` for each data line of two-integer text.

    The per-line reader that ``load_edge_list`` and ``load_thresholds`` are
    checked against: one ``int()`` per token, and the first bad line raises
    as soon as it is reached.
    """
    if hasattr(source, "read"):
        data = source.read()
        text = data.decode() if isinstance(data, bytes) else data
    elif isinstance(source, bytes):
        text = source.decode()
    else:
        text = Path(source).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] in "#%":
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected {expected}, got {raw!r}")
        try:
            a = int(parts[0])
            b = int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: malformed integer token in {raw!r}") from None
        yield lineno, a, b


def load_edge_list_by_line(source) -> Graph:
    """``load_edge_list`` one pair at a time, through the checked constructor."""
    ids: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    for _, a, b in read_int_pairs_by_line(source, "two integer tokens"):
        if a not in ids:
            ids[a] = len(ids)
        if b not in ids:
            ids[b] = len(ids)
        edges.append((ids[a], ids[b]))
    if not ids:
        raise ValueError("empty graph")
    return Graph(len(ids), edges, labels=tuple(ids))


def load_thresholds_by_line(g: Graph, source) -> list[int]:
    """``load_thresholds`` one line at a time, each error raised where it is read."""
    to_internal = {g.original_id(v): v for v in range(g.n)}
    values: dict[int, int] = {}
    for lineno, orig, tv in read_int_pairs_by_line(source, "'vertex_id threshold'"):
        if orig not in to_internal:
            raise ValueError(f"line {lineno}: unknown vertex id {orig}")
        if tv < 0:
            raise ValueError(f"line {lineno}: negative threshold for vertex {orig}")
        v = to_internal[orig]
        if v in values:
            raise ValueError(f"line {lineno}: duplicate vertex id {orig}")
        values[v] = tv
    missing = [g.original_id(v) for v in range(g.n) if v not in values]
    if missing:
        raise ValueError(f"threshold file misses vertices: {missing}")
    return [values[v] for v in range(g.n)]


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def random_instance(seed: int, n_max: int = 40) -> tuple[Graph, list[int]]:
    """A small random (graph, thresholds) pair covering several families and
    threshold styles, reproducible from the seed."""
    rng = random.Random(seed)
    family = rng.choice(("gnp", "tree", "cycle", "clique", "star"))
    n = rng.randint(3, n_max)
    if family == "gnp":
        g = gnp(n, rng.choice((0.1, 0.2, 0.3, 0.5, 0.7)), seed=derive_seed(seed, "g"))
    elif family == "tree":
        g = random_tree(n, seed=derive_seed(seed, "g"))
    elif family == "cycle":
        g = cycle_graph(n)
    elif family == "clique":
        g = clique_graph(min(n, 12))
    else:
        g = star_graph(n)
    style = rng.choice(("random", "degree", "const", "wild"))
    if style == "random":
        t = [rng.randint(1, d) if d else 0 for d in g.degrees]
    elif style == "degree":
        t = g.degrees
    elif style == "const":
        c = rng.randint(1, 10)
        t = [min(c, d) for d in g.degrees]
    else:
        # anything nonnegative, including 0 and values above the degree
        t = [rng.randint(0, d + 2) for d in g.degrees]
    return g, t


def connected_gnp(seed: int, n_lo: int = 10, n_hi: int = 60) -> Graph:
    """A connected G(n, p) instance, by rejection over derived seeds."""
    from targetset import is_connected

    rng = random.Random(seed)
    n = rng.randint(n_lo, n_hi)
    p = min(0.95, max(0.12, 3.0 / n + rng.random() * 0.4))
    for attempt in range(1000):
        g = gnp(n, p, seed=derive_seed(seed, "gnp", attempt))
        if is_connected(g):
            return g
    raise AssertionError("could not draw a connected graph")
