"""Synthetic graph generators and a small source-description record."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations
from numbers import Real

from .graph import Graph, _check_count, _rng, load_edge_list


def gnp(n: int, p: float, seed: int | None = None) -> Graph:
    """Erdos-Renyi G(n, p): every vertex pair is an edge independently with
    probability p, reproducibly from the seed.

    Uses geometric skip sampling (Batagelj & Brandes, Phys. Rev. E 71,
    036113, 2005), so the cost is O(n + m) rather than one Bernoulli draw
    per pair; the edge distribution is the same.  The pairs (v, w), w < v,
    are visited in lexicographic order, so every adjacency list comes out
    sorted, without repeats or self-loops.  ``n`` must be an int in
    ``1 .. sys.maxsize`` and ``p`` a real in (0, 1), else ``ValueError``.
    """
    _check_count("gnp n", n, 1)
    if not isinstance(p, Real):
        raise ValueError(f"gnp needs a real p, got {p!r}")
    if not 0.0 < p < 1.0:
        raise ValueError("gnp needs 0 < p < 1")
    uniform = _rng(seed).random
    log = math.log
    floor = math.floor
    log_q = math.log1p(-p)
    # skip >= limit iff skip >= the pair count, and floor(skip) == int(skip)
    # past that break; the float forms are the faster ones (CHANGES.md).
    limit = _float_ceiling(n * (n - 1) // 2)
    ids = list(range(n))  # one shared int object per vertex id (CHANGES.md)
    adj: list[list[int]] = [[] for _ in ids]
    # Row 0 has no pairs (w < v), so the first draw always advances to
    # row 1 or beyond and binds the row before any edge is added.
    v, w = 0, -1
    while True:
        skip = log(1.0 - uniform()) / log_q
        if skip >= limit:  # passes the last pair; may be inf for a tiny p
            break
        w += floor(skip) + 1
        if w >= v:
            while w >= v and v < n:
                w -= v
                v += 1
            if v == n:
                break
            row_id = ids[v]
            row = adj[v]
        row.append(ids[w])
        adj[w].append(row_id)
    # Freeze while every list is alive, so the tuples lie in vertex order (CHANGES.md).
    return Graph._from_adjacency(list(map(tuple, adj)))


def _float_ceiling(x: int) -> float:
    """The smallest float >= the int ``x``.  ``float(x)`` rounds to nearest,
    so past 2**53 it can fall below ``x``; it is then stepped up once."""
    f = float(x)
    return math.nextafter(f, math.inf) if f < x else f


def random_tree(n: int, seed: int | None = None) -> Graph:
    """Uniform random labeled tree on n vertices, decoded from a random
    Prufer sequence."""
    _check_count("tree n", n, 1)
    rng = _rng(seed)
    if n == 1:
        return Graph(1)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapify(leaves)
    edges: list[tuple[int, int]] = []
    for x in seq:
        leaf = heappop(leaves)
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1:
            heappush(leaves, x)
    u = heappop(leaves)
    v = heappop(leaves)
    edges.append((u, v))
    return Graph(n, edges)


def cycle_graph(n: int) -> Graph:
    """Cycle on n >= 3 vertices, ``i`` adjacent to ``i + 1 mod n``."""
    _check_count("cycle n", n, 3)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def clique_graph(n: int) -> Graph:
    """Complete graph on n >= 1 vertices."""
    _check_count("clique n", n, 1)
    return Graph(n, combinations(range(n), 2))


def star_graph(n: int) -> Graph:
    """Star on n vertices; vertex 0 is the center."""
    _check_count("star n", n, 2)
    return Graph(n, [(0, i) for i in range(1, n)])


# The source kinds whose graph depends on the seed.
_SEEDED_KINDS = frozenset({"gnp", "tree"})


@dataclass(frozen=True)
class GraphSource:
    """Where a graph comes from, parsed from a spec: ``gnp:N:P``, ``tree:N``,
    ``cycle:N``, ``clique:N``, ``star:N`` or ``edges:PATH``.  Parsing checks
    the spec's shape (``ValueError``); the generators check its values when
    :meth:`build` runs.  The seed comes from :meth:`with_seed`.
    """

    kind: str
    n: int = 0
    p: float = 0.0
    path: str | None = None
    seed: int | None = None

    @classmethod
    def parse(cls, spec: str) -> "GraphSource":
        if not isinstance(spec, str):
            raise ValueError(f"graph spec must be a string, got {spec!r}")
        kind, _, rest = spec.partition(":")
        try:
            if kind == "gnp":
                n_s, _, p_s = rest.partition(":")
                return cls("gnp", n=int(n_s), p=float(p_s))
            if kind in ("tree", "cycle", "clique", "star"):
                return cls(kind, n=int(rest))
            if kind == "edges":
                if not rest:
                    raise ValueError("edges source needs a file path")
                return cls("edges", path=rest)
        except ValueError as exc:
            raise ValueError(f"bad graph spec {spec!r}: {exc}") from None
        raise ValueError(f"bad graph spec {spec!r}")

    def with_seed(self, seed: int | None) -> "GraphSource":
        return dataclasses.replace(self, seed=seed)

    @property
    def name(self) -> str:
        if self.kind == "edges":
            return f"edges:{self.path}"
        if self.kind == "gnp":
            return f"gnp:{self.n}:{self.p!r}"
        return f"{self.kind}:{self.n}"

    def build(self) -> Graph:
        if self.kind == "edges":
            return load_edge_list(self.path)
        if self.kind == "gnp":
            return gnp(self.n, self.p, self.seed)
        if self.kind == "tree":
            return random_tree(self.n, self.seed)
        if self.kind == "cycle":
            return cycle_graph(self.n)
        if self.kind == "clique":
            return clique_graph(self.n)
        if self.kind == "star":
            return star_graph(self.n)
        raise ValueError(f"unknown graph source kind {self.kind!r}")
