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
    are visited in lexicographic order, so each vertex receives its smaller
    neighbors in increasing order before any larger one, also in increasing
    order: every adjacency list comes out sorted, without repeats or
    self-loops.  At the end one C-level pass, ``list(map(tuple, adj))``,
    freezes the lists into the graph's tuples while every list is still
    alive, so the tuples are laid out in fresh memory in vertex order.  At
    n = 100000 a solve and its target-set check ran about 11% faster on
    them than on tuples frozen in place one list at a time, which take the
    freed lists' scattered memory, though the pass holds both forms at once
    (a tracemalloc peak of the build of 32.4 against 20.2 MiB).

    Every entry is taken from one ``ids = list(range(n))``, so each vertex
    id is a single int object shared by every list that names it.  The
    skip arithmetic makes a fresh int for each lower endpoint, and on
    G(100000, 10/n) those copies took 15 of the graph's 34 MiB.  The row
    vertex and its list are bound once per row.

    Two steps of the loop are cheaper forms that keep the random stream, each
    float operation of a skip, and so the edge order and every list.  A skip
    is compared with ``limit``, the smallest float >= the int pair count
    ``pairs = n(n - 1)/2`` (:func:`_float_ceiling`): for a float skip,
    ``skip >= limit`` holds exactly when ``skip >= pairs`` does, and a
    float-to-float compare is cheaper than a float-to-int one.  Past that
    break a skip is finite and >= 0 (or -0.0), so ``floor(skip)`` is the int
    that ``int(skip)`` would truncate it to, without a call to the ``int``
    type.
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
    limit = _float_ceiling(n * (n - 1) // 2)
    ids = list(range(n))
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
    _check_count("cycle n", n, 3)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def clique_graph(n: int) -> Graph:
    _check_count("clique n", n, 1)
    return Graph(n, combinations(range(n), 2))


def star_graph(n: int) -> Graph:
    """Star on n vertices; vertex 0 is the center."""
    _check_count("star n", n, 2)
    return Graph(n, [(0, i) for i in range(1, n)])


# The source kinds whose graph depends on the seed; every other kind builds
# the same graph whatever the seed.
_SEEDED_KINDS = frozenset({"gnp", "tree"})


@dataclass(frozen=True)
class GraphSource:
    """Where a graph comes from: an edge-list file or a named generator.

    Parseable from compact spec strings as used by the CLI and the benchmark
    harness: ``gnp:N:P``, ``tree:N``, ``cycle:N``, ``clique:N``, ``star:N``,
    ``edges:PATH``.  Parsing checks the spec's shape; the generators check
    its values when :meth:`build` runs.  A spec has no seed field: the
    random generators take their seed from :meth:`with_seed`.
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
