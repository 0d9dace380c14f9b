"""Simple undirected graphs with contiguous integer vertex ids.

The whole library works on :class:`Graph`: an immutable simple undirected
graph whose vertices are exactly ``0 .. n-1``, stored as sorted adjacency
lists.  Graphs loaded from edge-list files keep the original external ids in
``labels`` so results can be reported in the caller's id space.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from pathlib import Path
from typing import IO, Iterable, Iterator


class Graph:
    """Immutable simple undirected graph.

    The constructor normalizes its input: self-loops are dropped, every
    adjacency list is sorted, and a list that then holds a repeated neighbor
    (a duplicate edge, in either orientation) is rebuilt without it.  An
    endpoint that is not an int (a bool or a float included) and a repeated
    label raise ``ValueError``.  The adjacency lists are exposed directly for
    speed and must not be mutated.

    :meth:`_from_adjacency` wraps lists that already hold this invariant
    without checking it: each list is strictly increasing, holds int ids of
    other vertices only, and ``u`` is in ``adj[v]`` exactly when ``v`` is in
    ``adj[u]``.  Its one caller is ``generators.gnp``, whose skip sampler
    emits such lists.
    """

    __slots__ = ("n", "m", "_adj", "labels")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        labels: Iterable[int] | None = None,
    ):
        try:
            if type(n) is not int:
                raise TypeError  # a bool count would pass as 0 or 1
            if n < 0:
                raise ValueError("vertex count must be nonnegative")
            adj: list[list[int]] = [[] for _ in range(n)]
            for u, v in edges:
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
                if u != v:
                    adj[u].append(v)
                    adj[v].append(u)
                elif type(u) is not int or type(v) is not int:
                    raise TypeError  # a float or bool self-loop
            for v, lst in enumerate(adj):
                lst.sort()
                # A bool endpoint equals 0 or 1, so sorting moves it into the
                # run of entries <= 1 at the front of its neighbor's list.
                if lst and lst[0] <= 1:
                    if any(type(x) is not int for x in lst[: bisect_right(lst, 1)]):
                        raise TypeError
                if len(set(lst)) < len(lst):
                    adj[v] = sorted(set(lst))
        except TypeError:
            raise ValueError(f"vertex count and edge endpoints must be ints (n={n!r})") from None
        self.n = n
        self.m = sum(map(len, adj)) // 2
        self._adj = adj
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("labels length must equal the vertex count")
        if self.labels is not None and len(set(self.labels)) < n:
            raise ValueError("labels must be distinct")

    @classmethod
    def _from_adjacency(cls, adj: list[list[int]]) -> "Graph":
        """Unlabelled graph on ``len(adj)`` vertices that takes ``adj`` as its
        adjacency unchecked; the caller guarantees the class invariant."""
        g = cls.__new__(cls)
        g.n = len(adj)
        g.m = sum(map(len, adj)) // 2
        g._adj = adj
        g.labels = None
        return g

    @property
    def adjacency(self) -> list[list[int]]:
        """Per-vertex sorted neighbor lists (read-only by convention)."""
        return self._adj

    def neighbors(self, v: int) -> list[int]:
        return self._adj[v]

    @property
    def degrees(self) -> list[int]:
        return [len(lst) for lst in self._adj]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once, as (u, v) with u < v."""
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def original_id(self, v: int):
        return self.labels[v] if self.labels is not None else v

    def original_ids(self, vertices: Iterable[int]) -> list:
        return [self.original_id(v) for v in vertices]

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _check_int(name: str, value, least: int | None = None) -> None:
    """Reject ``value`` with ``ValueError`` unless it is an int (a bool is
    not) and, when ``least`` is given, at least ``least``."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")


def _rng(seed: int | None) -> random.Random:
    """The random stream of an int seed (a bool is not one), or a freshly
    seeded stream for ``None``; any other seed raises ``ValueError``."""
    if seed is not None:
        _check_int("seed", seed)
    return random.Random(seed)


def connected_components(g: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by smallest member."""
    seen = [False] * g.n
    adj = g._adj
    comps: list[list[int]] = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        stack = [s]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
                    stack.append(u)
        comp.sort()
        comps.append(comp)
    return comps


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


def _read_int_pairs(source: str | Path | bytes | IO, expected: str) -> Iterator[tuple[int, int, int]]:
    """Yield ``(lineno, a, b)`` for each data line of two-integer text.

    ``source`` is a path, bytes, or an open text or binary stream.  Blank
    lines and lines starting with ``#`` or ``%`` are skipped.  Any other line
    must hold exactly two integer tokens; otherwise ``ValueError`` names the
    line number, with ``expected`` describing the wanted shape.
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


def load_edge_list(source: str | Path | bytes | IO) -> Graph:
    """Load a graph from edge-list text (a path, bytes, or an open stream).

    Format: one edge per line as two whitespace-separated integer tokens.
    Lines starting with ``#`` or ``%`` are comments.  Self-loops are dropped,
    duplicates (including reversed repeats) are merged, and arbitrary external
    ids are compacted to ``0..n-1`` in order of first appearance; the original
    ids are kept in ``Graph.labels``.

    Raises:
        ValueError: on a malformed line (message carries the line number) or
            when the input contains no vertices at all.
    """
    ids: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    for _, a, b in _read_int_pairs(source, "two integer tokens"):
        if a not in ids:
            ids[a] = len(ids)
        if b not in ids:
            ids[b] = len(ids)
        edges.append((ids[a], ids[b]))
    if not ids:
        raise ValueError("empty graph")
    return Graph(len(ids), edges, labels=tuple(ids))


def write_edge_list(g: Graph, target: str | Path | IO) -> None:
    """Write the graph as edge-list text, one "u v" line per edge.

    Vertices are written in the graph's reporting id space, so a loaded
    graph round-trips through its original ids.
    """
    lines = [f"{g.original_id(u)} {g.original_id(v)}" for u, v in g.edges()]
    text = "\n".join(lines) + ("\n" if lines else "")
    if hasattr(target, "write"):
        target.write(text)
    else:
        Path(target).write_text(text)
