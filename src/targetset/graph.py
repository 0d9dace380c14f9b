"""The :class:`Graph` type, edge-list I/O, components, and the shared input
checks.  Edge-list and threshold files share one line format, defined by
``_int_pairs``, and one text reader, ``_read_text``.
"""

from __future__ import annotations

import os
import random
import sys
from collections import defaultdict
from itertools import count
from pathlib import Path
from typing import IO, Iterable, Iterator


class Graph:
    """Immutable simple undirected graph on the vertices ``0 .. n-1``.

    Invariant: ``adjacency[v]`` is a strictly increasing tuple of the other
    vertices adjacent to ``v``, and ``u`` is in ``adjacency[v]`` exactly when
    ``v`` is in ``adjacency[u]``.  The constructor drops self-loops and
    repeated edges.  ``labels``, when given, are the vertices' original ids.
    A vertex count that is not an int in ``0 .. sys.maxsize``, ``edges`` that
    is not an iterable of pairs, an endpoint whose type is not exactly int
    or out of range, and labels that are not ``n`` distinct ints raise
    ``ValueError``.
    """

    __slots__ = ("n", "m", "adjacency", "labels")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        labels: Iterable[int] | None = None,
    ):
        if type(n) is not int:  # a bool count would pass as 0 or 1
            raise ValueError(f"vertex count and edge endpoints must be ints (n={n!r})")
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        _check_count("vertex count", n, 0)
        try:
            edges = iter(edges)
        except TypeError:
            raise ValueError(f"edges must be an iterable of (u, v) pairs, got {edges!r}") from None
        adj: list = [[] for _ in range(n)]
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise ValueError(f"edges must be an iterable of (u, v) pairs, got item {edge!r}") from None
            if not (type(u) is int and type(v) is int):  # a float, a bool or another int subclass
                raise ValueError(f"edge endpoints must be ints, got ({u!r}, {v!r})")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u != v:
                adj[u].append(v)
                adj[v].append(u)
        _normalise(adj)
        self.n = n
        self.m = sum(map(len, adj)) // 2
        self.adjacency = adj
        if labels is not None:
            try:
                labels = tuple(labels)
                distinct = len(set(labels))
            except TypeError:
                raise ValueError("labels must be an iterable of hashable ids") from None
            for label in labels:
                if type(label) is not int:  # the only ids an edge-list file can hold
                    raise ValueError(f"labels must be ints, got {label!r}")
            if len(labels) != n:
                raise ValueError("labels length must equal the vertex count")
            if distinct < n:
                raise ValueError("labels must be distinct")
        self.labels = labels

    @classmethod
    def _from_adjacency(cls, adj: list[tuple[int, ...]], labels: tuple | None = None) -> "Graph":
        """Graph whose adjacency is ``adj`` and whose labels are ``labels``,
        taken as they are; the caller guarantees the class invariant."""
        g = cls.__new__(cls)
        g.n = len(adj)
        g.m = sum(map(len, adj)) // 2
        g.adjacency = adj
        g.labels = labels
        return g

    @property
    def degrees(self) -> list[int]:
        return list(map(len, self.adjacency))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once, as (u, v) with u < v."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def original_id(self, v: int):
        """The original id of vertex ``v``; raises as ``original_ids`` does."""
        return self.original_ids([v])[0]

    def original_ids(self, vertices: Iterable[int]) -> list:
        """The original ids of ``vertices`` in input order (on an unlabeled graph,
        the vertices).  Anything but ints in ``range(n)`` raises ``ValueError``."""
        ids = _vertex_ids(self.n, vertices, "input")
        return ids if self.labels is None else [self.labels[v] for v in ids]

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _check_int(name: str, value, least: int | None = None) -> None:
    """Reject ``value`` with ``ValueError`` unless it is an int (a bool is
    not) and, when ``least`` is given, at least ``least``."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")


def _check_count(name: str, n, least: int) -> None:
    """``_check_int`` for a vertex count, which must also be <= ``sys.maxsize``."""
    _check_int(name, n, least)
    if n > sys.maxsize:
        raise ValueError(f"{name} must be at most sys.maxsize ({sys.maxsize}), got {n}")


def _vertex_ids(n: int, vertices: Iterable[int], what: str) -> list[int]:
    """``vertices`` as a list in input order; the one rule for a vertex id
    given to the package is an int (a bool is not) in ``range(n)``.  A
    non-iterable, then the first id that breaks the rule, raises ``ValueError``."""
    try:
        ordered = iter(vertices)
    except TypeError:
        raise ValueError(f"{what}s must be an iterable of vertex ids, got {vertices!r}") from None
    ids = list(ordered)
    for v in ids:
        if type(v) is not int:
            raise ValueError(f"{what} vertex is not an int: {v!r}")
        if not 0 <= v < n:
            raise ValueError(f"{what} vertex {v} out of range for n={n}")
    return ids


def _check_graph(g) -> None:
    """Reject ``g`` with ``ValueError`` unless it is a :class:`Graph`."""
    if not isinstance(g, Graph):
        raise ValueError(f"expected a Graph, got {g!r}")


def _rng(seed: int | None) -> random.Random:
    """The random stream of an int seed (a bool is not one), or a freshly
    seeded stream for ``None``; any other seed raises ``ValueError``."""
    if seed is not None:
        _check_int("seed", seed)
    return random.Random(seed)


def connected_components(g: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by smallest member."""
    _check_graph(g)
    seen = [False] * g.n
    adj = g.adjacency
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
    """True iff ``g`` has at most one connected component."""
    return len(connected_components(g)) <= 1


def _normalise(adj: list) -> None:
    """Replace every adjacency list of ``adj`` by the sorted tuple of its
    distinct neighbors; the one normalisation rule of :class:`Graph`."""
    for v, lst in enumerate(adj):
        lst.sort()
        adj[v] = tuple(sorted(set(lst))) if len(set(lst)) < len(lst) else tuple(lst)


def _read_text(source: str | Path | bytes | IO) -> str:
    """The text of a path, bytes, or an open text or binary stream; any
    other source, or a stream whose ``read()`` gives neither str nor bytes,
    raises ``ValueError``."""
    if hasattr(source, "read"):
        data = source.read()
        if not isinstance(data, (str, bytes)):
            raise ValueError(f"expected a stream of str or bytes, its read() gave {type(data).__name__}")
        return data.decode() if isinstance(data, bytes) else data
    if isinstance(source, bytes):
        return source.decode()
    return Path(_check_path(source)).read_text()


def _check_path(path):
    """``path`` itself when it is a str or a path object; anything else
    raises ``ValueError``, where ``Path`` would raise ``TypeError``."""
    if not isinstance(path, (str, os.PathLike)):
        raise ValueError(f"expected a file path or a stream, got {path!r}")
    return path


_CHUNK_CHARS = 1 << 16  # characters per chunk of an edge-list load


def _int_pairs(lines: list[str], expected: str) -> Iterator[tuple[int, int, int]]:
    """Yield ``(lineno, a, b)`` for each line of two-integer text that is
    neither blank nor a comment (``#`` or ``%`` first).  The first line that
    does not hold exactly two integer tokens raises ``ValueError`` naming it,
    with ``expected`` describing the wanted shape, after the pairs before it."""
    for lineno, raw in enumerate(lines, start=1):
        # A blank line leaves "" after lstrip, and "" is in "#%" too.
        if raw.lstrip()[:1] in "#%":
            continue
        parts = raw.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected {expected}, got {raw!r}")
        try:
            a, b = map(int, parts)
        except ValueError:
            raise ValueError(f"line {lineno}: malformed integer token in {raw!r}") from None
        yield lineno, a, b


def load_edge_list(source: str | Path | bytes | IO) -> Graph:
    """Load a graph from edge-list text (a path, bytes, or an open stream).

    Format: one edge per line as two whitespace-separated integer tokens.
    Lines starting with ``#`` or ``%`` are comments.  Self-loops are dropped,
    duplicates (including reversed repeats) are merged, and arbitrary external
    ids are compacted to ``0..n-1`` in order of first appearance; the original
    ids are kept in ``Graph.labels``.  The text is read in chunks of whole
    lines, each filled into the adjacency before the next is read.  A
    malformed line (named by its number) or an input without vertices
    raises ``ValueError``.
    """
    text = _read_text(source)
    eol = "\n" if "\n" in text else "\r"  # a text may end its lines with a lone "\r"
    index: dict[int, int] = defaultdict(count().__next__)  # a new id gets the next vertex
    adj: list[list[int]] = []
    try:
        lo = 0
        while lo < len(text):
            hi = text.find(eol, lo + _CHUNK_CHARS) + 1 or len(text)  # cut after a line end
            chunk = text[lo:hi]
            lo = hi
            data = list(filter(str.strip, chunk.splitlines()))
            if "#" in chunk or "%" in chunk:  # rare past a file's header
                data = [line for line in data if line.lstrip()[0] not in "#%"]
            if not data:
                continue
            tokens = " | ".join(data).split()  # a "|" in every third slot iff all lines hold two tokens
            if len(tokens) != 3 * len(data) - 1 or tokens[2::3].count("|") != len(data) - 1:
                raise ValueError
            del tokens[2::3]
            values = list(map(int, tokens))  # first, so vertex ints sit side by side (CHANGES.md)
            del tokens
            pairs = iter(list(map(index.__getitem__, values)))
            adj += [[] for _ in range(len(index) - len(adj))]
            for u, v in zip(pairs, pairs):
                if u != v:
                    adj[u].append(v)
                    adj[v].append(u)
            del values, pairs  # the next chunk's token ints refill this memory
    except ValueError:  # no bulk pass stops at a bad line; the per-line reader names it
        for _ in _int_pairs(text.splitlines(), "two integer tokens"):
            pass
        raise AssertionError("the bulk read failed on lines that read back clean")
    if not index:
        raise ValueError("empty graph")
    _normalise(adj)
    return Graph._from_adjacency(adj, tuple(index))


def write_edge_list(g: Graph, target: str | Path | IO) -> None:
    """Write one "u v" line per edge, then one "v v" line per vertex without
    edges (the loader keeps it and drops the self-loop), in the graph's
    original ids, so a loaded graph round-trips.  A ``target`` that is
    neither writable nor a path raises ``ValueError``."""
    _check_graph(g)
    name = g.original_ids(range(g.n))
    lines = [f"{name[u]} {name[v]}" for u, v in g.edges()]
    lines += [f"{name[v]} {name[v]}" for v, nbrs in enumerate(g.adjacency) if not nbrs]
    text = "\n".join(lines) + ("\n" if lines else "")
    if hasattr(target, "write"):
        target.write(text)
    else:
        Path(_check_path(target)).write_text(text)
