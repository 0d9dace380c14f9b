"""Simple undirected graphs with contiguous integer vertex ids.

The whole library works on :class:`Graph`: an immutable simple undirected
graph whose vertices are exactly ``0 .. n-1``, stored as sorted adjacency
lists.  Graphs loaded from edge-list files keep the original external ids in
``labels`` so results can be reported in the caller's id space.

Edge-list and threshold files share one format, defined by the per-line
reader ``_int_pairs``, which raises at the first bad line.  Threshold files
are read through it, edge lists through the bulk ``_read_int_pairs``: that
converts the tokens with ``map(int, ...)`` a chunk of lines at a time (one
conversion of a whole file would keep every token string alive next to its
int and raise the peak memory of a load) and runs ``_int_pairs`` only to
name a bad line.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import IO, Iterable, Iterator


class Graph:
    """Immutable simple undirected graph.

    The constructor normalizes its input: self-loops are dropped, every
    adjacency list is sorted, and a list that then holds a repeated neighbor
    (a duplicate edge, in either orientation) is rebuilt without it
    (``_normalise``, which :func:`load_edge_list` applies too).  An
    endpoint whose type is not exactly int (a bool, a float or an
    ``IntEnum``) and a repeated label raise ``ValueError``.  ``adjacency[v]``
    is the sorted neighbor list of ``v``; the lists are exposed directly for
    speed and must not be mutated.

    :meth:`_from_adjacency` wraps lists that already hold this invariant
    without checking it: each list is strictly increasing, holds int ids of
    other vertices only, and ``u`` is in ``adj[v]`` exactly when ``v`` is in
    ``adj[u]``.  Its callers are ``generators.gnp``, whose skip sampler
    emits such lists, and :func:`load_edge_list`, which normalises the lists
    it fills.  Both bulk builders fill the lists with one shared int object
    per vertex id (``gnp`` from a list of ids, the loader from its id map),
    so an id costs one object however many lists name it.
    """

    __slots__ = ("n", "m", "adjacency", "labels")

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
                if not (type(u) is int and type(v) is int):
                    raise TypeError  # a float, a bool or another int subclass
                if u != v:
                    adj[u].append(v)
                    adj[v].append(u)
            _normalise(adj)
        except TypeError:
            raise ValueError(f"vertex count and edge endpoints must be ints (n={n!r})") from None
        self.n = n
        self.m = sum(map(len, adj)) // 2
        self.adjacency = adj
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("labels length must equal the vertex count")
        if self.labels is not None and len(set(self.labels)) < n:
            raise ValueError("labels must be distinct")

    @classmethod
    def _from_adjacency(cls, adj: list[list[int]], labels: tuple | None = None) -> "Graph":
        """Graph on ``len(adj)`` vertices that takes ``adj`` as its adjacency
        and ``labels`` (a tuple of ``len(adj)`` distinct ids, or ``None``) as
        they are, unchecked; the caller guarantees the class invariant."""
        g = cls.__new__(cls)
        g.n = len(adj)
        g.m = sum(map(len, adj)) // 2
        g.adjacency = adj
        g.labels = labels
        return g

    @property
    def degrees(self) -> list[int]:
        return [len(lst) for lst in self.adjacency]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once, as (u, v) with u < v."""
        for u, nbrs in enumerate(self.adjacency):
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
    return g.n <= 1 or len(connected_components(g)) == 1


def _normalise(adj: list[list[int]]) -> None:
    """Sort every adjacency list in place, then rebuild each list that holds
    a repeated neighbor without it.

    This is the one normalisation rule of :class:`Graph`; its callers drop
    self-loops and admit only int ids as they fill the lists.
    """
    for v, lst in enumerate(adj):
        lst.sort()
        if len(set(lst)) < len(lst):
            adj[v] = sorted(set(lst))


def _read_lines(source: str | Path | bytes | IO) -> list[str]:
    """The lines of a path, bytes, or an open text or binary stream."""
    if hasattr(source, "read"):
        data = source.read()
        text = data.decode() if isinstance(data, bytes) else data
    elif isinstance(source, bytes):
        text = source.decode()
    else:
        text = Path(source).read_text()
    return text.splitlines()


# Lines per conversion chunk: it bounds the token strings alive at once.
# Converting all 500k tokens of a 250k-edge file in one go raised the peak
# RSS of a load-then-solve run from 69 to 84 MiB.
_CHUNK_LINES = 4096


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


def _read_int_pairs(lines: list[str], expected: str) -> list[int]:
    """The tokens of ``_int_pairs``' format, flat: ``a0, b0, a1, b1, ...``.

    A chunk of lines is read in C-level passes: drop blank and comment
    lines, check that each line left splits into two tokens, then split the
    joined chunk and convert its tokens with ``map(int, ...)``.  No pass
    stops at a bad line, so a failure runs ``_int_pairs`` over the lines to
    raise the error that names it.
    """
    values: list[int] = []
    try:
        for lo in range(0, len(lines), _CHUNK_LINES):
            data = [line for line in lines[lo : lo + _CHUNK_LINES] if line.lstrip()[:1] not in "#%"]
            if any(map((2).__ne__, map(len, map(str.split, data)))):
                raise ValueError
            values += map(int, " ".join(data).split())
        return values
    except ValueError:
        pass
    for _ in _int_pairs(lines, expected):
        pass
    raise AssertionError("the bulk read failed on lines that read back clean")


def load_edge_list(source: str | Path | bytes | IO) -> Graph:
    """Load a graph from edge-list text (a path, bytes, or an open stream).

    Format: one edge per line as two whitespace-separated integer tokens.
    Lines starting with ``#`` or ``%`` are comments.  Self-loops are dropped,
    duplicates (including reversed repeats) are merged, and arbitrary external
    ids are compacted to ``0..n-1`` in order of first appearance; the original
    ids are kept in ``Graph.labels``.

    The tokens are read in bulk (``_read_int_pairs``, in the format of
    ``_int_pairs``).  ``dict.fromkeys`` then lists the distinct ids in order
    of first appearance, one dict lookup per token maps them to vertices,
    and the adjacency is filled, normalised by the same rule as the
    constructor's and handed to :meth:`Graph._from_adjacency` unchecked.

    Raises:
        ValueError: on a malformed line (message carries the line number) or
            when the input contains no vertices at all.
    """
    values = _read_int_pairs(_read_lines(source), "two integer tokens")
    if not values:
        raise ValueError("empty graph")
    labels = tuple(dict.fromkeys(values))
    ids = list(map(dict(zip(labels, range(len(labels)))).__getitem__, values))
    del values  # frees one int per token before the lists are filled
    adj: list[list[int]] = [[] for _ in labels]
    pairs = iter(ids)
    for u, v in zip(pairs, pairs):
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    _normalise(adj)
    return Graph._from_adjacency(adj, labels)


def write_edge_list(g: Graph, target: str | Path | IO) -> None:
    """Write the graph as edge-list text, one "u v" line per edge, then one
    "v v" line per vertex without edges (the loader keeps such a vertex and
    drops the self-loop).

    Vertices are written in the graph's reporting id space, so a loaded
    graph round-trips through its original ids.
    """
    name = g.original_id
    lines = [f"{name(u)} {name(v)}" for u, v in g.edges()]
    lines += [f"{name(v)} {name(v)}" for v, nbrs in enumerate(g.adjacency) if not nbrs]
    text = "\n".join(lines) + ("\n" if lines else "")
    if hasattr(target, "write"):
        target.write(text)
    else:
        Path(target).write_text(text)
