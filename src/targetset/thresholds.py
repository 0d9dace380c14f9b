"""Threshold assignment policies.  An assignment is a list of nonnegative
ints, one per vertex: ``v`` activates once ``t[v]`` neighbors are active.
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path
from typing import IO

from .graph import Graph, _check_graph, _check_int, _int_pairs, _read_text, _rng


def check_thresholds(g: Graph, t: Sequence[int]) -> None:
    """Raise ``ValueError`` unless ``g`` is a :class:`Graph` and ``t`` is a
    sequence of ``g.n`` ints >= 0 (a dict or a set has no vertex order)."""
    _check_graph(g)
    if not isinstance(t, Sequence):
        raise ValueError(f"thresholds must be a sequence of ints, got {t!r}")
    if len(t) != g.n:
        raise ValueError(f"expected {g.n} thresholds, got {len(t)}")
    for v, tv in enumerate(t):
        if type(tv) is not int:
            raise ValueError(f"threshold of vertex {v} is not an int: {tv!r}")
        if tv < 0:
            raise ValueError(f"threshold of vertex {v} is negative")


def constant_capped(g: Graph, t: int) -> list[int]:
    """t(v) = min(t, d(v)) for a constant int t >= 1; an isolated vertex gets 0."""
    _check_graph(g)
    _check_int("constant-capped t", t, 1)
    return [d if d < t else t for d in map(len, g.adjacency)]


def random_in_degree(g: Graph, seed: int | None = None) -> list[int]:
    """Uniform random t(v) in [1, d(v)] per vertex (0 for isolated vertices).

    The values are those of successive ``randint(1, d)`` calls on
    ``random.Random(seed)``, whose ``getrandbits`` draws the loop inlines for
    speed (CHANGES.md).
    """
    _check_graph(g)
    draw = _rng(seed).getrandbits
    t: list[int] = []
    push = t.append
    for d in map(len, g.adjacency):
        if d:
            b = d.bit_length()
            r = draw(b)
            while r >= d:
                r = draw(b)
            push(r + 1)
        else:
            push(0)
    return t


def degree_thresholds(g: Graph) -> list[int]:
    """t(v) = d(v); under this policy any target set is a vertex cover."""
    _check_graph(g)
    return g.degrees


def load_thresholds(g: Graph, source: str | Path | bytes | IO) -> list[int]:
    """Read explicit "vertex_id threshold" lines, ids in the graph's original
    id space.  Every vertex must be covered exactly once; missing ones are
    listed in the error, and a repeated id is an error."""
    _check_graph(g)
    to_internal = {orig: v for v, orig in enumerate(g.original_ids(range(g.n)))}
    values: dict[int, int] = {}
    for lineno, orig, tv in _int_pairs(_read_text(source).splitlines(), "'vertex_id threshold'"):
        v = to_internal.get(orig)
        if v is None:
            raise ValueError(f"line {lineno}: unknown vertex id {orig}")
        if tv < 0:
            raise ValueError(f"line {lineno}: negative threshold for vertex {orig}")
        if v in values:
            raise ValueError(f"line {lineno}: duplicate vertex id {orig}")
        values[v] = tv
    missing = [orig for orig, v in to_internal.items() if v not in values]
    if missing:
        raise ValueError(f"threshold file misses vertices: {missing}")
    return [values[v] for v in range(g.n)]


def _parse_policy(policy: str) -> tuple[str, int | str | None]:
    """``(kind, arg)`` of a policy string: ``("const", T)``, ``("random", None)``,
    ``("degree", None)`` or ``("file", PATH)``.  The one reader of the policy
    format: anything else raises ``ValueError``."""
    if not isinstance(policy, str):
        raise ValueError(f"threshold policy must be a string, got {policy!r}")
    kind, _, arg = policy.partition(":")
    if kind == "const":
        try:
            return kind, int(arg)
        except ValueError:
            raise ValueError(f"bad constant-capped policy {policy!r}") from None
    if policy in ("random", "degree"):
        return policy, None
    if kind == "file":
        if not arg:
            raise ValueError("file policy needs a path, e.g. file:thresholds.txt")
        return kind, arg
    raise ValueError(f"unknown threshold policy {policy!r}")


def assign_thresholds(g: Graph, policy: str, seed: int | None = None) -> list[int]:
    """Dispatch on a policy string: ``const:T``, ``random``, ``degree``,
    ``file:PATH``."""
    kind, arg = _parse_policy(policy)
    if kind == "const":
        return constant_capped(g, arg)
    if kind == "random":
        return random_in_degree(g, seed)
    if kind == "degree":
        return degree_thresholds(g)
    return load_thresholds(g, arg)
