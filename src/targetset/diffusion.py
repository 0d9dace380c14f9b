"""Synchronous threshold activation and target-set checking: a vertex
activates in a round once its neighbors active at the end of the previous
round reach its threshold, and a target set activates every vertex.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import Graph, _check_graph, _vertex_ids
from .thresholds import check_thresholds


@dataclass(frozen=True)
class ActivationTrace:
    """One activation run: ``rounds[0]`` is the seed set and ``rounds[i]`` the
    vertices newly activated at round ``i``; the rounds are pairwise disjoint
    with union ``active``.  ``converged_round``, at most n, is the first round
    after which nothing changes."""

    rounds: list[set[int]]
    active: set[int]
    converged_round: int


def _spread(g: Graph, t: Sequence[int], seeds: Iterable[int]) -> tuple[list[int], list[int]]:
    """Run the synchronous activation process to its fixpoint; return the
    active vertices in activation order and each vertex's round (-1 if it
    never activates).  One FIFO worklist over remaining-need counters,
    O(n + m): rounds in the queue never decrease, so u's need is met by its
    t(u)-th earliest active neighbor, in exactly the synchronous round.
    """
    check_thresholds(g, t)
    adj = g.adjacency
    queue = list(set(_vertex_ids(g.n, seeds, "seed")))
    round_of = [-1 if tv else 1 for tv in t]
    for s in queue:
        round_of[s] = 0
    queue += [u for u, r in enumerate(round_of) if r == 1]
    need = list(t)
    for v in queue:
        r = round_of[v] + 1
        for u in adj[v]:
            if round_of[u] < 0:
                need[u] -= 1
                if need[u] == 0:
                    round_of[u] = r
                    queue.append(u)
    return queue, round_of


def run_activation(g: Graph, t: Sequence[int], seeds: Iterable[int]) -> ActivationTrace:
    """Run the synchronous activation process to its fixpoint, round by round."""
    queue, round_of = _spread(g, t, seeds)
    rounds: list[set[int]] = [set() for _ in range(round_of[queue[-1]] + 1 if queue else 1)]
    for v in queue:
        rounds[round_of[v]].add(v)
    return ActivationTrace(rounds=rounds, active=set(queue), converged_round=len(rounds) - 1)


def is_target_set(g: Graph, t: Sequence[int], seeds: Iterable[int]) -> bool:
    """True iff activating from ``seeds`` eventually activates every vertex."""
    return len(_spread(g, t, seeds)[0]) == g.n


def format_trace(trace: ActivationTrace, g: Graph | None = None) -> str:
    """Render a trace one line per round, ``i: sorted vertex ids``, in ``g``'s
    original ids when ``g`` is given.  A non-trace ``trace``, a ``g`` neither
    ``None`` nor a ``Graph``, rounds that are not vertex iterables and a vertex
    outside ``range(g.n)`` (without ``g``, outside every graph's) raise ``ValueError``."""
    if not isinstance(trace, ActivationTrace):
        raise ValueError(f"expected an ActivationTrace, got {trace!r}")
    if g is not None:
        _check_graph(g)
    try:
        rounds = list(map(list, trace.rounds))
    except TypeError:
        raise ValueError(f"trace rounds must be vertex iterables, got {trace.rounds!r}") from None
    n, name = (sys.maxsize, list) if g is None else (g.n, g.original_ids)  # no Graph has n > maxsize
    ids = [sorted(name(_vertex_ids(n, vertices, "trace"))) for vertices in rounds]
    return "\n".join(f"{i}: {' '.join(map(str, r))}" for i, r in enumerate(ids))
