"""Synchronous threshold activation and target-set checking.

Starting from a seed set, activation spreads in rounds: a vertex becomes
active in a round as soon as the number of its neighbors active at the end of
the previous round reaches its threshold.  A seed set whose process
eventually activates every vertex is a target set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import Graph
from .thresholds import check_thresholds


@dataclass(frozen=True)
class ActivationTrace:
    """One activation run.

    ``rounds[0]`` is the seed set; ``rounds[i]`` holds the vertices newly
    activated at round ``i``.  The round sets are pairwise disjoint and their
    union is ``active``.  ``converged_round`` is the first round after which
    nothing changes; it is at most n.
    """

    rounds: list[set[int]]
    active: set[int]
    converged_round: int


def _seed_set(g: Graph, seeds: Iterable[int]) -> set[int]:
    s = set(seeds)
    for v in s:
        if type(v) is not int:
            raise ValueError(f"seed vertex is not an int: {v!r}")
        if not (0 <= v < g.n):
            raise ValueError(f"seed vertex {v} out of range for n={g.n}")
    return s


def run_activation(g: Graph, t: Sequence[int], seeds: Iterable[int]) -> ActivationTrace:
    """Run the synchronous activation process to its fixpoint.

    One FIFO worklist over remaining-need counters, O(n + m).  Seeds get
    round 0, unseeded threshold-0 vertices round 1; a vertex whose need a
    popped vertex of round r brings to 0 gets round r + 1 and joins the
    queue.  Rounds in the queue never decrease, so u's need is completed by
    its t(u)-th earliest active neighbor: the synchronous round exactly.
    """
    check_thresholds(g, t)
    adj = g.adjacency
    queue = list(_seed_set(g, seeds))
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
    rounds: list[set[int]] = [set() for _ in range(round_of[queue[-1]] + 1 if queue else 1)]
    for v in queue:
        rounds[round_of[v]].add(v)
    return ActivationTrace(rounds=rounds, active=set(queue), converged_round=len(rounds) - 1)


def activation_closure(g: Graph, t: Sequence[int], seeds: Iterable[int]) -> set[int]:
    """Final active set by exhaustive re-scanning, with no round bookkeeping.

    Deliberately naive (recounts active neighbors from scratch on every
    sweep): it is the reference the efficient engine is checked against, and
    shows that the fixpoint does not depend on processing order.
    """
    check_thresholds(g, t)
    active = _seed_set(g, seeds)
    changed = True
    while changed:
        changed = False
        for u in range(g.n):
            if u not in active:
                hits = sum(1 for w in g.neighbors(u) if w in active)
                if hits >= t[u]:
                    active.add(u)
                    changed = True
    return active


def is_target_set(g: Graph, t: Sequence[int], seeds: Iterable[int]) -> bool:
    """True iff activating from ``seeds`` eventually activates every vertex."""
    return len(run_activation(g, t, seeds).active) == g.n


def format_trace(trace: ActivationTrace, g: Graph | None = None) -> str:
    """Render a trace one line per round: ``round_index: sorted vertex ids``.

    When a labeled graph is given, ids are reported in its original id space.
    """
    lines = []
    for i, round_set in enumerate(trace.rounds):
        ids = sorted(g.original_ids(round_set) if g is not None else round_set)
        lines.append(f"{i}: {' '.join(str(x) for x in ids)}")
    return "\n".join(lines)
