"""Vertex-elimination solver for small target sets.

The solver removes one vertex per iteration from a shrinking view of the
graph, maintaining for every surviving vertex v its residual degree delta(v)
(alive neighbors) and residual threshold k(v) (activations still needed).
Each iteration classifies some alive vertex, with strict priority:

1. ACTIVATED:  k(v) = 0.  The already-removed vertices activate v on their
   own, so v is discarded and each alive neighbor's k drops by one, clamped
   at zero (smallest id first among candidates).
2. SEEDED:     delta(v) < k(v).  Too few neighbors remain to ever activate v,
   so v goes into the target set and each alive neighbor's k drops by one
   (largest residual threshold first, then largest id).
3. DISCARDED:  otherwise. The alive vertex maximizing
   k(v) / (delta(v) * (delta(v) + 1)) is dropped on the expectation that its
   neighbors will activate it (ties: largest residual threshold, then
   largest id).  The maximization is exact integer arithmetic, never floats.

After the case action, v is removed: alive neighbors lose one degree.  The
returned set is always a valid target set, found in O(m log n) time.
``greedy_tss`` runs the same loop with a degree key: when no k = 0 vertex is
left, it seeds the alive vertex of largest residual degree.

The ranked heap is lazy.  A tss key can rise (a discard lowers a neighbor's
degree but not its threshold), so each neighbor update pushes the new key and
stale entries are dropped when popped.  Greedy's key only falls, so updates
push nothing and a popped alive vertex whose key fell is pushed back with its
current key: each alive vertex keeps one entry, never below its key, and the
first entry that matches its vertex's key is still the maximum.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import IntEnum
from heapq import heappop, heappush
from typing import Callable, Sequence

from .graph import Graph
from .thresholds import check_thresholds


class Case(IntEnum):
    """Why a vertex left the residual graph."""

    ACTIVATED = 1  # residual threshold hit zero
    SEEDED = 2  # fewer alive neighbors than residual threshold
    DISCARDED = 3  # ranked out by the selection ratio


@dataclass(frozen=True)
class SolverReport:
    """Solve outcome: the target set plus elimination bookkeeping; plain data,
    the CLI formats it."""

    target_set: tuple[int, ...]
    elimination_order: list[tuple[int, Case]]
    case_counts: tuple[int, int, int]
    elapsed: float

    @property
    def size(self) -> int:
        return len(self.target_set)


def _eliminate(
    g: Graph,
    t: Sequence[int],
    key: Callable[[int, int, int], int],
    seed_tier: int,
    falling: bool = False,
) -> SolverReport:
    """The elimination loop shared by ``tss_solve`` and ``greedy_tss``.

    An alive vertex with k = 0 leaves first (ACTIVATED, smallest id first).
    Otherwise the alive vertex of largest ``key(k, delta, v)`` leaves: SEEDED
    when its key is ``>= seed_tier``, DISCARDED below.  Keys are packed ints
    ending in ``* n + v``, so they are distinct and name their vertex.

    By default every neighbor update pushes the neighbor's new key, and an
    entry whose vertex died or whose key changed is dropped at pop time.
    ``falling=True`` is for a key that can never rise: updates push nothing,
    and a popped alive vertex whose key fell gets its current key pushed
    back.  Every alive ranked vertex then holds exactly one entry, at least
    its current key, so the first popped entry that equals its vertex's
    current key is the largest current key.  A key that can rise would leave
    its entry below the key, and the heap would pop the wrong vertex.
    """
    start = time.perf_counter()
    n = g.n
    adj = g.adjacency
    alive = [True] * n
    delta = g.degrees
    k = list(t)
    target: list[int] = []
    order: list[tuple[int, Case]] = []
    counts = [0, 0, 0]

    ready = [v for v in range(n) if k[v] == 0]  # case-1 queue: ids, min first
    ranked: list[int] = []  # every other alive vertex: -key, largest key first
    for v in range(n):
        if k[v]:
            heappush(ranked, -key(k[v], delta[v], v))

    for _ in range(n):
        if ready:
            v = heappop(ready)
            case = Case.ACTIVATED
        else:
            # The ready queue is empty, so every alive vertex has k >= 1 and
            # an entry in ranked; an entry is stale once its vertex died or
            # its key changed.
            while True:
                packed = -heappop(ranked)
                v = packed % n
                if alive[v]:
                    current = key(k[v], delta[v], v)
                    if current == packed:
                        break
                    if falling:
                        heappush(ranked, -current)
            case = Case.SEEDED if packed >= seed_tier else Case.DISCARDED

        alive[v] = False
        order.append((v, case))
        counts[case - 1] += 1

        if case is Case.SEEDED:
            target.append(v)
        # ACTIVATED and SEEDED drop each alive neighbor's k by one; DISCARDED
        # leaves thresholds untouched.  Every alive neighbor loses a degree.
        drops = case is not Case.DISCARDED
        for u in adj[v]:
            if not alive[u]:
                continue
            du = delta[u] - 1
            delta[u] = du
            ku = k[u]
            if drops:
                if ku == 0:
                    # A k = 0 vertex wins case 1 before any SEEDED removal, so
                    # only ACTIVATED meets one: k stays clamped at 0 and its
                    # case-1 queue entry is still valid.
                    if case is Case.SEEDED:
                        raise AssertionError("residual threshold would go negative")
                    continue
                ku -= 1
                k[u] = ku
                if ku == 0:
                    heappush(ready, u)
                    continue
            # No alive vertex has k = 0 when DISCARDED runs, so here k >= 1.
            if not falling:
                heappush(ranked, -key(ku, du, u))

    elapsed = time.perf_counter() - start
    return SolverReport(
        target_set=tuple(sorted(target)),
        elimination_order=order,
        case_counts=(counts[0], counts[1], counts[2]),
        elapsed=elapsed,
    )


def tss_solve(g: Graph, t: Sequence[int]) -> SolverReport:
    """Run the elimination solver; exactly n iterations, one removal each.

    Deterministic for a fixed input under the documented tie-breaks.
    """
    check_thresholds(g, t)
    n = g.n
    # Ratio comparisons use the integer surrogate floor(k * scale / (d(d+1)))
    # with scale = 2*B^2 and B an upper bound on every denominator d(d+1).
    # Distinct ratios with denominators <= B differ by at least 1/B^2, so the
    # floor preserves their exact order and maps equal ratios equally.  Keys
    # pack (surrogate, k, id) lexicographically into one int; the surrogate
    # never exceeds scale, so case-2 keys (k, id) above seed_tier outrank
    # every case-3 key.
    max_deg = max(map(len, g.adjacency), default=0)
    bound = max_deg * (max_deg + 1)
    scale = 2 * bound * bound if bound else 2
    kspan = max(t, default=0) + 1
    seed_tier = (scale + 1) * kspan * n

    def key(kv: int, dv: int, v: int) -> int:
        if dv < kv:
            return seed_tier + kv * n + v
        return (kv * scale // (dv * (dv + 1)) * kspan + kv) * n + v

    return _eliminate(g, t, key, seed_tier)
