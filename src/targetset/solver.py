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
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import IntEnum
from heapq import heappop, heappush
from typing import Sequence

from .graph import Graph
from .thresholds import check_thresholds


class Case(IntEnum):
    """Why a vertex left the residual graph."""

    ACTIVATED = 1  # residual threshold hit zero
    SEEDED = 2  # fewer alive neighbors than residual threshold
    DISCARDED = 3  # ranked out by the selection ratio


@dataclass(frozen=True)
class SolverReport:
    """Solve outcome: the target set plus elimination bookkeeping."""

    target_set: tuple[int, ...]
    elimination_order: list[tuple[int, Case]]
    case_counts: tuple[int, int, int]
    elapsed: float

    @property
    def size(self) -> int:
        return len(self.target_set)

    def to_text(self, g: Graph | None = None) -> str:
        ids = sorted(g.original_ids(self.target_set)) if g is not None else list(self.target_set)
        return "\n".join(
            [
                f"size {self.size}",
                "case_counts " + ",".join(str(c) for c in self.case_counts),
                f"elapsed_ms {self.elapsed * 1000.0:.3f}",
                "target_set " + " ".join(str(x) for x in ids),
            ]
        )


def tss_solve(g: Graph, t: Sequence[int]) -> SolverReport:
    """Run the elimination solver; exactly n iterations, one removal each.

    Deterministic for a fixed input under the documented tie-breaks.
    """
    check_thresholds(g, t)
    start = time.perf_counter()
    n = g.n
    adj = g.adjacency
    alive = [True] * n
    delta = g.degrees
    k = list(t)
    target: list[int] = []

    # Ratio comparisons use the integer surrogate floor(k * scale / (d(d+1)))
    # with scale = 2*B^2 and B an upper bound on every denominator d(d+1).
    # Distinct ratios with denominators <= B differ by at least 1/B^2, so the
    # floor preserves their exact order and maps equal ratios equally.  Keys
    # pack (surrogate, k, id) lexicographically into one int; largest-first.
    max_deg = max(delta, default=0)
    bound = max_deg * (max_deg + 1)
    scale = 2 * bound * bound if bound else 2
    kspan = max(k, default=0) + 1

    heap_zero: list[int] = []  # case-1 ready queue: vertex ids, min first
    heap_deficient: list[int] = []  # case-2: -(k*n + v), largest (k, v) first
    heap_ranked: list[int] = []  # case-3: -packed(surrogate, k, v)

    for v in range(n):
        kv = k[v]
        dv = delta[v]
        if kv == 0:
            heappush(heap_zero, v)
        elif dv < kv:
            heappush(heap_deficient, -(kv * n + v))
        else:
            s = kv * scale // (dv * (dv + 1))
            heappush(heap_ranked, -((s * kspan + kv) * n + v))

    order: list[tuple[int, Case]] = []
    counts = [0, 0, 0]

    for _ in range(n):
        while heap_zero and not alive[heap_zero[0]]:
            heappop(heap_zero)
        if heap_zero:
            v = heappop(heap_zero)
            case = Case.ACTIVATED
        else:
            v = -1
            while heap_deficient:
                packed = -heap_deficient[0]
                u, kv = packed % n, packed // n
                if alive[u] and k[u] == kv and delta[u] < kv:
                    v = u
                    heappop(heap_deficient)
                    break
                heappop(heap_deficient)
            if v >= 0:
                case = Case.SEEDED
            else:
                while True:
                    packed = -heap_ranked[0]
                    u = packed % n
                    if alive[u]:
                        ku = k[u]
                        du = delta[u]
                        if du >= ku >= 1:
                            s = ku * scale // (du * (du + 1))
                            if (s * kspan + ku) * n + u == packed:
                                v = u
                                heappop(heap_ranked)
                                break
                    heappop(heap_ranked)  # stale entry
                case = Case.DISCARDED

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
                    heappush(heap_zero, u)
                    continue
            # No alive vertex has k = 0 when DISCARDED runs, so here k >= 1.
            if du < ku:
                heappush(heap_deficient, -(ku * n + u))
            else:
                s = ku * scale // (du * (du + 1))
                heappush(heap_ranked, -((s * kspan + ku) * n + u))

    assert len(target) == counts[1]
    elapsed = time.perf_counter() - start
    return SolverReport(
        target_set=tuple(sorted(target)),
        elimination_order=order,
        case_counts=(counts[0], counts[1], counts[2]),
        elapsed=elapsed,
    )
