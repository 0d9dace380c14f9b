"""Vertex-elimination solver for small target sets (``tss_solve``) and the
degree-greedy baseline (``greedy_tss``), two keys over one loop, ``_eliminate``.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import IntEnum
from heapq import heapify, heappop, heappush

from .graph import Graph
from .thresholds import check_thresholds


TABLE_DEGREE = 64  # largest residual degree in _eliminate's key table
DRAIN_FLOOR = 1024  # fewest dead ranked entries popped before a heap rebuild


class Case(IntEnum):
    """Why a vertex left the residual graph."""

    ACTIVATED = 1  # residual threshold hit zero
    SEEDED = 2  # fewer alive neighbors than residual threshold
    DISCARDED = 3  # ranked out by the selection ratio


class _EliminationOrder(Sequence):
    """Read-only sequence of ``(vertex, case)`` pairs over the two lists that
    ``_eliminate`` fills; it builds a pair only when read, and it equals the
    list of its pairs (a slice is such a list)."""

    def __init__(self, vertices: list[int], cases: list[Case]):
        self._vertices = vertices
        self._cases = cases

    def __len__(self) -> int:
        return len(self._vertices)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(zip(self._vertices[i], self._cases[i]))
        return self._vertices[i], self._cases[i]

    def __iter__(self):
        return zip(self._vertices, self._cases)

    def __eq__(self, other):
        if isinstance(other, _EliminationOrder):
            return self._vertices == other._vertices and self._cases == other._cases
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass(frozen=True)
class SolverReport:
    """Solve outcome: the sorted target set, the ``(vertex, case)`` pairs in
    removal order (a read-only sequence), and the ACTIVATED, SEEDED and
    DISCARDED counts."""

    target_set: tuple[int, ...]
    elimination_order: Sequence[tuple[int, Case]]
    case_counts: tuple[int, int, int]

    @property
    def size(self) -> int:
        return len(self.target_set)


def _eliminate(
    g: Graph,
    t: Sequence[int],
    key: Callable[[int, int, int], int],
    greedy: bool = False,
) -> SolverReport:
    """The elimination loop shared by ``tss_solve`` and ``greedy_tss``, on
    ``(g, t)`` that its caller has checked.

    An alive vertex with k = 0 leaves first (ACTIVATED, smallest id first).
    Otherwise the alive vertex of largest ``key(k, delta, v)`` leaves: SEEDED
    when ``greedy`` or k > delta, DISCARDED otherwise.  Keys are packed ints
    ending in ``* n + v``, so they are distinct and name their vertex.

    The ranked heap is lazy.  Invariant: once it is built, every alive
    vertex with k >= 1 holds an entry at or above its current key, so the
    first popped entry that equals its vertex's current key is the largest.
    A popped entry of a dead vertex (k = -1) is dropped; one of an alive
    vertex under another key is dropped and the current key pushed.  So an
    update pushes only when the key can have risen:

    - ``tss_solve``'s key: after DISCARDED only delta falls, which raises
      the key, so every update pushes.  After ACTIVATED or SEEDED,
      (k + 1, delta + 1) becomes (k, delta): a seed-tier key falls, and a
      ratio rises exactly when 2k > delta (at 2k = delta it ties and the
      lower k loses).  So the update pushes only when ``k <= delta < 2 * k``.
    - ``greedy=True``: the degree key never rises, so updates push nothing.

    Build rule: one block at the head of the ranked pop loop builds the
    heap from the current key of every alive vertex with k >= 1.  It runs at
    the first ranked pop, never in a solve of ACTIVATED removals alone, and
    again once more than ``max(n >> 6, DRAIN_FLOOR)`` dead entries have been
    popped since the last build, so the total stays O(m log n).
    """
    n = g.n
    adj = g.adjacency
    delta = g.degrees
    k = list(t)
    target: list[int] = []
    order: list[int] = []  # with cases: no GC-tracked pair per removal (CHANGES.md)
    cases: list[Case] = []
    ACTIVATED, SEEDED, DISCARDED = Case.ACTIVATED, Case.SEEDED, Case.DISCARDED  # cheaper as locals

    ready = [v for v in range(n) if k[v] == 0]  # case-1 queue: ids, min first
    ranked: list[int] = []  # every other alive vertex: -key, largest key first
    # rows[d][k] + v == key(k, d, v) for 1 <= k <= d <= TABLE_DEGREE, which
    # saves a key call per push (CHANGES.md); column 0 is never read.
    rows = tuple(
        (0,) + tuple(key(kv, dv, 0) for kv in range(1, dv + 1))
        for dv in range(min(max(delta, default=0), TABLE_DEGREE) + 1)
    )
    top = len(rows)
    drain = max(n >> 6, DRAIN_FLOOR)
    dead = drain + 1  # dead entries popped since the last build; over drain: build
    for _ in range(n):
        if ready:
            v = heappop(ready)
            case = ACTIVATED
        else:
            # Lazy pop: a dead vertex's entry is dropped, a stale key's re-keyed.
            while True:
                if dead > drain:
                    ranked.clear()  # the new entries reuse the old ones' memory
                    ranked = [-(rows[dv][kv] + v if kv <= dv < top else key(kv, dv, v))
                              for v, kv, dv in zip(range(n), k, delta) if kv > 0]
                    heapify(ranked)
                    dead = 0
                packed = -heappop(ranked)
                v = packed % n
                kv = k[v]
                if kv > 0:
                    dv = delta[v]
                    current = rows[dv][kv] + v if kv <= dv < top else key(kv, dv, v)
                    if current == packed:
                        break
                    heappush(ranked, -current)
                else:
                    dead += 1
            if greedy or kv > dv:
                case = SEEDED
                target.append(v)
            else:
                case = DISCARDED

        k[v] = -1  # removed; alive vertices have k >= 0
        order.append(v)
        cases.append(case)
        drops = case is not DISCARDED
        for u in adj[v]:
            ku = k[u]
            if ku < 0:
                continue
            du = delta[u] - 1
            delta[u] = du
            if drops:
                if ku == 0:
                    # Only ACTIVATED meets k = 0 (it wins before any SEEDED
                    # removal): k stays clamped at 0, its queue entry valid.
                    if case is SEEDED:
                        raise AssertionError("residual threshold would go negative")
                    continue
                ku -= 1
                k[u] = ku
                if ku == 0:
                    heappush(ready, u)
                    continue
            # Here k >= 1; push only when the key can have risen (push rule above).
            if greedy or (drops and not ku <= du < 2 * ku):
                continue
            heappush(ranked, -(rows[du][ku] + u if ku <= du < top else key(ku, du, u)))

    return SolverReport(
        target_set=tuple(sorted(target)),
        elimination_order=_EliminationOrder(order, cases),
        case_counts=(cases.count(ACTIVATED), len(target), cases.count(DISCARDED)),
    )


def tss_solve(g: Graph, t: Sequence[int]) -> SolverReport:
    """Find a target set of ``g`` under thresholds ``t`` by elimination.

    Each of n iterations removes one alive vertex v, with residual degree
    delta(v) (alive neighbors) and residual threshold k(v) (activations still
    needed), as the first case that applies:

    1. ACTIVATED: k(v) = 0 (smallest id first);
    2. SEEDED: delta(v) < k(v), and v joins the target set (largest k, then
       largest id, first);
    3. DISCARDED: v maximizes k / (delta (delta + 1)), compared exactly
       (ties: largest k, then largest id).

    ACTIVATED and SEEDED lower each alive neighbor's k by one, clamped at 0;
    every removal lowers each alive neighbor's delta by one.  The result is
    always a target set, found in O(m log n) time.  A non-``Graph`` ``g`` or
    thresholds that do not fit it raise ``ValueError``.
    """
    check_thresholds(g, t)
    n = g.n
    # Ratio comparisons use the integer surrogate floor(k * scale / (d(d+1)))
    # with scale = 2*B^2 and B an upper bound on every denominator d(d+1).
    # Distinct ratios with denominators <= B differ by at least 1/B^2, so the
    # floor preserves their exact order and maps equal ratios equally.  Keys
    # pack (surrogate, k, id) lexicographically into one int; the surrogate
    # never exceeds scale, so case-2 keys (k, id) above seed_tier outrank
    # every case-3 key.  Only a case-3 key needs k < kspan, and there
    # k <= delta <= max_deg, so kspan comes from the degree, not from t.
    max_deg = max(map(len, g.adjacency), default=0)
    bound = max_deg * (max_deg + 1)
    scale = 2 * bound * bound if bound else 2
    kspan = max_deg + 1
    seed_tier = (scale + 1) * kspan * n

    def key(kv: int, dv: int, v: int) -> int:
        if dv < kv:
            return seed_tier + kv * n + v
        return (kv * scale // (dv * (dv + 1)) * kspan + kv) * n + v

    return _eliminate(g, t, key)


def greedy_tss(g: Graph, t: Sequence[int]) -> SolverReport:
    """Degree-greedy baseline, with ``tss_solve``'s contract.

    Repeatedly pick the alive vertex of minimum residual threshold (smallest
    id on ties).  If its threshold is still positive, instead insert the
    alive vertex of maximum residual degree (largest id on ties) into the
    target set.  Either way the chosen vertex is removed and every alive
    neighbor loses one degree and one threshold unit (clamped at zero).
    """
    check_thresholds(g, t)
    n = g.n
    return _eliminate(g, t, lambda k, d, v: d * n + v, greedy=True)
