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

``_eliminate`` checks the thresholds before it copies them into k.  The k
digit of ``tss_solve``'s key spans the largest degree plus one, not the
largest threshold plus one; the order is the same, since only keys below
the seed tier need k < span, and there k <= delta.

Heap keys are packed ints ending in ``* n + v``.  ``_eliminate`` takes the
key of a vertex with 1 <= k <= delta <= 64 as ``rows[delta][k] + v`` from a
constant per-degree table that it builds once from the key function, and
calls the key function only for k > delta and for degrees above 64.
``rows[delta][k] + v`` is the very int ``key(k, delta, v)`` returns, so the
heap holds the same keys and pops in the same order either way; the table
only saves a Python call on each push and re-key.  It stops at degree 64:
most residual degrees of a sparse graph lie below it, its 2145 entries do
not grow with the graph or the thresholds, and a table up to the largest
degree of a heavy-tailed graph costs about as much to build as it saves.

The ranked heap is lazy and built in one place; ``_eliminate`` documents
its entries, re-keys and builds.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import IntEnum
from heapq import heapify, heappop, heappush

from .graph import Graph, _check_graph
from .thresholds import check_thresholds


TABLE_DEGREE = 64  # largest residual degree in _eliminate's key table
DRAIN_FLOOR = 1024  # fewest dead ranked entries popped before a heap rebuild


class Case(IntEnum):
    """Why a vertex left the residual graph."""

    ACTIVATED = 1  # residual threshold hit zero
    SEEDED = 2  # fewer alive neighbors than residual threshold
    DISCARDED = 3  # ranked out by the selection ratio


class _EliminationOrder(Sequence):
    """Read-only ``(vertex, case)`` pairs over the two lists ``_eliminate``
    fills; a pair is built only when it is read.

    It reads like the list of pairs it stands for: ``len``, int and slice
    indexing (a slice is a list of pairs), iteration, ``==`` against such a
    list on either side or against another order, and the list's ``repr``.
    """

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
    """Solve outcome: the target set plus elimination bookkeeping; plain data,
    the CLI formats it.

    ``elimination_order`` reads as the list of ``(vertex, case)`` pairs in
    removal order.  A solve returns it as a read-only view over two flat
    lists, vertices and cases, and builds each pair only when it is read:
    no caller in the package reads the order, and a pair that holds a
    ``Case`` member is a tuple the cyclic GC tracks and cannot untrack, so
    one stored pair per removal would set off a young collection about
    every 700 removals.
    """

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
    """The elimination loop shared by ``tss_solve`` and ``greedy_tss``.

    An alive vertex with k = 0 leaves first (ACTIVATED, smallest id first).
    Otherwise the alive vertex of largest ``key(k, delta, v)`` leaves: SEEDED
    when k > delta, DISCARDED otherwise.  Keys are packed ints ending in
    ``* n + v``, so they are distinct and name their vertex.

    The ranked heap is lazy, and one invariant covers both solvers: once
    the heap is built, every alive ranked vertex holds at least one entry
    at or above its current key.  The first popped entry that equals its
    vertex's current key is then the largest current key.  A popped entry
    whose vertex died (k = -1) is dropped; one whose vertex is alive under
    another key is dropped and the current key pushed back.  So a neighbor
    update need push only when the key can have risen.

    ``greedy=False`` goes with ``tss_solve``'s key (seed tier, ratio, k).
    After a DISCARDED removal only delta falls, which raises the key, so
    every update pushes (no alive vertex is in the seed tier then).  After
    an ACTIVATED or SEEDED removal, (k + 1, delta + 1) becomes (k, delta):
    a seed-tier vertex stays in the seed tier with a lower k, and a ratio
    rises, k / (delta (delta + 1)) > (k + 1) / ((delta + 1)(delta + 2)),
    exactly when 2k > delta; at 2k = delta the ratios tie and the lower k
    loses.  So that update pushes only when ``k <= delta < 2 * k``, for
    the new k and delta.  ``greedy=True`` is for the greedy baseline: every
    ranked pop seeds, whatever k and delta are, and since its degree key
    never rises, updates push nothing and each alive vertex keeps exactly
    one entry.

    One block at the head of the ranked pop loop builds the heap from the
    current key of every alive vertex with k >= 1, so the invariant holds.
    It runs once more than ``max(n >> 6, DRAIN_FLOOR)`` dead entries have
    been popped since the last build; the count starts above that, so the
    first ranked pop builds the heap (dropping earlier pushes) and a solve
    of ACTIVATED removals alone never does.  Later builds follow long
    drains (one of the last ranked pops of a G(160000, 10/n) solve drained
    28180); each costs about a few thousand pops and follows at least
    n / 64 pops, so the total stays O(m log n).

    The loop binds the ``Case`` members to locals once: on CPython 3.11 a
    read such as ``Case.SEEDED`` costs about 140-160 ns against about 13 ns
    for a local, and each removal would make three or four.

    The order goes into two flat lists, ``order`` (vertices) and ``cases``,
    two pointer appends per removal and no new object; the report pairs
    them up only when read (see ``SolverReport``), and the case counts
    come from ``cases``.  A ``(v, case)`` tuple per removal would be a
    GC-tracked allocation: on G(100000, 10/n) those tuples set off about
    140 collections per solve, and the two lists none.
    """
    check_thresholds(g, t)
    n = g.n
    adj = g.adjacency
    delta = g.degrees
    k = list(t)
    target: list[int] = []
    order: list[int] = []
    cases: list[Case] = []
    ACTIVATED, SEEDED, DISCARDED = Case.ACTIVATED, Case.SEEDED, Case.DISCARDED

    ready = [v for v in range(n) if k[v] == 0]  # case-1 queue: ids, min first
    ranked: list[int] = []  # every other alive vertex: -key, largest key first
    # rows[d][k] = key(k, d, 0) for 1 <= k <= d <= TABLE_DEGREE; column 0 is
    # never read.  Tuples, since the table is constant.
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
            # Every alive vertex has k >= 1 (the ready queue is empty) and,
            # once ranked is built, an entry there at or above its key.  A
            # dead vertex's entry is dropped, a stale key's is re-keyed.
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
        # ACTIVATED and SEEDED drop each alive neighbor's k by one; DISCARDED
        # leaves thresholds untouched.  Every alive neighbor loses a degree.
        drops = case is not DISCARDED
        for u in adj[v]:
            ku = k[u]
            if ku < 0:
                continue
            du = delta[u] - 1
            delta[u] = du
            if drops:
                if ku == 0:
                    # A k = 0 vertex wins case 1 before any SEEDED removal, so
                    # only ACTIVATED meets one: k stays clamped at 0 and its
                    # case-1 queue entry is still valid.
                    if case is SEEDED:
                        raise AssertionError("residual threshold would go negative")
                    continue
                ku -= 1
                k[u] = ku
                if ku == 0:
                    heappush(ready, u)
                    continue
            # No alive vertex has k = 0 when DISCARDED runs, so here k >= 1.
            # After a drop, u's key rose only if ku <= du < 2 * ku; otherwise
            # its old entry still lies above the new key.
            if greedy or (drops and not ku <= du < 2 * ku):
                continue
            heappush(ranked, -(rows[du][ku] + u if ku <= du < top else key(ku, du, u)))

    return SolverReport(
        target_set=tuple(sorted(target)),
        elimination_order=_EliminationOrder(order, cases),
        case_counts=(cases.count(ACTIVATED), len(target), cases.count(DISCARDED)),
    )


def tss_solve(g: Graph, t: Sequence[int]) -> SolverReport:
    """Run the elimination solver; exactly n iterations, one removal each.

    Deterministic for a fixed input under the documented tie-breaks.
    """
    _check_graph(g)  # the key reads g before _eliminate checks t
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
    """Degree-greedy baseline.

    Repeatedly pick the alive vertex of minimum residual threshold (smallest
    id on ties).  If its threshold is still positive, instead insert the
    alive vertex of maximum residual degree (largest id on ties) into the
    target set.  Either way the chosen vertex is removed and every alive
    neighbor loses one degree and one threshold unit (clamped at zero).
    The loop runs with ``greedy=True`` (see ``_eliminate``).
    """
    _check_graph(g)
    n = g.n
    return _eliminate(g, t, lambda k, d, v: d * n + v, greedy=True)
