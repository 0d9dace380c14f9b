"""Upper bounds on the solver's target set size, in exact rational arithmetic.

Two bounds are computed.  The older one sums min(1, t(v) / (d(v) + 1)) over
all vertices.  The sharper one restricts both the summation domain and the
neighbor counts to vertices that are not threshold-1 leaves:

    V2    = vertices of degree >= 2
    d2(v) = |{u in N(v) : u in V2 or t(u) != 1}|
    bound = sum over {v : v in V2 or t(v) != 1} of min(1, t(v) / (d2(v) + 1))

The sharper bound never exceeds the older one, and on every connected graph
with at least 3 vertices it dominates the solver's output size.  Components
with fewer than 3 vertices escape that guarantee (a two-vertex component of
threshold-1 leaves contributes 0 to the bound but needs a seed), which is
why reports carry an ``applicable`` flag.

Both sums are computed the same way: whole terms (t >= denominator) are
counted as one int, zero thresholds are skipped, and the remaining
numerators are summed per denominator, so the ``Fraction`` work is one add
per distinct denominator rather than one per vertex.  d2 needs no adjacency
scan: it starts as the degree, and each threshold-1 leaf (degree <= 1, the
only vertices outside the domain) lowers the count of its single neighbour.
Each bound thus costs O(n) int work plus O(distinct degrees) ``Fraction``
adds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .graph import Graph, connected_components
from .solver import tss_solve
from .thresholds import check_thresholds


@dataclass(frozen=True)
class BoundReport:
    """Both bounds and the solver size for one instance; plain data, the CLI
    formats it."""

    bound_new: Fraction
    bound_old: Fraction
    v2_size: int
    applicable: bool
    tss_size: int


def _sum_min_one(numerators: Iterable[int], denominators: Iterable[int]) -> Fraction:
    """Exact sum of min(1, a / b) over paired a >= 0 and b >= 1, with one
    ``Fraction`` add per distinct denominator (see the module docstring)."""
    whole = 0
    grouped: dict[int, int] = {}
    for a, b in zip(numerators, denominators):
        if a >= b:
            whole += 1
        elif a:
            grouped[b] = grouped.get(b, 0) + a
    total = Fraction(whole)
    for b, a in grouped.items():
        total += Fraction(a, b)
    return total


def bound_new(g: Graph, t: Sequence[int]) -> Fraction:
    """The sharper upper bound, as an exact rational."""
    check_thresholds(g, t)
    adj = g.adjacency
    # denominators[v] is d2(v) + 1.  A threshold-1 leaf (degree <= 1) leaves
    # the sum (numerator 0) and the d2 count of its neighbour, if it has one.
    numerators = list(t)
    denominators = [len(nbrs) + 1 for nbrs in adj]
    for v in [v for v, tv in enumerate(t) if tv == 1 and denominators[v] <= 2]:
        numerators[v] = 0
        for u in adj[v]:
            denominators[u] -= 1
    return _sum_min_one(numerators, denominators)


def bound_old(g: Graph, t: Sequence[int]) -> Fraction:
    """The earlier bound: sum of min(1, t(v) / (d(v) + 1)) over all vertices."""
    check_thresholds(g, t)
    return _sum_min_one(t, [len(nbrs) + 1 for nbrs in g.adjacency])


def check_bound_dominance(g: Graph, t: Sequence[int]) -> BoundReport:
    """Compute both bounds, solve, and check the provable relations.

    ``applicable`` is true iff every connected component has at least 3
    vertices (for a connected graph: n >= 3).  When applicable, the report
    asserts bound_new <= bound_old and |target set| <= bound_new, comparing
    exact rationals and raises ``AssertionError`` (also under ``python -O``)
    when either fails.  Inapplicable graphs skip the checks.
    """
    bn = bound_new(g, t)
    bo = bound_old(g, t)
    report = tss_solve(g, t)
    v2_size = sum(1 for nbrs in g.adjacency if len(nbrs) >= 2)
    applicable = g.n >= 3 and all(len(c) >= 3 for c in connected_components(g))
    if applicable:
        if not bn <= bo:
            raise AssertionError(f"sharper bound {bn} exceeds older bound {bo}")
        if not report.size <= bn:
            raise AssertionError(f"target set size {report.size} exceeds bound {bn}")
    return BoundReport(
        bound_new=bn,
        bound_old=bo,
        v2_size=v2_size,
        applicable=applicable,
        tss_size=report.size,
    )
