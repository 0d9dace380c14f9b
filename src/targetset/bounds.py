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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .graph import Graph, connected_components
from .solver import tss_solve
from .thresholds import check_thresholds

_ONE = Fraction(1)


@dataclass(frozen=True)
class BoundReport:
    bound_new: Fraction
    bound_old: Fraction
    v2_size: int
    applicable: bool
    tss_size: int

    def to_text(self) -> str:
        return "\n".join(
            [
                f"applicable {str(self.applicable).lower()}",
                f"v2_size {self.v2_size}",
                f"bound_new {self.bound_new} ({float(self.bound_new):g})",
                f"bound_old {self.bound_old} ({float(self.bound_old):g})",
                f"tss_size {self.tss_size}",
            ]
        )


def bound_new(g: Graph, t: Sequence[int]) -> Fraction:
    """The sharper upper bound, as an exact rational."""
    check_thresholds(g, t)
    adj = g.adjacency
    in_v2 = [len(nbrs) >= 2 for nbrs in adj]
    total = Fraction(0)
    for v, nbrs in enumerate(adj):
        if not (in_v2[v] or t[v] != 1):
            continue
        d2 = 0
        for u in nbrs:
            if in_v2[u] or t[u] != 1:
                d2 += 1
        term = Fraction(t[v], d2 + 1)
        total += term if term < _ONE else _ONE
    return total


def bound_old(g: Graph, t: Sequence[int]) -> Fraction:
    """The earlier bound: sum of min(1, t(v) / (d(v) + 1)) over all vertices."""
    check_thresholds(g, t)
    total = Fraction(0)
    for v, nbrs in enumerate(g.adjacency):
        term = Fraction(t[v], len(nbrs) + 1)
        total += term if term < _ONE else _ONE
    return total


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
