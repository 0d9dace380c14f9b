"""Baselines and oracles: a greedy heuristic, an exhaustive exact solver for
small instances, and the closed-form optimum for cliques."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .diffusion import is_target_set
from .graph import Graph
from .solver import SolverReport, _eliminate
from .thresholds import check_thresholds

EXACT_CAP = 24  # default vertex cap of exact_solve, the CLI and the bench harness


@dataclass(frozen=True)
class ExactResult:
    """Exhaustive-search outcome.

    ``witness`` is one optimal target set; no smaller set is a target set
    (guaranteed by the increasing-cardinality search order).
    ``subsets_examined`` counts the candidate seed sets whose activation
    closure was evaluated.
    """

    optimum_size: int
    witness: tuple[int, ...]
    subsets_examined: int


def greedy_tss(g: Graph, t: Sequence[int]) -> SolverReport:
    """Degree-greedy baseline.

    Repeatedly pick the alive vertex of minimum residual threshold (smallest
    id on ties).  If its threshold is still positive, instead insert the
    alive vertex of maximum residual degree (largest id on ties) into the
    target set.  Either way the chosen vertex is removed and every alive
    neighbor loses one degree and one threshold unit (clamped at zero).
    The degree key never rises, so the loop re-keys a vertex only when its
    stale entry reaches the top of the heap.
    """
    check_thresholds(g, t)
    n = g.n
    return _eliminate(g, t, lambda k, d, v: d * n + v, 0, falling=True)


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reduce_instance(
    adj_mask: list[int], tt: list[int], present: int, forced: list[int]
) -> int:
    """Shrink the instance without changing the optimum.

    Two moves, applied to a fixpoint: a threshold-0 vertex activates on its
    own, so it is deleted and each surviving neighbor's threshold drops by
    one (clamped); a vertex whose threshold exceeds its surviving degree can
    never be activated, so it belongs to every target set and is deleted the
    same way after being recorded.
    """
    changed = True
    while changed:
        changed = False
        for v in _iter_bits(present):
            nbrs = adj_mask[v] & present
            tv = tt[v]
            if tv == 0 or tv > nbrs.bit_count():
                if tv != 0:
                    forced.append(v)
                present &= ~(1 << v)
                for u in _iter_bits(nbrs):
                    if tt[u] > 0:
                        tt[u] -= 1
                changed = True
    return present


def _mask_components(adj_mask: list[int], present: int) -> list[int]:
    comps = []
    rest = present
    while rest:
        low = rest & -rest
        comp = low
        frontier = low
        while frontier:
            grow = 0
            for v in _iter_bits(frontier):
                grow |= adj_mask[v] & rest
            frontier = grow & ~comp
            comp |= grow
        comps.append(comp)
        rest &= ~comp
    return comps


def _close_mask(
    active: int, members: list[int], adj_mask: list[int], tt: list[int], full: int
) -> int:
    pending = [u for u in members if not (active >> u) & 1]
    changed = True
    while changed and pending:
        changed = False
        still = []
        for u in pending:
            if (adj_mask[u] & active).bit_count() >= tt[u]:
                active |= 1 << u
                changed = True
            else:
                still.append(u)
        if active == full:
            return active
        pending = still
    return active


def _min_seed_for_component(
    comp_mask: int, adj_mask: list[int], tt: list[int]
) -> tuple[list[int], int]:
    """Smallest seed set activating one component, by increasing cardinality.

    Candidates are enumerated lexicographically within each size, with two
    sound cuts: a prefix never extends with a vertex already inside its
    activation closure (at the first feasible size such a set would imply a
    smaller solution), and a subtree is dropped when even seeding every
    remaining candidate at once would not activate the whole component
    (activation is monotone in the seed set).  Seeding the whole component
    always works, so the search ends at the optimum.  Size 0 only counts the
    empty set, which activates nothing once no threshold is 0.
    """
    members = sorted(_iter_bits(comp_mask))
    examined = 0
    width = len(members)
    suffix = [0] * (width + 1)
    for idx in range(width - 1, -1, -1):
        suffix[idx] = suffix[idx + 1] | (1 << members[idx])

    def rec(lo: int, closed: int, need: int) -> list[int] | None:
        nonlocal examined
        if need == 0:
            examined += 1
            return [] if closed == comp_mask else None
        if _close_mask(closed | suffix[lo], members, adj_mask, tt, comp_mask) != comp_mask:
            return None
        for idx in range(lo, width - need + 1):
            bit = 1 << members[idx]
            if closed & bit:
                continue
            grown = _close_mask(closed | bit, members, adj_mask, tt, comp_mask)
            rest = rec(idx + 1, grown, need - 1)
            if rest is not None:
                return [members[idx], *rest]
        return None

    size = 0
    while (hit := rec(0, 0, size)) is None:
        size += 1
    return hit, examined


def exact_solve(g: Graph, t: Sequence[int], *, max_vertices: int = EXACT_CAP) -> ExactResult:
    """Exact minimum target set by exhaustive search over seed sets.

    Seed sets are tried in increasing cardinality (lexicographic within a
    size); supersets of target sets are target sets, so the first hit proves
    the optimum.  Optimum-preserving reductions and per-component search keep
    the enumeration small; bitmasks keep each activation check cheap.

    Raises:
        ValueError: when n exceeds ``max_vertices`` ("instance too large for
            exact solver").
    """
    check_thresholds(g, t)
    n = g.n
    if n > max_vertices:
        raise ValueError("instance too large for exact solver")

    adj_mask = [0] * n
    for v in range(n):
        mask = 0
        for u in g.neighbors(v):
            mask |= 1 << u
        adj_mask[v] = mask
    tt = list(t)
    forced: list[int] = []
    present = _reduce_instance(adj_mask, tt, (1 << n) - 1 if n else 0, forced)

    witness = list(forced)
    examined = 0
    for comp_mask in _mask_components(adj_mask, present):
        chosen, seen = _min_seed_for_component(comp_mask, adj_mask, tt)
        examined += seen
        witness.extend(chosen)

    result = ExactResult(
        optimum_size=len(witness),
        witness=tuple(sorted(witness)),
        subsets_examined=examined,
    )
    if not is_target_set(g, t, result.witness):
        raise AssertionError("exact witness is not a target set")
    return result


def clique_optimum(thresholds_sorted: Sequence[int], n: int | None = None) -> int:
    """Optimal target set size for a clique, from its sorted threshold list.

    With thresholds t(u_1) <= ... <= t(u_n) and m the number of vertices
    whose threshold is at least n (they can never be activated and must all
    be seeded), the optimum is

        m + max over 1 <= j <= n-m of max(t(u_j) - m - j + 1, 0).
    """
    ts = list(thresholds_sorted)
    if n is None:
        n = len(ts)
    elif n != len(ts):
        raise ValueError(f"expected {n} thresholds, got {len(ts)}")
    if any(ts[i] > ts[i + 1] for i in range(len(ts) - 1)):
        raise ValueError("thresholds must be sorted nondecreasing")
    m = sum(1 for tv in ts if tv >= n)
    best = 0
    for j, tj in enumerate(ts[: n - m], start=1):
        best = max(best, tj - m - j + 1)
    return m + best
