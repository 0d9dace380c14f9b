"""Baselines and oracles: a greedy heuristic, an exhaustive exact solver for
small instances, and the closed-form optimum for cliques."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from .diffusion import is_target_set
from .graph import Graph, _check_int, connected_components
from .solver import SolverReport, _eliminate, tss_solve
from .thresholds import check_thresholds

EXACT_CAP = 24  # default vertex cap of exact_solve, the CLI and the bench harness
ALGORITHMS = ("tss", "greedy", "exact")  # the names solve() takes; the first is the default
TSS, _, EXACT = ALGORITHMS


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


def _reduce_instance(
    adj: list[list[int]], tt: list[int], present: list[bool], forced: list[int]
) -> None:
    """Shrink the instance in place without changing the optimum.

    Two moves, applied to a fixpoint: a threshold-0 vertex activates on its
    own, so it is deleted and each surviving neighbor's threshold drops by
    one (clamped); a vertex whose threshold exceeds its surviving degree can
    never be activated, so it belongs to every target set and is deleted the
    same way after being recorded.
    """
    changed = True
    while changed:
        changed = False
        for v, nbrs in enumerate(adj):
            if not present[v]:
                continue
            tv = tt[v]
            if tv == 0 or tv > sum(present[u] for u in nbrs):
                if tv != 0:
                    forced.append(v)
                present[v] = False
                for u in nbrs:
                    if present[u] and tt[u] > 0:
                        tt[u] -= 1
                changed = True


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
    members: list[int], adj: list[list[int]], tt: list[int]
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
    comp_mask = sum(1 << u for u in members)
    adj_mask = [sum(1 << u for u in nbrs) for nbrs in adj]
    examined = 0
    width = len(members)

    def rec(lo: int, closed: int, need: int) -> list[int] | None:
        nonlocal examined
        if need == 0:
            examined += 1
            return [] if closed == comp_mask else None
        suffix = comp_mask >> members[lo] << members[lo]  # members[lo:] as a mask
        if _close_mask(closed | suffix, members, adj_mask, tt, comp_mask) != comp_mask:
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
    _check_int("max_vertices", max_vertices)
    n = g.n
    if n > max_vertices:
        raise ValueError("instance too large for exact solver")

    tt = list(t)
    present = [True] * n
    witness: list[int] = []  # the forced vertices, then each component's seeds
    _reduce_instance(g.adjacency, tt, present, witness)
    rest = Graph(n, ((u, v) for u, v in g.edges() if present[u] and present[v]))

    examined = 0
    for members in connected_components(rest):
        if present[members[0]]:  # a reduced-away vertex is left isolated
            chosen, seen = _min_seed_for_component(members, g.adjacency, tt)
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


def solve(
    g: Graph, t: Sequence[int], alg: str, exact_cap: int = EXACT_CAP
) -> tuple[SolverReport | ExactResult, tuple[int, ...], float]:
    """Run algorithm ``alg`` and re-check its set; return ``(result,
    solution, seconds)``, with the solver call alone timed.  An unknown name
    raises ``ValueError``; a set that is not a target set is a solver bug and
    raises ``AssertionError``, also under ``python -O``."""
    if alg not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {alg!r}")
    start = time.perf_counter()
    if alg == EXACT:
        result = exact_solve(g, t, max_vertices=exact_cap)
        solution = result.witness
    else:
        result = (tss_solve if alg == TSS else greedy_tss)(g, t)
        solution = result.target_set
    seconds = time.perf_counter() - start
    try:
        ok = is_target_set(g, t, solution)
    except ValueError:  # the set holds an id that is not a vertex
        ok = False
    if not ok:
        raise AssertionError(f"{alg} emitted a set that is not a target set")
    return result, solution, seconds


def clique_optimum(thresholds_sorted: Sequence[int], n: int | None = None) -> int:
    """Optimal target set size for a clique, from its sorted threshold list.

    With thresholds t(u_1) <= ... <= t(u_n) and m the number of vertices
    whose threshold is at least n (they can never be activated and must all
    be seeded), the optimum is

        m + max over 1 <= j <= n-m of max(t(u_j) - m - j + 1, 0).
    """
    ts = list(thresholds_sorted)
    for tv in ts:
        _check_int("threshold", tv, 0)
    if n is None:
        n = len(ts)
    _check_int("n", n)
    if n != len(ts):
        raise ValueError(f"expected {n} thresholds, got {len(ts)}")
    if any(ts[i] > ts[i + 1] for i in range(len(ts) - 1)):
        raise ValueError("thresholds must be sorted nondecreasing")
    m = sum(1 for tv in ts if tv >= n)
    best = 0
    for j, tj in enumerate(ts[: n - m], start=1):
        best = max(best, tj - m - j + 1)
    return m + best
