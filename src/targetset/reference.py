"""Oracles and the ``solve`` runner: an exhaustive exact solver for small
instances, the closed-form optimum for cliques, and ``solve`` itself."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from .diffusion import _spread, is_target_set
from .graph import Graph, _check_int, connected_components
from .solver import SolverReport, greedy_tss, tss_solve
from .thresholds import check_thresholds

EXACT_CAP = 24  # default vertex cap of exact_solve, the CLI and the bench harness
ALGORITHMS = ("tss", "greedy", "exact")  # the names solve() takes; the first is the default
TSS, _, EXACT = ALGORITHMS


@dataclass(frozen=True)
class ExactResult:
    """Exhaustive-search outcome: ``witness`` is one optimal target set, and
    ``subsets_examined`` counts the seed sets whose closure was evaluated."""

    optimum_size: int
    witness: tuple[int, ...]
    subsets_examined: int


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
    """Smallest seed set activating one component, and the count of sets
    examined, by increasing cardinality (lexicographic within a size).

    Three sound cuts: a prefix never extends with a vertex inside its
    activation closure; a subtree is dropped when seeding every remaining
    candidate would not activate the component; and it is dropped by
    counting (Ackerman, Ben-Zwi & Wolfovitz, TCS 2010): each edge among the
    inactive vertices serves at most one endpoint's residual need, so once
    the ``need`` largest needs are seeded the others sum to at most that
    edge count.  Seeding the whole component always works; a search that
    passes ``len(members)`` means an unsound cut and raises
    ``AssertionError``.
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
        open_mask = comp_mask & ~closed  # the inactive members
        inactive = [u for u in members if (open_mask >> u) & 1]
        r = sorted(tt[u] - (adj_mask[u] & closed).bit_count() for u in inactive)
        edges = sum((adj_mask[u] & open_mask).bit_count() for u in inactive) // 2
        if sum(r[: len(r) - need]) > edges:
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

    for size in range(width + 1):
        hit = rec(0, 0, size)
        if hit is not None:
            return hit, examined
    raise AssertionError("exact search found no seed set")


def exact_solve(g: Graph, t: Sequence[int], *, max_vertices: int = EXACT_CAP) -> ExactResult:
    """Exact minimum target set by exhaustive search over seed sets.

    Seed sets are tried in increasing cardinality, so the first hit is
    optimal.  First the vertices with t(v) > d(v), which every target set
    holds, are seeded and their activation closure removed; a removal keeps
    each survivor's t - d, so no vertex becomes forced later.  Each
    surviving component is then searched on its own, by bitmask.  Raises
    ``ValueError`` when n exceeds ``max_vertices`` ("instance too large for
    exact solver") or ``max_vertices`` is not an int >= 0.
    """
    check_thresholds(g, t)
    _check_int("max_vertices", max_vertices, 0)
    n = g.n
    if n > max_vertices:
        raise ValueError("instance too large for exact solver")

    # The reduction's fixpoint is the activation closure of the forced seeds;
    # a survivor keeps t minus its removed neighbours.
    adj = g.adjacency
    witness = [v for v in range(n) if t[v] > len(adj[v])]  # then each component's seeds
    present = [r < 0 for r in _spread(g, t, witness)[1]]
    tt = [tv - sum(not present[u] for u in nbrs) for tv, nbrs in zip(t, adj)]
    rest = Graph(n, ((u, v) for u, v in g.edges() if present[u] and present[v]))

    examined = 0
    for members in connected_components(rest):
        if present[members[0]]:  # a reduced-away vertex is left isolated
            chosen, seen = _min_seed_for_component(members, adj, tt)
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
    and an ``exact_cap`` that is not an int >= 0 raise ``ValueError`` (for
    every algorithm); a set that is not a target set is a solver bug and
    raises ``AssertionError``, also under ``python -O``."""
    if alg not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {alg!r}")
    _check_int("exact_cap", exact_cap, 0)
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


def clique_optimum(thresholds_sorted: Sequence[int]) -> int:
    """Optimal target set size for a clique, from its sorted threshold list.

    With thresholds t(u_1) <= ... <= t(u_n) and m the number of vertices
    whose threshold is at least n (they can never be activated and must all
    be seeded), the optimum is

        m + max over 1 <= j <= n-m of max(t(u_j) - m - j + 1, 0).
    """
    if not isinstance(thresholds_sorted, Sequence):
        raise ValueError(f"thresholds must be a sequence of ints, got {thresholds_sorted!r}")
    ts = list(thresholds_sorted)
    for tv in ts:
        _check_int("threshold", tv, 0)
    n = len(ts)
    if any(ts[i] > ts[i + 1] for i in range(n - 1)):
        raise ValueError("thresholds must be sorted nondecreasing")
    m = sum(1 for tv in ts if tv >= n)
    best = 0
    for j, tj in enumerate(ts[: n - m], start=1):
        best = max(best, tj - m - j + 1)
    return m + best
