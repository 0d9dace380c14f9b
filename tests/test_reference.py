from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from targetset import (
    Case,
    Graph,
    clique_graph,
    clique_optimum,
    cycle_graph,
    exact_solve,
    gnp,
    greedy_tss,
    is_target_set,
    star_graph,
    tss_solve,
)
from targetset.reference import ALGORITHMS, solve
from conftest import path_graph, random_instance


def naive_optimum(g, t):
    """Reference for the reference: plain subset enumeration via the
    activation engine, no bitsets, no reductions, no pruning.  Returns the
    first target set in lexicographic order of the smallest size."""
    for size in range(g.n + 1):
        for seeds in combinations(range(g.n), size):
            if is_target_set(g, t, seeds):
                return seeds
    raise AssertionError("unreachable: the full vertex set is a target set")


def test_exact_single_vertex():
    g = Graph(1)
    assert exact_solve(g, [0]).optimum_size == 0
    assert exact_solve(g, [0]).witness == ()
    res = exact_solve(g, [1])
    assert res.optimum_size == 1
    assert res.witness == (0,)


def test_exact_cycle_six_all_two():
    res = exact_solve(cycle_graph(6), [2] * 6)
    assert res.optimum_size == 3
    assert is_target_set(cycle_graph(6), [2] * 6, res.witness)


def test_exact_respects_vertex_cap():
    g = gnp(30, 0.2, seed=1)
    with pytest.raises(ValueError, match="too large"):
        exact_solve(g, [1] * 30)
    exact_solve(g, [1] * 30, max_vertices=30)  # override is allowed
    for cap in (30.5, True):
        with pytest.raises(ValueError, match="max_vertices must be an int"):
            exact_solve(g, [1] * 30, max_vertices=cap)
    for cap in (-1, -30):
        with pytest.raises(ValueError, match="max_vertices must be >= 0"):
            exact_solve(g, [1] * 30, max_vertices=cap)


def test_exact_search_raises_instead_of_looping_when_no_size_works(monkeypatch, capsys):
    # With a closure that never activates anything, even the whole component
    # fails the search; it must stop after the last size and report a bug.
    import targetset.reference as reference
    from targetset.cli import main

    monkeypatch.setattr(reference, "_close_mask", lambda *args: 0)
    with pytest.raises(AssertionError, match="exact search found no seed set"):
        exact_solve(clique_graph(3), [1, 1, 1])
    argv = ["solve", "--gen", "clique:3", "--thresholds", "1,1,1", "--alg", "exact"]
    assert main(argv) == 3
    assert "BUG: exact search found no seed set" in capsys.readouterr().err


def test_exact_budget_equal_to_n_always_succeeds():
    g, t = random_instance(5, n_max=10)
    res = exact_solve(g, t, max_vertices=g.n)
    assert res.optimum_size <= g.n


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_exact_matches_plain_enumeration(seed):
    g, t = random_instance(seed, n_max=9)
    res = exact_solve(g, t, max_vertices=9)
    first = naive_optimum(g, t)
    assert res.optimum_size == len(first)
    assert res.witness == first  # the witness `solve --alg exact` prints
    assert is_target_set(g, t, res.witness)
    # a vertex with more threshold than neighbours is in every target set
    assert {v for v, d in enumerate(g.degrees) if t[v] > d} <= set(res.witness)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_exact_is_a_lower_bound_for_heuristics(seed):
    g, t = random_instance(seed, n_max=12)
    opt = exact_solve(g, t, max_vertices=12).optimum_size
    assert opt <= tss_solve(g, t).size
    assert opt <= greedy_tss(g, t).size


def test_greedy_zero_thresholds_yield_empty_set():
    g, _ = random_instance(17)
    assert greedy_tss(g, [0] * g.n).target_set == ()


def test_greedy_star_picks_the_center():
    report = greedy_tss(star_graph(5), [1] * 5)
    assert report.target_set == (0,)


def test_greedy_k4_at_degree_thresholds():
    g = clique_graph(4)
    t = [3, 3, 3, 3]
    report = greedy_tss(g, t)
    optimum = exact_solve(g, t).optimum_size
    assert optimum == 3  # K4 needs a vertex cover here; brute force agrees
    assert report.size >= optimum
    assert is_target_set(g, t, report.target_set)


def greedy_reference_order(g, t):
    """The degree-greedy baseline by linear scans, with its documented
    tie-breaks.  The reference for greedy_tss."""
    alive = set(range(g.n))
    delta = g.degrees
    k = list(t)
    order = []
    while alive:
        v, case = min(alive, key=lambda u: (k[u], u)), Case.ACTIVATED
        if k[v] > 0:
            v, case = max(alive, key=lambda u: (delta[u], u)), Case.SEEDED
        alive.remove(v)
        order.append((v, case))
        for u in g.adjacency[v]:
            if u in alive:
                delta[u] -= 1
                k[u] = max(k[u] - 1, 0)
    return order


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_greedy_elimination_order_matches_linear_scan(seed):
    g, t = random_instance(seed)
    assert greedy_tss(g, t).elimination_order == greedy_reference_order(g, t)


def star_of_stars(hubs):
    """Center 0 joined to hubs 1..hubs.  Hub 1 has hubs + 1 leaves and hub
    j >= 2 has hubs - j, so greedy seeds hub 1 first and then every hub j
    ties the center's falling degree: the center's heap entry goes stale
    after each hub and is re-keyed each time it reaches the top."""
    edges = []
    leaf = hubs + 1
    for j in range(1, hubs + 1):
        edges.append((0, j))
        for _ in range(hubs + 1 if j == 1 else hubs - j):
            edges.append((j, leaf))
            leaf += 1
    return Graph(leaf, edges)


def test_greedy_heaps_never_exceed_n_entries(monkeypatch):
    """Greedy's key never rises, so it keeps one ranked entry per alive
    vertex and re-keys a stale one when it is popped; no heap outgrows n."""
    import targetset.solver as solver

    push, heapify = solver.heappush, solver.heapify
    pushes = []
    builds = []  # the ranked heap is the list that heapify receives

    def watched(heap, item):
        push(heap, item)
        pushes.append((heap, len(heap), item))

    def watched_heapify(heap):
        heapify(heap)
        builds.append((heap, list(heap)))

    monkeypatch.setattr(solver, "heappush", watched)
    monkeypatch.setattr(solver, "heapify", watched_heapify)
    g = star_of_stars(23)
    # Center and hubs need every neighbor; leaves alternate thresholds 1 and
    # 2, so a seeded hub sends half its leaves to the ready queue and leaves
    # the other half ranked with k = 1 and a lower degree.
    t = [d if v <= 23 else 1 + v % 2 for v, d in enumerate(g.degrees)]
    assert g.n == 279
    assert greedy_tss(g, t).elimination_order == greedy_reference_order(g, t)
    assert max(size for _, size, _ in pushes) <= g.n
    assert len(builds) == 1 and len(builds[0][1]) <= g.n
    ranked, built = builds[0]
    assert sum(-item % g.n == 0 for item in built) == 1  # the center, once
    rekeys = [item for heap, _, item in pushes if heap is ranked]
    assert sum(-item % g.n == 0 for item in rekeys) == 22
    for seed in range(40):
        g, t = random_instance(seed)
        pushes.clear()
        builds.clear()
        greedy_tss(g, t)
        assert max((size for _, size, _ in pushes), default=0) <= g.n
        assert all(len(entries) <= g.n for _, entries in builds)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_greedy_always_returns_a_target_set(seed):
    g, t = random_instance(seed)
    report = greedy_tss(g, t)
    assert is_target_set(g, t, report.target_set)
    assert sum(report.case_counts) == g.n


def test_clique_closed_form_examples():
    assert clique_optimum([1, 1, 1, 1]) == 1
    assert clique_optimum([4, 4, 4, 4]) == 4
    assert clique_optimum([1, 2, 3, 4, 5]) == 1


def test_clique_closed_form_validates_input():
    with pytest.raises(ValueError, match="sorted"):
        clique_optimum([2, 1])
    with pytest.raises(ValueError, match="threshold must be an int"):
        clique_optimum([1.5, 2])
    with pytest.raises(ValueError, match="threshold must be >= 0"):
        clique_optimum([-3, 2])


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10**9))
def test_clique_closed_form_matches_oracle(n, seed):
    import random

    rng = random.Random(seed)
    t = sorted(rng.randint(0, n + 2) for _ in range(n))
    g = clique_graph(n)
    assert clique_optimum(t) == exact_solve(g, t).optimum_size


def test_solve_runs_each_algorithm_and_rejects_unknown_names():
    g = star_graph(6)
    t = [3] + [1] * 5
    for alg in ALGORITHMS:
        result, solution, seconds = solve(g, t, alg)
        emitted = result.witness if alg == "exact" else result.target_set
        assert solution == emitted == (0,) and seconds >= 0.0
    with pytest.raises(ValueError, match="unknown algorithm 'magic'"):
        solve(g, t, "magic")
