from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from targetset import (
    Case,
    Graph,
    clique_graph,
    is_target_set,
    star_graph,
    tss_solve,
)
from conftest import path_graph, random_instance


def test_path_needs_a_single_seed():
    g = path_graph(3)
    report = tss_solve(g, [1, 1, 1])
    assert report.size == 1
    assert is_target_set(g, [1, 1, 1], report.target_set)
    # deterministic tie-breaks: both ends tie on the ratio, the larger id
    # goes first, and the survivor is seeded once it runs out of neighbors
    assert report.elimination_order == [
        (2, Case.DISCARDED),
        (1, Case.DISCARDED),
        (0, Case.SEEDED),
    ]


def test_k4_with_degree_thresholds_returns_minimum_vertex_cover():
    g = clique_graph(4)
    report = tss_solve(g, [3, 3, 3, 3])
    assert report.size == 3
    for u, v in g.edges():
        assert u in report.target_set or v in report.target_set


def test_star_center_is_the_whole_answer():
    for center_threshold in (1, 3, 8):
        g = star_graph(9)
        t = [center_threshold] + [1] * 8
        report = tss_solve(g, t)
        assert report.target_set == (0,)


def test_case_counts_account_for_every_vertex():
    g, t = random_instance(4242)
    report = tss_solve(g, t)
    assert sum(report.case_counts) == g.n
    assert report.case_counts[1] == report.size
    assert len(report.elimination_order) == g.n
    tags = [case for _, case in report.elimination_order]
    assert tags.count(Case.SEEDED) == report.size


def test_isolated_vertex_with_positive_threshold_is_seeded():
    g = Graph(3, [(0, 1)])
    report = tss_solve(g, [1, 1, 2])
    assert 2 in report.target_set


def test_zero_thresholds_need_no_seeds():
    g = path_graph(4)
    report = tss_solve(g, [0, 0, 0, 0])
    assert report.target_set == ()
    assert report.case_counts == (4, 0, 0)


def test_solver_is_deterministic():
    g, t = random_instance(777)
    assert tss_solve(g, t) == tss_solve(g, t)


def test_threshold_validation():
    g = path_graph(3)
    with pytest.raises(ValueError):
        tss_solve(g, [1, 1])
    with pytest.raises(ValueError):
        tss_solve(g, [1, -1, 1])


def paper_elimination_order(g, t):
    """TSS as written in the paper: linear scans for the three cases, exact
    ratios, and the documented tie-breaks.  The reference for tss_solve."""
    alive = set(range(g.n))
    delta = g.degrees
    k = list(t)
    order = []
    while alive:
        zero = [v for v in alive if k[v] == 0]
        deficient = [v for v in alive if delta[v] < k[v]]
        if zero:
            v, case = min(zero), Case.ACTIVATED
        elif deficient:
            v, case = max(deficient, key=lambda u: (k[u], u)), Case.SEEDED
        else:
            v = max(alive, key=lambda u: (Fraction(k[u], delta[u] * (delta[u] + 1)), k[u], u))
            case = Case.DISCARDED
        alive.remove(v)
        order.append((v, case))
        for u in g.adjacency[v]:
            if u in alive:
                delta[u] -= 1
                if case is not Case.DISCARDED:
                    k[u] = max(k[u] - 1, 0)
    return order


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_elimination_order_matches_paper_pseudocode(seed):
    g, t = random_instance(seed)
    assert tss_solve(g, t).elimination_order == paper_elimination_order(g, t)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_output_is_always_a_target_set(seed):
    g, t = random_instance(seed)
    report = tss_solve(g, t)
    assert is_target_set(g, t, report.target_set)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_degree_thresholds_yield_a_vertex_cover(seed):
    g, _ = random_instance(seed)
    report = tss_solve(g, g.degrees)
    cover = set(report.target_set)
    for u, v in g.edges():
        assert u in cover or v in cover


@settings(max_examples=200)
@given(
    st.integers(1, 60),
    st.integers(1, 62),
    st.integers(1, 60),
    st.integers(1, 62),
)
def test_integer_surrogate_reproduces_exact_ratio_order(k1, d1, k2, d2):
    # The solver ranks k/(d(d+1)) through floor(k*scale/(d(d+1))) with
    # scale = 2*B^2; this must match exact rational comparison in both
    # directions, including ties, for every (k, d) the solver can see.
    bound = 62 * 63
    scale = 2 * bound * bound
    s1 = k1 * scale // (d1 * (d1 + 1))
    s2 = k2 * scale // (d2 * (d2 + 1))
    exact1 = Fraction(k1, d1 * (d1 + 1))
    exact2 = Fraction(k2, d2 * (d2 + 1))
    if exact1 == exact2:
        assert s1 == s2
    elif exact1 < exact2:
        assert s1 < s2
    else:
        assert s1 > s2
