import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import targetset
from targetset import (
    Graph,
    bound_new,
    bound_old,
    check_bound_dominance,
    clique_graph,
    cycle_graph,
    derive_seed,
    gnp,
    random_in_degree,
    star_graph,
    tss_solve,
)
from conftest import connected_gnp, path_graph, random_instance


def ref_new(g, t):
    """The sharper bound as the module docstring defines it, one Fraction
    add per summed vertex."""
    adj = g.adjacency
    in_v2 = [len(nbrs) >= 2 for nbrs in adj]
    total = Fraction(0)
    for v, nbrs in enumerate(adj):
        if not (in_v2[v] or t[v] != 1):
            continue
        d2 = sum(1 for u in nbrs if in_v2[u] or t[u] != 1)
        total += min(Fraction(1), Fraction(t[v], d2 + 1))
    return total


def ref_old(g, t):
    """The older bound as the module docstring defines it."""
    total = Fraction(0)
    for v, nbrs in enumerate(g.adjacency):
        total += min(Fraction(1), Fraction(t[v], len(nbrs) + 1))
    return total


def sparse_instance(seed):
    """A sparse G(n, p) graph with many isolated vertices, leaves and
    two-vertex components; thresholds favour 1 and include 0 and t > d."""
    rng = random.Random(seed)
    n = rng.randint(1, 80)
    g = gnp(n, rng.choice((0.01, 0.02, 0.05)), seed=derive_seed(seed, "g"))
    t = [rng.choice((0, 1, 1, rng.randint(0, d + 2))) for d in g.degrees]
    return g, t


def test_star_new_bound_is_one():
    for n, center in ((5, 3), (50, 10), (500, 499 - 1)):
        g = star_graph(n)
        t = [center] + [1] * (n - 1)
        assert bound_new(g, t) == 1


def test_star_old_bound_formula():
    g = star_graph(9)
    t = [5] + [1] * 8
    assert bound_old(g, t) == Fraction(5, 9) + Fraction(8, 2)


def test_path_with_heavy_middle():
    g = path_graph(3)
    t = [1, 2, 1]
    assert bound_new(g, t) == 1
    assert bound_old(g, t) == Fraction(5, 3)


def test_triangle_unit_thresholds():
    g = clique_graph(3)
    t = [1, 1, 1]
    assert bound_new(g, t) == 1
    assert bound_old(g, t) == 1


def test_isolated_zero_threshold_vertex_contributes_nothing():
    g = Graph(1)
    assert bound_old(g, [0]) == 0
    assert bound_new(g, [0]) == 0


def test_bounds_coincide_without_threshold_one_leaves():
    # min degree >= 2 makes every restricted neighbor count equal the degree
    for g in (cycle_graph(7), clique_graph(5)):
        t = random_in_degree(g, seed=3)
        assert bound_new(g, t) == bound_old(g, t)


def test_dominance_report_on_star():
    g = star_graph(9)
    t = [5] + [1] * 8
    report = check_bound_dominance(g, t)
    assert report.applicable
    assert report.v2_size == 1
    assert report.bound_new == 1
    assert report.tss_size == 1
    assert report.bound_old / report.bound_new >= Fraction(9 - 1, 2)


def test_two_vertex_component_marks_inapplicable():
    g = Graph(5, [(0, 1), (2, 3), (3, 4)])
    report = check_bound_dominance(g, [1, 1, 1, 2, 1])
    assert not report.applicable


def test_contract_checks_survive_python_O():
    # Forced failures of both dominance relations, of solve's re-check and of
    # the exact solver's witness re-check must still raise when asserts are
    # stripped.  is_target_set is broken only after the dominance checks,
    # which re-check their tss set through solve first.
    script = """
import sys
from fractions import Fraction
import targetset.bounds as bounds
import targetset.reference as reference
from targetset import star_graph

assert sys.flags.optimize
g, t = star_graph(9), [5] + [1] * 8
real_bound_old = bounds.bound_old
bounds.bound_old = lambda g, t: Fraction(0)
checks = (
    bounds.check_bound_dominance,
    bounds.check_bound_dominance,
    lambda g, t: reference.solve(g, t, "tss"),
    reference.exact_solve,
)
for i, check in enumerate(checks):
    if i == 1:
        bounds.bound_old = real_bound_old
        bounds.bound_new = lambda g, t: Fraction(0)
    if i == 2:
        reference.is_target_set = lambda g, t, seeds: False
    try:
        check(g, t)
    except AssertionError as exc:
        print("raised:", exc)
"""
    src = str(Path(targetset.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.splitlines() == [
        "raised: sharper bound 1 exceeds older bound 0",
        "raised: target set size 1 exceeds bound 0",
        "raised: tss emitted a set that is not a target set",
        "raised: exact witness is not a target set",
    ]


def test_disconnected_bound_equals_sum_over_components():
    # no edges cross components, so the restricted neighbor counts and the
    # summation domain are both local: the global sum is the component sum
    from targetset import Graph, connected_components

    g = Graph(8, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)])
    t = [1, 2, 1, 1, 1, 2, 2, 3]
    per_component = 0
    for comp in connected_components(g):
        relabel = {v: i for i, v in enumerate(comp)}
        sub = Graph(
            len(comp),
            [(relabel[u], relabel[v]) for u, v in g.edges() if u in relabel and v in relabel],
        )
        per_component += bound_new(sub, [t[v] for v in comp])
    assert bound_new(g, t) == per_component


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.builds(random_instance, st.integers(0, 10**9)),
        st.builds(sparse_instance, st.integers(0, 10**9)),
    )
)
def test_bounds_equal_per_vertex_reference(instance):
    g, t = instance
    assert bound_new(g, t) == ref_new(g, t)
    assert bound_old(g, t) == ref_old(g, t)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_new_bound_never_exceeds_old_bound(seed):
    g, t = random_instance(seed)
    assert bound_new(g, t) <= bound_old(g, t)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_solver_size_within_new_bound_on_connected_graphs(seed):
    g = connected_gnp(seed, n_lo=5, n_hi=40)
    t = random_in_degree(g, seed=seed)
    report = check_bound_dominance(g, t)  # raises internally on violation
    assert report.applicable
    assert tss_solve(g, t).size <= report.bound_new
