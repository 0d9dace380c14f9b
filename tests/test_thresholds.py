import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from targetset import (
    Graph,
    assign_thresholds,
    bound_new,
    bound_old,
    constant_capped,
    degree_thresholds,
    exact_solve,
    greedy_tss,
    is_target_set,
    load_edge_list,
    load_thresholds,
    random_in_degree,
    star_graph,
    tss_solve,
)
from conftest import path_graph


def test_constant_capped_on_path():
    g = path_graph(3)
    assert constant_capped(g, 2) == [1, 2, 1]


def test_constant_capped_requires_positive_t():
    for t in (0, -2):
        with pytest.raises(ValueError, match="^constant-capped t must be >= 1$"):
            constant_capped(path_graph(3), t)
    for t in (1.5, True):
        with pytest.raises(ValueError, match="^constant-capped t must be an int"):
            constant_capped(path_graph(3), t)


def test_constant_capped_isolated_vertex_gets_zero():
    g = Graph(3, [(0, 1)])
    assert constant_capped(g, 4) == [1, 1, 0]


# Degrees 1, 2, 3 and every power of two +- 1 up to 1025, where a draw is
# rejected most often (at and just past a power of two) and least often
# (just below one), plus isolated vertices: a union of stars, one center
# per degree, and three vertices without edges.
STREAM_DEGREES = sorted({1, 2, 3} | {2**k + j for k in range(1, 11) for j in (-1, 0, 1)})


def _stars(degrees):
    edges, n = [], 0
    for d in degrees:
        edges += [(n, n + i) for i in range(1, d + 1)]
        n += d + 1
    return Graph(n + 3, edges)


STREAM_GRAPH = _stars(STREAM_DEGREES)


def test_random_policy_copies_the_cpython_randint_path():
    # random_in_degree inlines randint(1, d) = 1 + _randbelow(d); this is the
    # getrandbits path it copies.
    assert random.Random._randbelow is random.Random._randbelow_with_getrandbits


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**64))
def test_random_policy_draws_randints_stream(seed):
    rng = random.Random(seed)
    expected = [rng.randint(1, d) if d else 0 for d in STREAM_GRAPH.degrees]
    assert random_in_degree(STREAM_GRAPH, seed) == expected


def test_constant_capped_is_min_of_t_and_degree():
    degrees = STREAM_GRAPH.degrees
    assert set(degrees) == {0} | set(STREAM_DEGREES)
    for t in {1, 2, 10**12} | {d + j for d in STREAM_DEGREES for j in (0, 1)}:
        assert constant_capped(STREAM_GRAPH, t) == [min(t, d) for d in degrees]


def test_degree_policy_is_the_degree_sequence():
    g = star_graph(6)
    assert degree_thresholds(g) == g.degrees


def test_random_policy_stays_in_degree_range_and_is_seeded():
    g = star_graph(5)
    t = random_in_degree(g, seed=5)
    assert t == random_in_degree(g, seed=5)
    assert t[1:] == [1, 1, 1, 1]  # degree-1 leaves are forced to 1
    assert 1 <= t[0] <= 4


def test_random_policy_isolated_vertex_gets_zero():
    g = Graph(2, [])
    assert random_in_degree(g, seed=0) == [0, 0]


def test_explicit_file_maps_original_ids():
    g = load_edge_list(io.StringIO("5 9\n9 7"))
    t = load_thresholds(g, io.StringIO("5 2\n9 1\n7 0\n"))
    assert t == [2, 1, 0]


def test_explicit_file_lists_missing_vertices():
    g = load_edge_list(io.StringIO("5 9\n9 7"))
    with pytest.raises(ValueError, match=r"\[5, 7\]"):
        load_thresholds(g, io.StringIO("9 1\n"))


def test_explicit_file_rejects_unknown_and_negative():
    g = load_edge_list(io.StringIO("0 1"))
    with pytest.raises(ValueError, match="unknown vertex"):
        load_thresholds(g, io.StringIO("0 1\n1 1\n4 1\n"))
    with pytest.raises(ValueError, match="negative"):
        load_thresholds(g, io.StringIO("0 -1\n1 1\n"))
    with pytest.raises(ValueError, match="line 3: duplicate vertex id 0"):
        load_thresholds(g, io.StringIO("0 1\n1 1\n0 0\n"))


def test_assign_thresholds_dispatch():
    g = path_graph(3)
    assert assign_thresholds(g, "const:2") == [1, 2, 1]
    assert assign_thresholds(g, "degree") == [1, 2, 1]
    assert assign_thresholds(g, "random", seed=1) == assign_thresholds(g, "random", seed=1)
    with pytest.raises(ValueError):
        assign_thresholds(g, "mystery")
    with pytest.raises(ValueError):
        assign_thresholds(g, "const:x")
    for policy in ("random:7", "degree:x"):
        with pytest.raises(ValueError, match=f"unknown threshold policy '{policy}'"):
            assign_thresholds(g, policy)
    for policy in (None, 7):
        with pytest.raises(ValueError, match="policy must be a string"):
            assign_thresholds(g, policy)
    for seed in (True, 1.5, [1]):
        with pytest.raises(ValueError, match="seed must be an int"):
            assign_thresholds(g, "random", seed)
    assert len(random_in_degree(g, None)) == 3


def test_policy_outputs_stay_within_degree_ranges():
    from conftest import random_instance

    for seed in range(20):
        g, _ = random_instance(seed)
        deg = g.degrees
        for c in (1, 3, 10):
            for v, tv in enumerate(constant_capped(g, c)):
                assert 0 <= tv <= deg[v]
        for v, tv in enumerate(random_in_degree(g, seed=seed)):
            if deg[v] >= 1:
                assert 1 <= tv <= deg[v]
            else:
                assert tv == 0


# every public function that takes thresholds checks them at its boundary
THRESHOLD_ENTRY_POINTS = (
    tss_solve,
    greedy_tss,
    lambda g, t: is_target_set(g, t, [0]),
    bound_new,
    bound_old,
    exact_solve,
)


@pytest.mark.parametrize("bad", [1.5, True])
def test_non_int_thresholds_are_rejected_at_every_entry_point(bad):
    g = path_graph(3)
    t = [1, bad, 1]
    for entry in THRESHOLD_ENTRY_POINTS:
        with pytest.raises(ValueError, match="threshold of vertex 1 is not an int"):
            entry(g, t)


# A dict or a set has a len, but no vertex order: {0: 9, 1: 9, 2: 9} would
# be read as its keys [0, 1, 2].
@pytest.mark.parametrize("bad", [None, 5, {0: 9, 1: 9, 2: 9}, {0, 1, 2}])
def test_thresholds_without_len_are_rejected_at_every_entry_point(bad):
    for entry in THRESHOLD_ENTRY_POINTS:
        with pytest.raises(ValueError, match="thresholds must be a sequence of ints"):
            entry(path_graph(3), bad)
