import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from targetset import (
    Graph,
    clique_graph,
    cycle_graph,
    format_trace,
    is_target_set,
    run_activation,
)
from conftest import activation_closure, path_graph, random_instance


def test_path_middle_vertex_needs_both_neighbors():
    g = path_graph(3)
    trace = run_activation(g, [1, 2, 1], {0, 2})
    assert trace.rounds == [{0, 2}, {1}]
    assert trace.active == {0, 1, 2}
    assert trace.converged_round == 1


def test_seeding_everything_converges_immediately():
    g = cycle_graph(5)
    trace = run_activation(g, [2] * 5, range(5))
    assert trace.converged_round == 0
    assert trace.rounds == [set(range(5))]
    assert trace.active == set(range(5))


def test_three_seed_caterpillar_activates_in_two_rounds():
    # 10-vertex caterpillar, verified by hand simulation: seeds light their
    # six threshold-1 neighbors in round 1, the far leaf follows in round 2.
    edges = [(0, 1), (1, 2), (1, 3), (1, 4), (4, 5), (4, 6), (6, 7), (6, 8), (8, 9)]
    g = Graph(10, edges)
    t = [1, 2, 1, 1, 2, 1, 2, 1, 1, 1]
    trace = run_activation(g, t, {1, 4, 6})
    assert trace.rounds == [{1, 4, 6}, {0, 2, 3, 5, 7, 8}, {9}]
    assert trace.active == set(range(10))
    assert trace.converged_round == 2


def test_zero_threshold_nonseeds_join_at_round_one():
    g = Graph(2, [])
    trace = run_activation(g, [0, 0], set())
    assert trace.rounds == [set(), {0, 1}]
    assert trace.converged_round == 1


def test_seed_out_of_range_rejected():
    for fn in (run_activation, is_target_set):
        for seed in (7, -1, 0.5, True):
            with pytest.raises(ValueError, match="seed vertex"):
                fn(path_graph(3), [1, 1, 1], [seed])


def test_is_target_set_examples():
    assert is_target_set(clique_graph(3), [1, 1, 1], {0})
    assert not is_target_set(cycle_graph(4), [2, 2, 2, 2], {0})
    g, t = random_instance(99)
    assert is_target_set(g, t, range(g.n))


def test_format_trace_lines():
    g = path_graph(3)
    trace = run_activation(g, [1, 2, 1], {2, 0})
    assert format_trace(trace) == "0: 0 2\n1: 1"


def test_format_trace_uses_original_ids():
    import io

    from targetset import load_edge_list

    g = load_edge_list(io.StringIO("5 9\n9 7"))
    trace = run_activation(g, [0, 1, 1], {0})
    assert format_trace(trace, g).splitlines()[0] == "0: 5"


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_rounds_partition_the_active_set_and_converge_fast(seed):
    g, t = random_instance(seed)
    rng = random.Random(seed ^ 0xA5A5)
    seeds = set(rng.sample(range(g.n), rng.randint(0, g.n)))
    trace = run_activation(g, t, seeds)
    union = set()
    for r in trace.rounds:
        assert not (r & union), "round sets must be disjoint"
        union |= r
    assert union == trace.active
    assert trace.converged_round <= g.n
    assert seeds <= trace.active


def naive_rounds(g, t, seeds):
    """Round sets by the synchronous definition: every round recounts each
    inactive vertex's active neighbors from scratch."""
    active = set(seeds)
    rounds = [set(active)]
    while True:
        new = {
            u for u in range(g.n)
            if u not in active and sum(w in active for w in g.adjacency[u]) >= t[u]
        }
        if not new:
            return rounds
        rounds.append(new)
        active |= new


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_synchronous_rounds_match_naive_closure(seed):
    g, t = random_instance(seed)
    rng = random.Random(seed ^ 0x5A5A)
    seeds = set(rng.sample(range(g.n), rng.randint(0, g.n)))
    trace = run_activation(g, t, seeds)
    closure = activation_closure(g, t, seeds)
    assert trace.rounds == naive_rounds(g, t, seeds)
    assert trace.converged_round == len(trace.rounds) - 1
    assert trace.active == closure
    assert is_target_set(g, t, seeds) == (closure == set(range(g.n)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_more_seeds_never_activate_less(seed):
    g, t = random_instance(seed)
    rng = random.Random(seed ^ 0x1234)
    small = set(rng.sample(range(g.n), rng.randint(0, g.n)))
    big = small | set(rng.sample(range(g.n), rng.randint(0, g.n)))
    assert run_activation(g, t, small).active <= run_activation(g, t, big).active
    if is_target_set(g, t, small):
        assert is_target_set(g, t, big)
