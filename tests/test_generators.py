import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from targetset import (
    Graph,
    GraphSource,
    clique_graph,
    connected_components,
    cycle_graph,
    derive_seed,
    gnp,
    random_tree,
    star_graph,
)
from targetset.generators import _float_ceiling


def test_clique_edge_count():
    g = clique_graph(4)
    assert (g.n, g.m) == (4, 6)


def test_star_degrees():
    g = star_graph(5)
    assert g.degrees[0] == 4
    assert all(g.degrees[v] == 1 for v in range(1, 5))


def test_cycle_all_degree_two():
    g = cycle_graph(7)
    assert g.m == 7
    assert all(d == 2 for d in g.degrees)


def test_generator_parameter_validation():
    with pytest.raises(ValueError):
        cycle_graph(2)
    with pytest.raises(ValueError):
        star_graph(1)
    with pytest.raises(ValueError):
        gnp(10, 0.0)
    with pytest.raises(ValueError):
        gnp(10, 1.0)
    with pytest.raises(ValueError):
        gnp(0, 0.5)
    # sizes and probabilities of the wrong type fail at the boundary
    bad_calls = [
        (random_tree, 2.5), (random_tree, True), (cycle_graph, 3.0), (clique_graph, 2.0),
        (star_graph, 2.0), (gnp, 2.5, 0.5), (gnp, True, 0.5), (gnp, "10", 0.5),
        (gnp, 10, "0.5"), (gnp, 10, None),
        # a seed is an int or None: True would pass as 1, 1.5 and "x" as hashables
        (gnp, 6, 0.5, True), (gnp, 6, 0.5, 1.5), (random_tree, 6, "x"), (random_tree, 1, 1.0),
    ]
    for fn, *args in bad_calls:
        with pytest.raises(ValueError):
            fn(*args)
    assert gnp(6, 0.5, None).n == random_tree(6, None).n == 6


def test_gnp_with_a_tiny_p_has_no_edges():
    for p in (5e-324, 1e-310):
        g = gnp(5, p, seed=1)
        assert (g.n, g.m) == (5, 0)
    assert GraphSource.parse("gnp:5:1e-310").build().m == 0


def test_gnp_deterministic_under_seed():
    a = gnp(30, 0.5, seed=7)
    b = gnp(30, 0.5, seed=7)
    assert sorted(a.edges()) == sorted(b.edges())
    c = gnp(30, 0.5, seed=8)
    assert sorted(a.edges()) != sorted(c.edges())


def test_gnp_edge_count_roughly_matches_expectation():
    g = gnp(200, 0.2, seed=1)
    expected = 0.2 * 200 * 199 / 2
    assert 0.7 * expected < g.m < 1.3 * expected


def gnp_via_edge_list(n, p, seed):
    """The same skip sampler through the checking constructor: collect the
    edge tuples, then let ``Graph`` sort and de-duplicate them."""
    rng = random.Random(seed)
    log_q = math.log1p(-p)
    edges = []
    v, w = 1, -1
    while v < n:
        w += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((v, w))
    return Graph(n, edges)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 300),
    st.floats(0.001, 0.999) | st.sampled_from([1e-9, 0.5, 1 - 1e-9]),
    st.integers(0, 2**64),
)
@example(300, 0.5, 1)  # ids above 256, which CPython does not cache
@example(5000, 0.002, derive_seed(1, "graph", "gnp:5000:0.002", 0))  # the gnp-sweep size
@example(300, 0.999, 2)  # most skips floor to 0
def test_gnp_matches_edge_list_construction(n, p, seed):
    g = gnp(n, p, seed=seed)
    expected = gnp_via_edge_list(n, p, seed)
    assert (g.n, g.m, g.labels) == (expected.n, expected.m, None)
    assert g.adjacency == expected.adjacency
    # one int object per vertex id, shared by every list that names it
    assert len({id(u) for lst in g.adjacency for u in lst}) <= n
    rebuilt = Graph(g.n, g.edges())
    assert (rebuilt.m, rebuilt.adjacency) == (g.m, g.adjacency)


@settings(max_examples=300)
@given(st.integers(0, 2**80), st.integers(-2, 2))
@example(2**53 + 1, -1)  # float(2**53 + 1) is 2**53, below the int
def test_float_ceiling_keeps_the_skip_compare(x, steps):
    f = _float_ceiling(x)
    assert f >= x > math.nextafter(f, -math.inf)
    skip = f  # a float up to two steps either side of the limit
    for _ in range(abs(steps)):
        skip = math.nextafter(skip, math.copysign(math.inf, steps))
    assert (skip >= f) == (skip >= x)


def test_float_ceiling_steps_past_a_rounded_down_int():
    assert float(2**53 + 1) < 2**53 + 1
    assert _float_ceiling(2**53 + 1) == 2.0**53 + 2


@settings(max_examples=50)
@given(st.integers(1, 80), st.integers(0, 10**9))
def test_tree_generator_yields_spanning_trees(n, seed):
    g = random_tree(n, seed=seed)
    assert g.m == n - 1
    assert len(connected_components(g)) == 1  # connected + n-1 edges => acyclic


def test_tree_deterministic_under_seed():
    a = random_tree(25, seed=3)
    b = random_tree(25, seed=3)
    assert sorted(a.edges()) == sorted(b.edges())


def test_graph_source_parse_and_build():
    src = GraphSource.parse("gnp:30:0.5")
    assert (src.kind, src.n, src.p) == ("gnp", 30, 0.5)
    g = src.with_seed(11).build()
    assert g.n == 30
    assert GraphSource.parse("star:9").build().degrees[0] == 8
    assert GraphSource.parse("clique:4").build().m == 6
    assert GraphSource.parse("cycle:5").name == "cycle:5"


def test_graph_source_rejects_bad_specs():
    # parse rejects a malformed spec, build an out-of-range value
    bad_specs = {
        "gnp:30": "bad graph spec", "gnp:30:1.5": "0 < p < 1", "nope:3": "bad graph spec",
        "edges:": "needs a file path", "gnp:30:0.5:7": "bad graph spec",
        "tree:6:4": "bad graph spec", "gnp:0:0.5": "^gnp n must be >= 1$",
        "tree:0": "^tree n must be >= 1$", "cycle:2": "^cycle n must be >= 3$",
        "clique:0": "^clique n must be >= 1$", "star:1": "^star n must be >= 2$",
        None: "graph spec must be a string", 5: "graph spec must be a string",
        b"gnp:10:0.5": "graph spec must be a string",
    }
    for bad, match in bad_specs.items():
        with pytest.raises(ValueError, match=match):
            GraphSource.parse(bad).build()
    with pytest.raises(ValueError):
        GraphSource("nope", n=3).build()
