import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from targetset import Graph, connected_components, is_connected, load_edge_list, write_edge_list


def test_construction_normalizes_duplicates_and_loops():
    g = Graph(3, [(0, 1), (1, 0), (0, 0), (1, 2), (1, 2)])
    assert g.n == 3
    assert g.m == 2
    assert g.adjacency[1] == [0, 2]


def test_edge_out_of_range_rejected():
    with pytest.raises(ValueError):
        Graph(2, [(0, 5)])
    for n, edges in ((3, [(0, 1.5)]), (3, [(0, 1.0)]), (3, [(1.0, 2)]), (2.5, []), ("3", [])):
        with pytest.raises(ValueError, match="must be ints"):
            Graph(n, edges)
    # Bools compare equal to 0 and 1 and float self-loops are dropped as
    # loops, so neither fails an index or a range test; each must still be
    # rejected, also as the vertex count or when a bool edge repeats an int
    # edge.
    for n, edges in (
        (True, []),
        (3, [(0, True)]),
        (3, [(True, 2)]),
        (2, [(True, False)]),
        (3, [(2, 0), (2, False)]),
        (3, [(1.0, 1)]),
        (3, [(1, 1.0)]),
        (3, [(True, 1)]),
    ):
        with pytest.raises(ValueError, match="must be ints"):
            Graph(n, edges)


def test_repeated_labels_rejected():
    with pytest.raises(ValueError, match="labels must be distinct"):
        Graph(3, [(0, 1)], labels=[5, 5, 6])


def test_degree_sum_is_twice_edge_count():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert sum(g.degrees) == 2 * g.m


def test_load_edge_list_path_on_three_vertices():
    g = load_edge_list(io.StringIO("0 1\n1 2"))
    assert (g.n, g.m) == (3, 2)
    assert g.adjacency[1] == [0, 2]


def test_load_edge_list_dedups_and_drops_self_loops():
    g = load_edge_list(io.StringIO("0 1\n1 0\n0 0"))
    assert (g.n, g.m) == (2, 1)


def test_load_edge_list_compacts_ids_by_first_appearance():
    g = load_edge_list(io.StringIO("# c\n5 9\n9 7"))
    assert (g.n, g.m) == (3, 2)
    assert g.labels == (5, 9, 7)
    assert g.original_ids([0, 1, 2]) == [5, 9, 7]


def test_load_edge_list_percent_comments_and_blank_lines():
    g = load_edge_list(io.StringIO("% header\n\n1 2\n"))
    assert (g.n, g.m) == (2, 1)


def test_load_edge_list_malformed_token_reports_line_number():
    with pytest.raises(ValueError, match="line 2"):
        load_edge_list(io.StringIO("0 1\n1 x"))
    with pytest.raises(ValueError, match="line 1"):
        load_edge_list(io.StringIO("0 1 2\n"))


def test_load_edge_list_empty_input_rejected():
    with pytest.raises(ValueError, match="empty graph"):
        load_edge_list(io.StringIO("# nothing\n"))


def test_load_edge_list_accepts_bytes():
    g = load_edge_list(b"3 4\n4 5\n")
    assert (g.n, g.m) == (3, 2)


def test_write_edge_list_roundtrip(tmp_path):
    g = load_edge_list(io.StringIO("10 20\n20 30\n30 10"))
    path = tmp_path / "out.txt"
    write_edge_list(g, path)
    g2 = load_edge_list(path)
    assert g2.labels == g.labels
    assert sorted(g2.edges()) == sorted(g.edges())


def test_connected_components_and_connectivity():
    g = Graph(5, [(0, 1), (2, 3)])
    comps = connected_components(g)
    assert comps == [[0, 1], [2, 3], [4]]
    assert not is_connected(g)
    assert is_connected(Graph(1))


@settings(max_examples=60)
@given(
    st.integers(0, 10**9),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=40),
)
def test_random_instances_keep_graph_invariants(seed, raw_edges):
    from conftest import random_instance

    # raw_edges carries self-loops, repeats and reversed pairs unfiltered.
    raw = Graph(8, raw_edges)
    assert set(raw.edges()) == {(min(u, v), max(u, v)) for u, v in raw_edges if u != v}
    for g in (random_instance(seed)[0], raw):
        seen = set()
        for v in range(g.n):
            for u in g.adjacency[v]:
                assert u != v
                assert v in g.adjacency[u]
                seen.add((min(u, v), max(u, v)))
            nbrs = g.adjacency[v]
            assert nbrs == sorted(set(nbrs))
        assert len(seen) == g.m
