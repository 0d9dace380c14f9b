import gc
import io
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from targetset import (
    BenchConfig,
    Case,
    Graph,
    GraphSource,
    bound_new,
    check_thresholds,
    clique_graph,
    clique_optimum,
    connected_components,
    constant_capped,
    cycle_graph,
    degree_thresholds,
    gnp,
    greedy_tss,
    is_connected,
    is_target_set,
    load_edge_list,
    load_thresholds,
    random_in_degree,
    random_tree,
    run_activation,
    run_bench,
    star_graph,
    tss_solve,
    write_edge_list,
)
from targetset import graph
from targetset.reference import solve
from conftest import load_edge_list_by_line, load_thresholds_by_line, path_graph


def test_construction_normalizes_duplicates_and_loops():
    g = Graph(3, [(0, 1), (1, 0), (0, 0), (1, 2), (1, 2)])
    assert g.n == 3
    assert g.m == 2
    assert g.adjacency[1] == (0, 2)


def test_edge_out_of_range_rejected():
    with pytest.raises(ValueError):
        Graph(2, [(0, 5)])
    with pytest.raises(ValueError, match="vertex count must be nonnegative"):
        Graph(-1)
    for n, edges in (
        (3, [(0, 1.5)]), (3, [(0, 1.0)]), (3, [(1.0, 2)]), (2.5, []), ("3", []),
        (3, [(Case.SEEDED, 0)]), (3, [(Case.ACTIVATED, 2)]),  # int subclasses, any value
    ):
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


@pytest.mark.parametrize("edges, item", [
    (5, "5"), ([5], "item 5"), ([(0, 1, 2)], r"item \(0, 1, 2\)"),
], ids=["not-iterable", "not-a-pair", "triple"])
def test_edges_that_are_not_pairs_rejected(edges, item):
    with pytest.raises(ValueError, match=rf"^edges must be an iterable of \(u, v\) pairs, got {item}$"):
        Graph(3, edges)


# Every builder hands Graph tuples, so an adjacency cannot be mutated.
@pytest.mark.parametrize("build", [
    lambda: Graph(4, [(0, 1), (1, 2), (2, 0), (3, 0), (0, 3)]),
    lambda: gnp(50, 0.2, seed=3),
    lambda: load_edge_list(io.StringIO("0 1\n1 2\n2 0\n0 1\n3 3\n")),
    lambda: random_tree(20, seed=4),
    lambda: cycle_graph(5),
    lambda: clique_graph(4),
    lambda: star_graph(6),
], ids=["edges", "gnp", "load", "tree", "cycle", "clique", "star"])
def test_every_builder_freezes_the_adjacency(build):
    g = build()
    assert all(type(nbrs) is tuple for nbrs in g.adjacency)
    with pytest.raises(AttributeError):
        g.adjacency[0].append(1)


def test_repeated_labels_rejected():
    with pytest.raises(ValueError, match="labels must be distinct"):
        Graph(3, [(0, 1)], labels=[5, 5, 6])
    with pytest.raises(ValueError, match="labels length must equal the vertex count"):
        Graph(3, [], labels=[7, 8])


# Each input is checked by the function that owns it, so a value of the
# wrong type raises ValueError there instead of TypeError from deep inside.
@pytest.mark.parametrize("call, message", [
    (lambda: load_edge_list(5), "expected a file path or a stream"),
    (lambda: load_thresholds(path_graph(3), None), "expected a file path or a stream"),
    (lambda: GraphSource("edges").build(), "expected a file path or a stream"),
    (lambda: write_edge_list(path_graph(3), 5), "expected a file path or a stream"),
    (lambda: load_edge_list(mock.Mock(read=lambda: 5)),
     "^expected a stream of str or bytes, its read\\(\\) gave int$"),
    (lambda: load_thresholds(path_graph(3), mock.Mock(read=lambda: 5)),
     "^expected a stream of str or bytes, its read\\(\\) gave int$"),
    (lambda: Graph(2, [], labels=5), "labels must be an iterable of hashable ids"),
    (lambda: Graph(2, [], labels=[[1], [2]]), "labels must be an iterable of hashable ids"),
    # Only int labels order in a trace and read back from a written file.
    (lambda: Graph(3, [(0, 1), (1, 2)], labels=["a", 1, None]), "^labels must be ints, got 'a'$"),
    (lambda: Graph(2, [], labels=[0, True]), "^labels must be ints, got True$"),
    (lambda: Graph(2, [], labels=[1, 1.0]), "^labels must be ints, got 1.0$"),
    (lambda: clique_optimum(5), "thresholds must be a sequence of ints"),
    (lambda: BenchConfig(sources=(GraphSource.parse("star:5"),), sweep=3),
     "sweep must be a sequence of ints"),
    (lambda: solve(path_graph(3), [1, 1, 1], "tss", exact_cap=-1), "exact_cap must be >= 0"),
    (lambda: solve(path_graph(3), [1, 1, 1], "greedy", exact_cap=-1), "exact_cap must be >= 0"),
    (lambda: solve(path_graph(3), [1, 1, 1], "tss", exact_cap="x"), "exact_cap must be an int"),
    (lambda: run_bench("gnp:10:0.5"), "^expected a BenchConfig, got 'gnp:10:0.5'$"),
    (lambda: run_bench(None), "^expected a BenchConfig, got None$"),
    # A count no list can hold fails before anything is allocated.
    (lambda: Graph(10**30), "^vertex count must be at most sys.maxsize"),
    (lambda: gnp(10**30, 0.5), "^gnp n must be at most sys.maxsize"),
    (lambda: random_tree(10**30), "^tree n must be at most sys.maxsize"),
    (lambda: cycle_graph(10**30), "^cycle n must be at most sys.maxsize"),
    (lambda: clique_graph(10**30), "^clique n must be at most sys.maxsize"),
    (lambda: star_graph(10**30), "^star n must be at most sys.maxsize"),
], ids=["load-int", "thresholds-none", "edges-no-path", "write-int", "load-read-int",
        "thresholds-read-int", "labels-int",
        "labels-unhashable", "labels-str", "labels-bool", "labels-float", "clique-int",
        "sweep-int", "solve-cap-negative", "greedy-cap-negative", "solve-cap-str", "bench-str",
        "bench-none", "graph-huge", "gnp-huge", "tree-huge", "cycle-huge", "clique-huge", "star-huge"])
def test_bad_inputs_raise_value_error_at_their_owner(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# A graph argument that is not a Graph fails at the boundary, never with an
# AttributeError from inside (an int has no .n, .adjacency or .degrees).
@pytest.mark.parametrize("call", [
    lambda: tss_solve(5, [1]),
    lambda: greedy_tss(5, [1]),
    lambda: is_target_set(5, [1], []),
    lambda: run_activation(5, [1], []),
    lambda: bound_new(5, [1]),
    lambda: check_thresholds(5, [1]),
    lambda: constant_capped(5, 1),
    lambda: random_in_degree(5, 1),
    lambda: degree_thresholds(5),
    lambda: load_thresholds(5, io.StringIO("0 1\n")),
    lambda: connected_components(5),
    lambda: is_connected(5),
    lambda: write_edge_list(5, io.StringIO()),
], ids=["tss", "greedy", "is-target-set", "activation", "bound", "check", "const", "random",
        "degree", "file", "components", "connected", "write"])
def test_non_graph_argument_is_rejected_at_the_boundary(call):
    with pytest.raises(ValueError, match="^expected a Graph, got 5$"):
        call()


def test_degree_sum_is_twice_edge_count():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert sum(g.degrees) == 2 * g.m


def test_load_edge_list_path_on_three_vertices():
    g = load_edge_list(io.StringIO("0 1\n1 2"))
    assert (g.n, g.m) == (3, 2)
    assert g.adjacency[1] == (0, 2)


def test_load_edge_list_dedups_and_drops_self_loops():
    g = load_edge_list(io.StringIO("0 1\n1 0\n0 0"))
    assert (g.n, g.m) == (2, 1)


def test_load_edge_list_shares_one_int_per_vertex_id():
    # ids above 256, which CPython does not cache; repeats in both
    # orientations make the loader rebuild lists without them
    lines = [f"{1000 + v} {1000 + (v * 7 + 3) % 600}" for v in range(600)]
    lines += [f"{1000 + (v * 7 + 3) % 600} {1000 + v}" for v in range(0, 600, 5)]
    g = load_edge_list(io.StringIO("\n".join(lines)))
    assert g.n == 600
    assert len({id(u) for lst in g.adjacency for u in lst}) <= g.n


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
    # a vertex without edges is written as a self-loop, which the loader keeps
    g = Graph(4, [(0, 1), (1, 2)], labels=[10, 20, 30, 40])
    write_edge_list(g, path)
    g2 = load_edge_list(path)
    assert (g2.n, g2.m, set(g2.labels)) == (4, 2, {10, 20, 30, 40})
    original_edges = [{frozenset(h.original_ids(e)) for e in h.edges()} for h in (g, g2)]
    assert original_edges[0] == original_edges[1] == {frozenset((10, 20)), frozenset((20, 30))}


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
            assert nbrs == tuple(sorted(set(nbrs)))
        assert len(seen) == g.m


# Differential tests of the bulk reader against the per-line one in conftest.
# Tokens mix signs, leading zeros and digit underscores, so that distinct
# tokens can name one vertex; "7" and "007" are the same id.
TOKENS = ("0", "1", "2", "3", "5", "7", "007", "+5", "-3", "1_0", "10", "123456789012")
BAD_TOKENS = ("x", "1.5", "#", "%", "1__0", "_1", "0x1f", "|")
pads = st.sampled_from(("", " ", "\t", " \t"))
tokens = st.sampled_from(TOKENS)


def pair_lines(first, second):
    return st.builds("{}{}{}{}{}".format, pads, first, st.sampled_from((" ", "\t", "  ")), second, pads)


filler_lines = st.one_of(
    pads,  # blank and whitespace-only lines
    st.builds("{}{}{}".format, pads, st.sampled_from("#%"), st.sampled_from(("", " note", " 1 2", "1 2 3"))),
)
bad_lines = st.one_of(
    st.builds("{}{}{}".format, pads, tokens, pads),  # one token
    st.builds("{} {} {}".format, tokens, tokens, st.sampled_from(TOKENS + ("#", "# note"))),
    pair_lines(tokens, st.sampled_from(BAD_TOKENS)),
    pair_lines(st.sampled_from(BAD_TOKENS), tokens),
)


@st.composite
def framed(draw, lines):
    """``lines`` in order, with blank and comment lines between them, one bad
    line at a random position or none, and mixed line ends."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(filler_lines))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(bad_lines))
    ends = draw(st.lists(st.sampled_from(("\n", "\r\n", "\r")), min_size=len(lines), max_size=len(lines)))
    text = "".join(map(str.__add__, lines, ends))
    return text.rstrip("\r\n") if draw(st.booleans()) else text


def each_source(text, tmp_path_factory):
    """Fresh sources holding ``text``: a str stream, bytes, a binary stream
    and a path."""
    path = tmp_path_factory.getbasetemp() / "reader-input.txt"
    path.write_bytes(text.encode())
    return (
        lambda: io.StringIO(text),
        lambda: text.encode(),
        lambda: io.BytesIO(text.encode()),
        lambda: path,
    )


def outcome(read, *args):
    try:
        result = read(*args)
    except ValueError as exc:
        return "error", str(exc)
    if isinstance(result, Graph):
        return "graph", (result.n, result.m, result.adjacency, result.labels)
    return "list", result


@settings(max_examples=200, deadline=None)
@given(st.lists(pair_lines(tokens, tokens), max_size=30).flatmap(framed), st.integers(0, 12))
@example("9 9\n1 2\n", 0)  # vertex 9 only ever in a self-loop
@example("1 2\n3 x\n4 5 6\n", 2)  # a shape error after an integer error
@example("# only\r\n%comments\r", 1)
@example("1 2\r\n3 4\r5 6\n\n# 7\n7 8\n", 3)  # cuts after \r\n and before a blank line
@example("1 2\r3 4\r\r5 x\r", 2)  # no "\n": cuts after each lone \r
# Two bad lines in one chunk whose token counts make up for each other, with
# and without a "|" typed in the file.
@example("1\n2 3 4\n", 12)
@example("1 2 |\n3\n", 12)
@example("| 1\n2 3\n", 12)
@example("1 2\n3 4 5\n", 12)  # the right "|" slots, one token too many
def test_load_edge_list_matches_per_line_reader(tmp_path_factory, text, chunk):
    # Once with the load's own chunk size, and once with a chunk of a few
    # characters, so that most lines start a chunk of their own.
    for chunk_chars in (graph._CHUNK_CHARS, chunk):
        with mock.patch.object(graph, "_CHUNK_CHARS", chunk_chars):
            for source in each_source(text, tmp_path_factory):
                assert outcome(load_edge_list, source()) == outcome(load_edge_list_by_line, source())


@st.composite
def threshold_texts(draw):
    """A labelled or unlabelled graph and a threshold file for it that is
    complete and valid unless one line is dropped, repeated, made negative
    or given an unknown id."""
    edges = draw(st.lists(pair_lines(tokens, tokens), min_size=1, max_size=12))
    g = load_edge_list_by_line("\n".join(edges).encode())
    if draw(st.booleans()):
        g = Graph(g.n, g.edges())
    labels = draw(st.permutations([str(g.original_id(v)) for v in range(g.n)]))
    lines = [draw(pair_lines(st.just(lab), st.sampled_from(("0", "1", "2", "+3", "1_0")))) for lab in labels]
    at = draw(st.integers(0, len(lines) - 1))
    mutation = draw(st.sampled_from(("none", "drop", "repeat", "negative", "unknown")))
    if mutation == "drop":
        del lines[at]
    elif mutation == "repeat":
        lines.insert(draw(st.integers(0, len(lines))), f"{labels[at]} 1")
    elif mutation == "negative":
        lines[at] = f"{labels[at]} -3"
    elif mutation == "unknown":
        lines.insert(at, "99 1")
    return g, draw(framed(lines))


@settings(max_examples=200, deadline=None)
@given(threshold_texts())
@example((Graph(2, [(0, 1)]), "1 1\n0 -3\n0\n"))  # a bad pair before a bad line
def test_load_thresholds_matches_per_line_reader(tmp_path_factory, instance):
    g, text = instance
    for source in each_source(text, tmp_path_factory):
        assert outcome(load_thresholds, g, source()) == outcome(load_thresholds_by_line, g, source())


def test_first_bad_line_is_reported_past_the_first_chunk():
    # Lines of 14 characters with their "\n", so line i starts at 14 * i:
    # the first bad line sits half a chunk into the second chunk, and a
    # second one in the third.
    width = 14
    lines = [f"{i:06d} {i + 1:06d}" for i in range(3 * graph._CHUNK_CHARS // width)]
    first = 3 * graph._CHUNK_CHARS // 2 // width
    second = 5 * graph._CHUNK_CHARS // 2 // width
    assert first * width > graph._CHUNK_CHARS + width
    lines[first] = f"{first:06d} y"
    lines[second] = f"{second:06d}"
    text = "\n".join(lines) + "\n"
    assert text.index(lines[first]) == first * width
    with pytest.raises(ValueError, match=f"^line {first + 1}: malformed integer token in '{first:06d} y'$"):
        load_edge_list(text.encode())


@pytest.mark.parametrize("line_end", ["\n", "\r"])
def test_load_keeps_its_temporary_data_below_the_graph_it_builds(line_end):
    # tracemalloc counts Python allocations, not the process's pages, so the
    # peak is the same in every run.  The text is decoded inside the load.
    # Bytes keep a lone "\r" (a file read as text would turn it into "\n"),
    # and a text whose lines end in one must be cut into chunks as well.
    buf = io.StringIO()
    write_edge_list(gnp(20_000, 10 / 20_000, seed=1), buf)
    data = buf.getvalue().replace("\n", line_end).encode()
    del buf
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = load_edge_list(data)
        kept, peak = (size - base for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert g.m > 90_000
    assert peak <= 2 * kept, f"load peak {peak / 2**20:.2f} MiB, graph {kept / 2**20:.2f} MiB"
