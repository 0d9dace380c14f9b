"""Boundary sweep: every public callable that takes a vertex id, a seed set, a
trace or a threshold list meets each odd value with ``ValueError`` (or
``OSError`` where a path is read), on a labeled and on an unlabeled graph.
A call that returns counts as a failure."""

import pytest

from targetset import (
    ActivationTrace,
    Graph,
    bound_new,
    bound_old,
    check_bound_dominance,
    check_thresholds,
    exact_solve,
    format_trace,
    greedy_tss,
    is_target_set,
    load_edge_list,
    load_thresholds,
    run_activation,
    tss_solve,
)

N = 3  # both graphs have N vertices, so the odd value N is one past the last id
GRAPHS = {
    "labeled": lambda: load_edge_list(b"5 9\n9 7\n"),
    "unlabeled": lambda: Graph(N, [(0, 1), (1, 2)]),
}
ODD = {
    "None": None, "-1": -1, "n": N, "2.5": 2.5, "True": True, "'a'": "a",
    "[0]": [0], "b'x'": b"x", "object": object(),
}


def _trace(rounds):
    return ActivationTrace(rounds=rounds, active=set(), converged_round=0)


# slot name -> (call of a graph and the odd value, odd values valid in that slot)
SLOTS = {
    "original_id": (lambda g, x: g.original_id(x), ()),
    "original_ids": (lambda g, x: g.original_ids(x), ("[0]",)),
    "original_ids-item": (lambda g, x: g.original_ids([0, x]), ()),
    "format_trace-rounds": (lambda g, x: format_trace(_trace(x), g), ()),
    "format_trace-round": (lambda g, x: format_trace(_trace([[0], x]), g), ("[0]",)),
    "format_trace-vertex": (lambda g, x: format_trace(_trace([[0], [x]]), g), ()),
    "load_thresholds-source": (load_thresholds, ()),
}
for f in (run_activation, is_target_set):
    SLOTS[f"{f.__name__}-seeds"] = (lambda g, x, f=f: f(g, [1] * N, x), ("[0]",))
    SLOTS[f"{f.__name__}-seed"] = (lambda g, x, f=f: f(g, [1] * N, [0, x]), ())
    SLOTS[f"{f.__name__}-t"] = (lambda g, x, f=f: f(g, x, [0]), ())
    SLOTS[f"{f.__name__}-threshold"] = (lambda g, x, f=f: f(g, [1, 1, x], [0]), ("n",))
for f in (check_thresholds, tss_solve, greedy_tss, bound_new, bound_old,
          check_bound_dominance, exact_solve):
    SLOTS[f"{f.__name__}-t"] = (lambda g, x, f=f: f(g, x), ())
    SLOTS[f"{f.__name__}-threshold"] = (lambda g, x, f=f: f(g, [1, 1, x]), ("n",))

CASES = [
    pytest.param(graph, slot, odd, id=f"{graph}-{slot}-{odd}")
    for graph in GRAPHS
    for slot, (_, valid) in SLOTS.items()
    for odd in ODD
    if odd not in valid
]


@pytest.mark.parametrize("graph, slot, odd", CASES)
def test_odd_value_is_rejected_at_the_boundary(graph, slot, odd):
    call, _ = SLOTS[slot]
    # Only a path is read from the file system; "a" names no file.
    expected = (ValueError, OSError) if slot == "load_thresholds-source" else ValueError
    with pytest.raises(expected):
        call(GRAPHS[graph](), ODD[odd])


@pytest.mark.parametrize("rounds", [None, [0], [[0], [-1]], [["a"]], [[2.5]]],
                         ids=["None", "[0]", "negative", "str", "float"])
def test_format_trace_without_a_graph_rejects_a_malformed_trace(rounds):
    with pytest.raises(ValueError):
        format_trace(_trace(rounds))


@pytest.mark.parametrize("graph", GRAPHS)
def test_original_ids_name_the_first_bad_id_in_input_order(graph):
    g = GRAPHS[graph]()
    with pytest.raises(ValueError, match=r"^input vertex 3 out of range for n=3$"):
        g.original_ids([0, 3, "a", -1])
    with pytest.raises(ValueError, match=r"^input vertex is not an int: 'a'$"):
        g.original_ids(["a", 3])
    with pytest.raises(ValueError, match=r"^inputs must be an iterable of vertex ids, got 5$"):
        g.original_ids(5)
    assert g.original_ids([2, 0]) == [g.original_id(2), g.original_id(0)]
