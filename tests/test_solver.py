import gc
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from targetset import (
    Case,
    Graph,
    clique_graph,
    gnp,
    greedy_tss,
    is_target_set,
    random_in_degree,
    star_graph,
    tss_solve,
)
from targetset.solver import TABLE_DEGREE
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


def _case_count_instances():
    # isolated vertices, t = 0 cascades and thresholds above the degree
    yield random_instance(4242)
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(5, 40)
        p = rng.choice((0.05, 0.1, 0.3))
        edges = [(u, v) for u in range(n) for v in range(u) if rng.random() < p]
        g = Graph(n + rng.randint(1, 3), edges)  # the last vertices are isolated
        yield g, [rng.choice((0, 1, 2, d + 1, rng.randint(0, d + 2))) for d in g.degrees]


def test_case_counts_account_for_every_vertex():
    for solver in (tss_solve, greedy_tss):
        totals = Counter()
        for g, t in _case_count_instances():
            report = solver(g, t)
            assert sorted(v for v, _ in report.elimination_order) == list(range(g.n))
            tags = Counter(case for _, case in report.elimination_order)
            assert report.case_counts == (tags[Case.ACTIVATED], tags[Case.SEEDED],
                                          tags[Case.DISCARDED])
            assert tags[Case.SEEDED] == report.size
            totals += tags
        # greedy seeds whatever it ranks, so only tss discards
        assert totals[Case.ACTIVATED] > 0 and totals[Case.SEEDED] > 0
        assert (totals[Case.DISCARDED] > 0) == (solver is tss_solve)


def test_isolated_vertex_with_positive_threshold_is_seeded():
    g = Graph(3, [(0, 1)])
    report = tss_solve(g, [1, 1, 2])
    assert 2 in report.target_set


def test_zero_thresholds_need_no_seeds(monkeypatch):
    # Every removal is ACTIVATED, so no ranked pop builds the ranked heap.
    import targetset.solver as solver

    builds = []
    monkeypatch.setattr(solver, "heapify", builds.append)
    g = path_graph(4)
    report = tss_solve(g, [0, 0, 0, 0])
    assert report.target_set == ()
    assert report.case_counts == (4, 0, 0)
    assert builds == []


def test_solver_is_deterministic():
    g, t = random_instance(777)
    assert tss_solve(g, t) == tss_solve(g, t)


@pytest.mark.parametrize("solver", [tss_solve, greedy_tss], ids=lambda f: f.__name__)
def test_elimination_order_reads_as_a_list_of_pairs(solver):
    g, t = random_instance(777)
    report = solver(g, t)
    order = report.elimination_order
    pairs = list(order)
    assert len(pairs) == len(order) == g.n
    assert all(type(v) is int and type(case) is Case for v, case in pairs)
    assert order == pairs and pairs == order and not order != pairs
    assert order != tuple(pairs) and tuple(pairs) != order
    v, case = pairs[-1]
    assert order != pairs[:-1] and order != pairs[:-1] + [(v + 1, case)]
    assert order[0] == pairs[0] and order[-1] == pairs[-1]
    assert order[2:7] == pairs[2:7] and order[::-3] == pairs[::-3]
    assert type(order[1:3]) is list
    assert list(order) == pairs  # iterating again reads the same pairs
    with pytest.raises(IndexError):
        order[g.n]
    assert repr(order) == repr(pairs)
    assert order == solver(g, t).elimination_order and report == solver(g, t)
    other = tss_solve if solver is greedy_tss else greedy_tss
    assert order != other(g, t).elimination_order
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(report, protocol))
        assert copy == report and copy.elimination_order == pairs


# A solve allocates no object the cyclic GC tracks per removal, so it sets off
# no collection; a (vertex, case) tuple per removal would set off one about
# every 700 removals.  The count follows the allocations alone, not the clock.
@pytest.mark.parametrize("solver", [tss_solve, greedy_tss], ids=lambda f: f.__name__)
def test_solve_sets_off_no_gc_collection(solver):
    n = 20_000
    g = gnp(n, 10 / n, seed=5)
    t = random_in_degree(g, seed=6)
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    enabled = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(count)
    try:
        solver(g, t)
    finally:
        gc.callbacks.remove(count)
        if not enabled:
            gc.disable()
    assert collections == []


@pytest.mark.parametrize("solver", [tss_solve, greedy_tss], ids=lambda f: f.__name__)
def test_threshold_validation(solver):
    g = path_graph(3)
    with pytest.raises(ValueError, match="expected 3 thresholds"):
        solver(g, [1, 1])
    with pytest.raises(ValueError, match="negative"):
        solver(g, [1, -1, 1])


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


def test_key_keeps_a_near_tie_in_ratio_order():
    # Hubs 25 (k/d = 19/25) and 26 (10/18) over a 25-clique of threshold 1:
    # the surrogate of 10/(18*19) tops that of 19/(25*26) by 8, less than
    # their k gap of 9, so a k digit spanning too few values (1, say) would
    # rank hub 25 first.
    edges = [(u, v) for u in range(25) for v in range(u + 1, 25)]
    edges += [(25, v) for v in range(25)] + [(26, v) for v in range(18)]
    g, t = Graph(27, edges), [1] * 25 + [19, 10]
    order = tss_solve(g, t).elimination_order
    assert order[:2] == [(26, Case.DISCARDED), (25, Case.DISCARDED)]
    assert order == paper_elimination_order(g, t)


def hub_instance(seed):
    """A G(n, p) graph of 150-250 vertices with mean degree 60-90, plus three
    hubs of degree 65-150, and one vertex that needs 10**12.  The other
    thresholds lie in [0, d + 2]: most in [d/3, d], so vertices are ranked out
    while their residual degrees are still near 64, and one in twenty
    anywhere in the range, so k = 0 and k > d occur from the start."""
    rng = random.Random(seed)
    n = rng.randint(150, 250)
    p = rng.uniform(60, 90) / n
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    for hub in rng.sample(range(n), 3):
        for u in rng.sample([u for u in range(n) if u != hub], rng.randint(65, min(150, n - 1))):
            edges.add((min(hub, u), max(hub, u)))
    g = Graph(n, sorted(edges))
    t = [
        rng.randint(0, d + 2) if rng.random() < 0.05 else rng.randint(d // 3, d)
        for d in g.degrees
    ]
    huge = rng.randrange(n)
    t[huge] = 10**12
    return g, t, huge


@pytest.mark.parametrize("seed", range(8))
def test_key_table_boundary_matches_paper_pseudocode(seed):
    # Residual degrees start on both sides of the key table's last degree and
    # fall through it as neighbors leave, so ranked keys from the table meet
    # keys from the key function; k > d keys (the seed tier) always come from
    # the key function.
    g, t, huge = hub_instance(seed)
    assert max(g.degrees) > TABLE_DEGREE
    report = tss_solve(g, t)
    assert report.elimination_order == paper_elimination_order(g, t)
    assert huge in report.target_set


@pytest.mark.parametrize("seed", range(8))
def test_ranked_heap_rebuild_keeps_the_order(monkeypatch, seed):
    # Without the floor a rebuild follows every n >> 6 dead entries popped,
    # so these small instances rebuild the ranked heap from the current
    # keys several times; the order must be the lazy heap's.
    import targetset.solver as solver

    heapify = solver.heapify
    rebuilds = []

    def watched(heap):
        rebuilds.append(len(heap))
        heapify(heap)

    monkeypatch.setattr(solver, "DRAIN_FLOOR", 0)
    monkeypatch.setattr(solver, "heapify", watched)
    g, t, _ = hub_instance(seed)
    assert tss_solve(g, t).elimination_order == paper_elimination_order(g, t)
    assert len(rebuilds) >= 2  # the first ranked pop's build and a drain's


def _exact_rank(k, d):
    # The paper's order on (k, delta): the seed tier (k > delta) above every
    # ratio, then the ratio k / (delta (delta + 1)), then the larger k.
    if k > d:
        return (1, Fraction(0), k)
    return (0, Fraction(k, d * (d + 1)), k)


def test_rise_rule_matches_exact_order():
    # An ACTIVATED or SEEDED neighbor takes (k + 1, d + 1) to (k, d); the
    # solver pushes a new entry exactly when k <= d < 2k, so that test must
    # say when the new state outranks the old one.
    for ku in range(1, 71):
        for du in range(0, 141):
            rose = _exact_rank(ku, du) > _exact_rank(ku + 1, du + 1)
            assert (ku <= du < 2 * ku) == rose, (ku, du)


def test_falling_key_gets_no_push(monkeypatch):
    # The center (d = 4, t = 2) loses its t = 0 leaf first: (2, 4) -> (1, 3)
    # lowers its ratio from 1/10 to 1/12, so that update pushes nothing, and
    # the next heap operations are the build of the ranked heap and a ranked
    # pop.  Each later discard raises its key and pushes it once.
    import targetset.solver as solver

    push, pop, heapify = solver.heappush, solver.heappop, solver.heapify
    events = []

    def watched_heapify(heap):
        heapify(heap)
        events.append(("build", list(heap)))

    def watched_push(heap, item):
        push(heap, item)
        events.append(("push", item))

    def watched_pop(heap):
        item = pop(heap)
        events.append(("pop", item))
        return item

    monkeypatch.setattr(solver, "heappush", watched_push)
    monkeypatch.setattr(solver, "heappop", watched_pop)
    monkeypatch.setattr(solver, "heapify", watched_heapify)
    g = star_graph(5)
    t = [2, 0, 1, 1, 1]
    report = tss_solve(g, t)
    assert report.elimination_order == paper_elimination_order(g, t)
    assert report.elimination_order == [
        (1, Case.ACTIVATED),
        (4, Case.DISCARDED),
        (3, Case.DISCARDED),
        (2, Case.DISCARDED),
        (0, Case.SEEDED),
    ]
    # The ready pop of the leaf with t = 0 comes first, then one build of the
    # ranked heap that holds every other vertex, then a ranked pop.
    assert events[0] == ("pop", 1)  # the ready queue
    assert events[1][0] == "build"
    assert sorted(-item % g.n for item in events[1][1]) == [0, 2, 3, 4]
    assert events[2][0] == "pop" and events[2][1] < 0  # ranked, no push between
    assert [kind for kind, _ in events].count("build") == 1
    ranked_pushes = [item for kind, item in events[2:] if kind == "push" and item < 0]
    assert [-item % g.n for item in ranked_pushes] == [0, 0, 0]


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
