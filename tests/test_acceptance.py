"""Acceptance suite: every release criterion, one test each, one printed
pass/fail line each.  Run with ``pytest -s tests/test_acceptance.py`` to see
the lines as they complete."""

import gc
import random
import time
from fractions import Fraction

from targetset import (
    bound_new,
    bound_old,
    check_bound_dominance,
    clique_graph,
    clique_optimum,
    cycle_graph,
    derive_seed,
    exact_solve,
    gnp,
    is_target_set,
    random_in_degree,
    random_tree,
    run_activation,
    star_graph,
    tss_solve,
)
from conftest import activation_closure, connected_gnp

MASTER = 20260810


def _report(number: int, name: str, detail: str):
    print(f"criterion {number} ({name}): PASS - {detail}")


def _mixed_instances(count: int):
    """G(n,p) across the p grid plus trees, cycles, cliques and stars, under
    rotating threshold policies (constant-capped, random-in-degree, degree)."""
    p_grid = (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9)
    for i in range(count):
        seed = derive_seed(MASTER, "mixed", i)
        rng = random.Random(seed)
        family = ("gnp", "gnp", "gnp", "tree", "cycle", "clique", "star")[i % 7]
        if family == "gnp":
            n = rng.randint(5, 200)
            g = gnp(n, rng.choice(p_grid), seed=derive_seed(seed, "g"))
        elif family == "tree":
            g = random_tree(rng.randint(2, 200), seed=derive_seed(seed, "g"))
        elif family == "cycle":
            g = cycle_graph(rng.randint(3, 200))
        elif family == "clique":
            g = clique_graph(rng.randint(2, 40))
        else:
            g = star_graph(rng.randint(2, 200))
        policy = i % 3
        if policy == 0:
            c = rng.randint(1, 10)
            t = [min(c, d) for d in g.degrees]
        elif policy == 1:
            t = random_in_degree(g, seed=derive_seed(seed, "t"))
        else:
            t = g.degrees
        yield g, t


def test_criterion_01_solver_output_is_always_a_target_set():
    start = time.perf_counter()
    checked = 0
    for g, t in _mixed_instances(1000):
        report = tss_solve(g, t)
        assert is_target_set(g, t, report.target_set), f"invalid output on instance {checked}"
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 1000
    assert elapsed < 60.0, f"validity sweep took {elapsed:.1f}s (budget 60s)"
    _report(1, "validity", f"1000/1000 valid target sets in {elapsed:.1f}s")


def test_criterion_02_tree_optimality():
    start = time.perf_counter()
    mismatches = []
    for i in range(200):
        seed = derive_seed(MASTER, "tree", i)
        n = random.Random(seed).randint(2, 14)
        g = random_tree(n, seed=derive_seed(seed, "g"))
        t = random_in_degree(g, seed=derive_seed(seed, "t"))
        got = tss_solve(g, t).size
        want = exact_solve(g, t).optimum_size
        if got != want:
            mismatches.append((seed, got, want))
    elapsed = time.perf_counter() - start
    assert not mismatches, f"tree mismatches: {mismatches[:5]}"
    assert elapsed < 300.0
    _report(2, "tree optimality", f"200/200 exact matches in {elapsed:.1f}s")


def test_criterion_03_cycle_optimality():
    start = time.perf_counter()
    mismatches = []
    for i in range(200):
        seed = derive_seed(MASTER, "cycle", i)
        rng = random.Random(seed)
        n = rng.randint(3, 12)
        g = cycle_graph(n)
        # mixes over {0, 1, 2, d+1} with d = 2 exercise every elimination branch
        t = [rng.choice((0, 1, 2, 3)) for _ in range(n)]
        got = tss_solve(g, t).size
        want = exact_solve(g, t).optimum_size
        if got != want:
            mismatches.append((seed, t, got, want))
    elapsed = time.perf_counter() - start
    assert not mismatches, f"cycle mismatches: {mismatches[:5]}"
    assert elapsed < 300.0
    _report(3, "cycle optimality", f"200/200 exact matches in {elapsed:.1f}s")


def test_criterion_04_clique_optimality_and_closed_form():
    mismatches = []
    for i in range(200):
        seed = derive_seed(MASTER, "clique", i)
        rng = random.Random(seed)
        n = rng.randint(2, 12)
        g = clique_graph(n)
        t = sorted(rng.randint(1, n + 2) for _ in range(n))
        got = tss_solve(g, t).size
        closed = clique_optimum(t)
        want = exact_solve(g, t).optimum_size
        if not (got == closed == want):
            mismatches.append((seed, t, got, closed, want))
    assert not mismatches, f"clique mismatches: {mismatches[:5]}"
    _report(4, "clique optimality + closed form", "200/200 threefold matches")


def _bound_corpus():
    for i in range(500):
        seed = derive_seed(MASTER, "bounds", i)
        g = connected_gnp(seed, n_lo=10, n_hi=60)
        t = random_in_degree(g, seed=derive_seed(seed, "t"))
        yield g, t


def test_criterion_05_solver_size_within_the_sharper_bound():
    violations = 0
    for g, t in _bound_corpus():
        size = tss_solve(g, t).size
        bn = bound_new(g, t)
        if Fraction(size) > bn:
            violations += 1
    assert violations == 0
    _report(5, "size bound", "500/500 connected instances within the sharper bound")


def test_criterion_06_bound_dominance_and_star_ratio():
    violations = sum(1 for g, t in _bound_corpus() if bound_new(g, t) > bound_old(g, t))
    assert violations == 0
    ratios = []
    for n in (5, 9, 17):
        for center in (1, n // 2, n - 1):
            g = star_graph(n)
            t = [center] + [1] * (n - 1)
            bn, bo = bound_new(g, t), bound_old(g, t)
            assert bn <= bo
            assert bo / bn >= Fraction(n - 1, 2), f"star({n}) ratio {bo/bn} below {(n-1)/2}"
            ratios.append(float(bo / bn))
    _report(6, "bound dominance", f"500/500 dominated; star ratios {[f'{r:.2f}' for r in ratios]}")


def test_criterion_07_star_bound_value_and_solution_size():
    for n in (5, 50, 500):
        for center in (1, n // 2, n - 1):
            g = star_graph(n)
            t = [center] + [1] * (n - 1)
            assert bound_new(g, t) == 1, f"star({n}) t(c)={center}: bound != 1"
            assert tss_solve(g, t).size == 1, f"star({n}) t(c)={center}: size != 1"
    _report(7, "star bound value", "bound_new = 1 and solver size = 1 for n in {5, 50, 500}")


def test_criterion_08_degree_thresholds_give_vertex_covers():
    uncovered = 0
    for i in range(100):
        seed = derive_seed(MASTER, "cover", i)
        rng = random.Random(seed)
        n = rng.randint(5, 80)
        g = gnp(n, rng.choice((0.05, 0.1, 0.3, 0.6)), seed=derive_seed(seed, "g"))
        cover = set(tss_solve(g, g.degrees).target_set)
        for u, v in g.edges():
            if u not in cover and v not in cover:
                uncovered += 1
    assert uncovered == 0
    _report(8, "vertex-cover mode", "100/100 graphs fully covered")


def test_criterion_09_near_optimality_curve_at_desk_scale():
    lines = []
    for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        sizes, optima = [], []
        for rep in range(20):
            seed = derive_seed(MASTER, "curve", p, rep)
            g = gnp(30, p, seed=derive_seed(seed, "g"))
            t = random_in_degree(g, seed=derive_seed(seed, "t"))
            size = tss_solve(g, t).size
            optimum = exact_solve(g, t, max_vertices=30).optimum_size
            assert size >= optimum
            report = check_bound_dominance(g, t)
            if report.applicable:
                assert Fraction(size) <= report.bound_new
            sizes.append(size)
            optima.append(optimum)
        ratio = sum(sizes) / max(1, sum(optima))
        lines.append(f"p={p:.1f} mean_size={sum(sizes)/20:.2f} mean_opt={sum(optima)/20:.2f} ratio={ratio:.3f}")
    _report(9, "near-optimality curve", "; ".join(lines))


def _perf_instance(n: int, tag: str):
    g = gnp(n, 10.0 / n, seed=derive_seed(MASTER, "perf", tag))
    t = random_in_degree(g, seed=derive_seed(MASTER, "perf-t", tag))
    return g, t


def _timed(g, t) -> float:
    gc.disable()
    start = time.perf_counter()
    tss_solve(g, t)
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def test_criterion_10_near_linear_scaling_and_absolute_time():
    # Take per-size minima over interleaved rounds so scheduler or allocator
    # hiccups hit all sizes equally instead of skewing one growth factor.
    instances = [_perf_instance(n, str(n)) for n in (20000, 40000, 80000, 160000)]
    _timed(*instances[1])  # warm-up
    best = [float("inf")] * len(instances)
    for _ in range(5):
        for i, (g, t) in enumerate(instances):
            best[i] = min(best[i], _timed(g, t))
    factors = [b1 / b0 for b0, b1 in zip(best, best[1:])]
    assert all(f <= 2.6 for f in factors), f"growth factors {factors} exceed 2.6 per doubling"
    g_big, t_big_thresholds = _perf_instance(200000, "big")
    t_big = _timed(g_big, t_big_thresholds)
    assert t_big < 30.0, f"{g_big.m}-edge instance took {t_big:.1f}s"
    detail = ", ".join(
        f"m={g.m}: {b*1000:.0f}ms" for (g, _), b in zip(instances, best)
    ) + f"; factors {[f'{f:.2f}' for f in factors]}; m={g_big.m}: {t_big:.2f}s"
    _report(10, "near-linear scaling", detail)


def test_criterion_11_synchronous_engine_equals_naive_closure():
    for i in range(500):
        seed = derive_seed(MASTER, "closure", i)
        rng = random.Random(seed)
        n = rng.randint(2, 40)
        g = gnp(n, rng.choice((0.05, 0.15, 0.3, 0.6)), seed=derive_seed(seed, "g"))
        style = i % 3
        if style == 0:
            t = [rng.randint(0, d + 2) for d in g.degrees]
        elif style == 1:
            t = random_in_degree(g, seed=derive_seed(seed, "t"))
        else:
            t = g.degrees
        seeds = set(rng.sample(range(n), rng.randint(0, n)))
        assert run_activation(g, t, seeds).active == activation_closure(g, t, seeds)
    _report(11, "diffusion engine equivalence", "500/500 exact set matches")
