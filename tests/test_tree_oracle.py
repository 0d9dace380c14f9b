"""An independent optimum for trees and forests, checked against both solvers.

On a forest a seed set S is a target set exactly when the edges can be
oriented so that every vertex outside S has in-degree at least its
threshold: every orientation of a forest is acyclic, so it is an activation
order.  That gives a bottom-up dynamic program that shares no code with
``exact_solve`` or ``tss_solve``, so it can check the paper's tree
optimality at sizes the exhaustive oracle cannot reach.
"""

from __future__ import annotations

import random

from targetset import (
    Graph,
    constant_capped,
    derive_seed,
    exact_solve,
    random_in_degree,
    random_tree,
    tss_solve,
)

MASTER = 20261018
POLICIES = ("const", "random", "degree", "wild")


def forest_optimum(g: Graph, t) -> int:
    """Minimum target set size of a forest, by an iterative DP.

    Each tree is rooted at its smallest id.  A(v) is the cheapest cost of v's
    subtree when v's parent edge points into v, B(v) when it points out of v;
    both equal ``min(base + 1, base + the q smallest B(c) - A(c))`` over v's
    children c, with ``base = sum of A(c)`` and q = t(v) - 1 for A, t(v) for
    B.  The first term seeds v.  q <= 0 costs ``base``; q above the number of
    children forces the seed.  A root has no parent edge and costs B.
    """
    n = g.n
    adj = g.adjacency
    parent = [-1] * n
    seen = [False] * n
    order = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    parent[u] = v
                    stack.append(u)
    base = [0] * n
    gaps: list[list[int]] = [[] for _ in range(n)]
    total = 0
    for v in reversed(order):  # every child comes before its parent
        gaps[v].sort()
        a, b = _cost(base[v], gaps[v], t[v] - 1), _cost(base[v], gaps[v], t[v])
        if parent[v] < 0:
            total += b
        else:
            base[parent[v]] += a
            gaps[parent[v]].append(b - a)
    return total


def _cost(base: int, gaps: list[int], q: int) -> int:
    if q <= 0:
        return base
    if q > len(gaps):
        return base + 1
    return base + min(1, sum(gaps[:q]))


def random_forest(n: int, seed: int, forest: bool) -> Graph:
    """A random tree on n vertices, or a forest of up to four random trees
    whose ids are shuffled together."""
    rng = random.Random(seed)
    parts = rng.randint(1, min(4, n)) if forest else 1
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    ids = list(range(n))
    rng.shuffle(ids)
    edges = []
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        tree = random_tree(hi - lo, seed=derive_seed(seed, "tree", lo))
        edges.extend((ids[lo + u], ids[lo + v]) for u, v in tree.edges())
    return Graph(n, edges)


def thresholds(g: Graph, policy: str, seed: int) -> list[int]:
    if policy == "const":
        return constant_capped(g, random.Random(seed).randint(1, 4))
    if policy == "random":
        return random_in_degree(g, seed=seed)
    if policy == "degree":
        return g.degrees
    rng = random.Random(seed)  # anything in [0, d + 1]: zeros and unreachable vertices
    return [rng.randint(0, d + 1) for d in g.degrees]


def test_forest_dp_matches_exact_solver():
    for i in range(1200):
        seed = derive_seed(MASTER, "small", i)
        g = random_forest(random.Random(seed).randint(1, 14), seed, forest=i % 8 >= 4)
        t = thresholds(g, POLICIES[i % 4], derive_seed(seed, "t"))
        assert forest_optimum(g, t) == exact_solve(g, t).optimum_size, (seed, t)


def test_tss_is_optimal_on_large_trees_and_forests():
    cases = [(n, policy, rep) for n in (1_000, 10_000) for policy in POLICIES for rep in (0, 1)]
    cases.append((100_000, "random", 0))
    for n, policy, rep in cases:
        seed = derive_seed(MASTER, "large", n, policy, rep)
        g = random_forest(n, seed, forest=rep == 1)
        t = thresholds(g, policy, derive_seed(seed, "t"))
        assert tss_solve(g, t).size == forest_optimum(g, t), (n, policy, seed)
