"""Shared instance builders for the test suite."""

from __future__ import annotations

import random

from targetset import (
    Graph,
    clique_graph,
    cycle_graph,
    derive_seed,
    gnp,
    random_tree,
    star_graph,
)


def activation_closure(g: Graph, t, seeds) -> set[int]:
    """Final active set by exhaustive re-scanning, with no round bookkeeping.

    Deliberately naive (recounts active neighbors from scratch on every
    sweep): it is the reference the worklist engine of ``run_activation``
    and ``is_target_set`` is checked against, and shows that the fixpoint
    does not depend on processing order.
    """
    active = set(seeds)
    changed = True
    while changed:
        changed = False
        for u in range(g.n):
            if u not in active:
                hits = sum(1 for w in g.neighbors(u) if w in active)
                if hits >= t[u]:
                    active.add(u)
                    changed = True
    return active


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def random_instance(seed: int, n_max: int = 40) -> tuple[Graph, list[int]]:
    """A small random (graph, thresholds) pair covering several families and
    threshold styles, reproducible from the seed."""
    rng = random.Random(seed)
    family = rng.choice(("gnp", "tree", "cycle", "clique", "star"))
    n = rng.randint(3, n_max)
    if family == "gnp":
        g = gnp(n, rng.choice((0.1, 0.2, 0.3, 0.5, 0.7)), seed=derive_seed(seed, "g"))
    elif family == "tree":
        g = random_tree(n, seed=derive_seed(seed, "g"))
    elif family == "cycle":
        g = cycle_graph(n)
    elif family == "clique":
        g = clique_graph(min(n, 12))
    else:
        g = star_graph(n)
    style = rng.choice(("random", "degree", "const", "wild"))
    if style == "random":
        t = [rng.randint(1, d) if d else 0 for d in g.degrees]
    elif style == "degree":
        t = g.degrees
    elif style == "const":
        c = rng.randint(1, 10)
        t = [min(c, d) for d in g.degrees]
    else:
        # anything nonnegative, including 0 and values above the degree
        t = [rng.randint(0, d + 2) for d in g.degrees]
    return g, t


def connected_gnp(seed: int, n_lo: int = 10, n_hi: int = 60) -> Graph:
    """A connected G(n, p) instance, by rejection over derived seeds."""
    from targetset import is_connected

    rng = random.Random(seed)
    n = rng.randint(n_lo, n_hi)
    p = min(0.95, max(0.12, 3.0 / n + rng.random() * 0.4))
    for attempt in range(1000):
        g = gnp(n, p, seed=derive_seed(seed, "gnp", attempt))
        if is_connected(g):
            return g
    raise AssertionError("could not draw a connected graph")
