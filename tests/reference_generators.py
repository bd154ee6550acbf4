"""Nested-loop copies of the edge generators, as first written.

``gen_er`` and ``gen_random_bipartite`` in the package draw from shared pair
tables; these copies loop over the candidate pairs directly and build the
bipartite candidates by sorting. Both must consume the same ``random()``
draws in the same order and keep the same pairs, so the tests compare the
package's generators with these over many seeds.
"""
from __future__ import annotations

import random

from graphbench import Graph
from graphbench.graphs import _shuffled, _uniform_int, _uniform_p


def reference_gen_er(cfg, seed: int) -> Graph:
    rng = random.Random(seed)
    n = _uniform_int(rng, cfg.bucket.n_min, cfg.bucket.n_max)
    p = _uniform_p(rng, cfg.p_range)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    return Graph(n=n, edges=tuple(edges))


def reference_gen_random_bipartite(cfg, seed: int) -> Graph:
    rng = random.Random(seed)
    n = _uniform_int(rng, cfg.bucket.n_min, cfg.bucket.n_max)
    if n < 2:
        raise ValueError("bipartite construction needs at least 2 nodes")
    p = _uniform_p(rng, cfg.p_range)
    left_size = _uniform_int(rng, 1, n - 1)
    labels = _shuffled(rng, range(n))
    left = set(labels[:left_size])
    candidates = sorted(
        (min(u, v), max(u, v)) for u in left for v in range(n) if v not in left
    )
    edges = [pair for pair in candidates if rng.random() < p]
    return Graph(n=n, edges=tuple(edges))
