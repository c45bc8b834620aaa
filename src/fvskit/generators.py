"""Seeded instance generators used by the CLI and the test corpora."""

from __future__ import annotations

import random
from itertools import combinations

from .graph import Graph, VertexSet


def gen_random(n: int, m: int, seed: int, simple: bool = True) -> Graph:
    """Random graph on n vertices and m edges; no self-loops.

    Simple mode samples m distinct vertex pairs; multigraph mode draws
    pairs independently, so parallel edges can occur.
    """
    if n < 0 or m < 0:
        raise ValueError(f"n={n} and m={m} must be nonnegative")
    rng = random.Random(f"random:{n}:{m}:{seed}:{simple}")
    g = Graph()
    verts = g.add_vertices(n)
    if simple:
        total = n * (n - 1) // 2
        if m > total:
            raise ValueError(f"simple mode allows at most {total} edges")
        pairs = list(combinations(verts, 2))
        for u, v in sorted(rng.sample(pairs, m)):
            g.add_edge(u, v)
    else:
        if n < 2 and m > 0:
            raise ValueError("need at least two vertices for an edge")
        for _ in range(m):
            u, v = rng.sample(verts, 2)
            g.add_edge(min(u, v), max(u, v))
    return g


def gen_planted(n: int, fvs_size: int, seed: int) -> tuple[Graph, VertexSet]:
    """Random forest plus `fvs_size` extra vertices, each wired into the
    forest with at least two edges.

    Removing the extras leaves the forest, so the returned witness is an
    upper bound on the minimum feedback vertex set.
    """
    if not 0 <= fvs_size <= n:
        raise ValueError("fvs_size out of range")
    forest_n = n - fvs_size
    if fvs_size > 0 and forest_n < 2:
        raise ValueError("planted mode needs at least two forest vertices")
    rng = random.Random(f"planted:{n}:{fvs_size}:{seed}")
    g = Graph()
    verts = g.add_vertices(n)
    forest = verts[:forest_n]
    for i in range(1, forest_n):
        if rng.random() < 0.97:
            g.add_edge(forest[rng.randrange(i)], forest[i])
    witness = set(verts[forest_n:])
    for v in sorted(witness):
        want = 2 + (rng.random() < 0.70) + (rng.random() < 0.45)
        for u in sorted(rng.sample(forest, min(want, forest_n))):
            g.add_edge(u, v)
    return g, witness
