"""Iterative-compression outer loop for the full feedback vertex set
problem.

The graph is grown one vertex at a time while a feedback vertex set of the
current prefix is maintained; whenever it reaches k+1 vertices it is
compressed back to k by guessing its intersection with a smaller solution
and handing the rest to the disjoint branching solver.
"""

from __future__ import annotations

from itertools import combinations

from .branching import SearchStats, feedback
from .graph import Graph, VertexSet, is_forest, is_fvs
from .reductions import DisjointInstance


def fvs_reduction(g: Graph, f_big: VertexSet, k: int,
                  stats: SearchStats | None = None, *,
                  audit: bool = False, seed: int = 0) -> VertexSet | None:
    """Shrink a feedback vertex set of size k+1 to one of size <= k.

    For j = 0..k and each size-(k-j) subset kept from f_big, the discarded
    part of f_big is protected (it must stay out of the solution, so it must
    induce a forest) and the branching solver searches the rest of the graph
    with budget j.  Returns None when every split fails.
    """
    if len(f_big) != k + 1:
        raise ValueError(f"expected |f_big| = k+1 = {k + 1}, got {len(f_big)}")
    if not is_fvs(g, f_big):
        raise ValueError("f_big is not a feedback vertex set")
    big = sorted(f_big)
    v1_base = set(g.vertices) - f_big
    for j in range(k + 1):
        for keep in combinations(big, k - j):
            keep_set = set(keep)
            v2 = f_big - keep_set
            if not is_forest(g, v2):
                continue
            h = g.copy()
            for v in keep:
                h.remove_vertex(v)
            inst = DisjointInstance(h, v1_base, v2, j)
            rest = feedback(inst, stats, audit=audit, seed=seed)
            if rest is not None:
                return keep_set | rest
    return None


def solve_fvs_decision(g: Graph, k: int, stats: SearchStats | None = None, *,
                       audit: bool = False, seed: int = 0) -> VertexSet | None:
    """Feedback vertex set of size <= k, or None if none exists."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    order = sorted(g.vertices)
    size = min(k + 1, len(order))
    fvs = set(order[:size])
    prefix = g.induced_subgraph(order[:size])
    if len(fvs) == k + 1:
        fvs = fvs_reduction(prefix, fvs, k, stats, audit=audit, seed=seed)
        if fvs is None:
            return None
    for v in order[size:]:
        size += 1
        prefix = g.induced_subgraph(order[:size])
        if not is_fvs(prefix, fvs):
            fvs = fvs | {v}
        if len(fvs) == k + 1:
            fvs = fvs_reduction(prefix, fvs, k, stats, audit=audit,
                                seed=seed)
            if fvs is None:
                return None
    return fvs


def solve_fvs_min(g: Graph, stats: SearchStats | None = None, *,
                  audit: bool = False, seed: int = 0) -> VertexSet:
    """Minimum feedback vertex set, by raising the budget from zero."""
    k = 0
    while True:
        result = solve_fvs_decision(g, k, stats, audit=audit, seed=seed)
        if result is not None:
            return result
        k += 1
