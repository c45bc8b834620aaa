"""Kernelization and iterative compression for the full FVS problem.

A solution of k+1 vertices is compressed to k by guessing its overlap with
a smaller one and branching on the rest.  Both solvers kernelize and take
a greedy solution F of the kernel: a decision grows the kernel from the
forest V - F by F's vertices, and the minimum compresses F downward.
"""

from __future__ import annotations

import heapq
from itertools import combinations

from .branching import SearchStats, feedback
from .graph import Graph, VertexSet, bypass_degree2, is_forest, is_fvs
from .reductions import DisjointInstance


def _reduce(h: Graph, forced: VertexSet, heap: list[int]) -> None:
    """Run the kernel rules in place to a fixpoint from a vertex-id heap."""
    while heap:
        v = heapq.heappop(heap)
        if not h.has_vertex(v):
            continue
        touched = list(h.neighbors(v))
        if v in touched:
            forced.add(v)
            h.remove_vertex(v)
        elif h.degree(v) <= 1:
            h.remove_vertex(v)
        elif h.degree(v) == 2:
            bypass_degree2(h, v)
        else:
            by_other: dict[int, list[int]] = {}
            for eid, o in h.incident(v):
                by_other.setdefault(o, []).append(eid)
            extra = [eid for eids in by_other.values() for eid in eids[2:]]
            if not extra:
                continue
            for eid in extra:
                h.remove_edge(eid)
            touched.append(v)
        for o in touched:
            heapq.heappush(heap, o)


def kernelize(g: Graph) -> tuple[Graph, VertexSet]:
    """Reduce a copy of g, smallest vertex id first, to the fixpoint of the
    safe rules: force a vertex with a self-loop, delete one of degree <= 1,
    bypass one of degree 2, cap edge multiplicity at 2.  Returns (kernel,
    forced): a minimum FVS of g is `forced` plus one of the kernel."""
    h, forced = g.copy(), set()
    _reduce(h, forced, sorted(h.vertices))
    return h, forced


def _greedy(kernel: Graph) -> VertexSet:
    """A feedback vertex set of the kernel: take a vertex of largest degree
    (smallest id on ties), delete it, re-kernelize, and repeat."""
    h, picked = kernel.copy(), set()
    while h.vertex_count:
        v = min(h.vertices, key=lambda x: (-h.degree(x), x))
        touched = sorted(set(h.neighbors(v)))  # a kernel has no loops
        h.remove_vertex(v)
        picked.add(v)
        _reduce(h, picked, touched)
    return picked


def fvs_reduction(g: Graph, f_big: VertexSet, k: int,
                  stats: SearchStats | None = None, *,
                  audit: bool = False, seed: int = 0) -> VertexSet | None:
    """Shrink a feedback vertex set of size k+1 to one of size <= k.

    For j = 0..k and each size-(k-j) subset kept from f_big, the discarded
    part of f_big is protected (it must stay out of the solution, so it must
    induce a forest) and the branching solver searches the rest of the graph
    with budget j.  Returns None when every split fails."""
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
    h, forced = kernelize(g)
    k -= len(forced)
    if k < 0:
        return None
    greedy = _greedy(h)
    if len(greedy) <= k:
        return forced | greedy
    # V - F is a forest; add F's vertices back one at a time.
    prefix_set, fvs = set(h.vertices) - greedy, set()
    for v in sorted(greedy):
        prefix_set.add(v)
        prefix = h.induced_subgraph(prefix_set)
        if not is_fvs(prefix, fvs):
            fvs = fvs | {v}
        if len(fvs) == k + 1:
            fvs = fvs_reduction(prefix, fvs, k, stats, audit=audit, seed=seed)
            if fvs is None:
                return None
    return forced | fvs


def solve_fvs_min(g: Graph, stats: SearchStats | None = None, *,
                  audit: bool = False, seed: int = 0) -> VertexSet:
    """Minimum feedback vertex set: kernelize, take a greedy solution of
    the kernel, and compress it one vertex smaller until that fails, so
    only the budget opt - 1 is ever proved infeasible."""
    h, forced = kernelize(g)
    best = _greedy(h)
    while best:
        smaller = fvs_reduction(h, best, len(best) - 1, stats, audit=audit,
                                seed=seed)
        if smaller is None:
            break
        best = smaller
    return forced | best
