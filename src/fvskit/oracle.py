"""Brute-force ground truth for every solver surface.

These enumerators are deliberately naive and independent of the production
algorithms; they only lean on the graph-core predicates is_forest/is_fvs.
Each refuses inputs beyond its budget rather than running unbounded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

from .graph import (DisjointSet, Graph, VertexSet, components,
                    connected_without, is_fvs)
from .reductions import DisjointInstance


class OracleBudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class OracleBudget:
    n_max: int = 14
    p_max: int = 10
    max_seconds: float = 120.0


DEFAULT_BUDGET = OracleBudget()


class _Deadline:
    def __init__(self, seconds: float) -> None:
        self.t_end = time.monotonic() + seconds

    def check(self) -> None:
        if time.monotonic() > self.t_end:
            raise OracleBudgetExceeded("oracle wall-clock guard tripped")


def brute_fvs(g: Graph, budget: OracleBudget | None = None) -> VertexSet:
    """Minimum feedback vertex set by subset enumeration, smallest first."""
    budget = budget or DEFAULT_BUDGET
    verts = sorted(g.vertices)
    if len(verts) > budget.n_max:
        raise OracleBudgetExceeded(f"{len(verts)} vertices > n_max={budget.n_max}")
    deadline = _Deadline(budget.max_seconds)
    for size in range(len(verts) + 1):
        for combo in combinations(verts, size):
            f = set(combo)
            if is_fvs(g, f):
                return f
        deadline.check()
    raise AssertionError("unreachable: the full vertex set is always an FVS")


def brute_disjoint(inst: DisjointInstance,
                   budget: OracleBudget | None = None) -> VertexSet | None:
    """Minimum v1-only feedback vertex set, or None if it exceeds k."""
    budget = budget or DEFAULT_BUDGET
    v1 = sorted(inst.v1)
    if len(v1) > budget.n_max:
        raise OracleBudgetExceeded(f"{len(v1)} v1 vertices > n_max={budget.n_max}")
    deadline = _Deadline(budget.max_seconds)
    for size in range(len(v1) + 1):
        for combo in combinations(v1, size):
            f = set(combo)
            if is_fvs(inst.g, f):
                return f if size <= inst.k else None
        deadline.check()
    return None


def brute_parity(g: Graph, pairs: list[tuple[int, int]],
                 budget: OracleBudget | None = None) -> list[tuple[int, int]]:
    """Largest subset of `pairs` that uses no edge twice and whose joint
    removal keeps the connected graph g connected.

    This is the matroid-parity question the degree-3 solver asks of each
    component, with pairs of edges meeting at a v1 vertex (see
    `regular3.parity_pairs`).  Exhaustive over pair subsets, largest
    cardinality first.
    """
    budget = budget or DEFAULT_BUDGET
    pairs = list(pairs)
    if len(pairs) > budget.p_max:
        raise OracleBudgetExceeded(f"{len(pairs)} pairs > p_max={budget.p_max}")
    if not connected_without(g, set()):
        raise ValueError("g is disconnected")
    deadline = _Deadline(budget.max_seconds)
    for size in range(len(pairs), -1, -1):
        for combo in combinations(pairs, size):
            removed = {e for pair in combo for e in pair}
            if len(removed) == 2 * size and connected_without(g, removed):
                return list(combo)
        deadline.check()
    raise AssertionError("unreachable: the empty pair set is always feasible")


def _max_matching_size(nodes: list[int], adj: dict[int, set[int]]) -> int:
    """Exact maximum matching on a tiny graph, by memoized recursion."""
    order = {v: i for i, v in enumerate(nodes)}
    memo: dict[frozenset[int], int] = {}

    def rec(free: frozenset[int]) -> int:
        if len(free) < 2:
            return 0
        if free in memo:
            return memo[free]
        v = min(free, key=order.__getitem__)
        best = rec(free - {v})
        for u in adj[v]:
            if u in free:
                best = max(best, 1 + rec(free - {v, u}))
        memo[free] = best
        return best

    return rec(frozenset(nodes))


def _component_mu(g: Graph, v1: VertexSet, v2: VertexSet,
                  deadline: _Deadline) -> int:
    """Largest 2-group count over spanning trees containing g[v2], for one
    connected component."""
    n = g.vertex_count
    base = list(g.edges_within(v2))
    free = [eid for eid in sorted(g.edge_ids) if eid not in set(base)]
    need = (n - 1) - len(base)
    if need < 0:
        raise ValueError("g[v2] is not a forest")
    best = 0
    for combo in combinations(free, need):
        deadline.check()
        dsu = DisjointSet(g.vertices)
        ok = True
        for eid in base + list(combo):
            u, v = g.endpoints(eid)
            if u == v or not dsu.union(u, v):
                ok = False
                break
        if not ok:
            continue
        tree = set(base) | set(combo)
        non_tree = [eid for eid in g.edge_ids if eid not in tree]
        # Conflict graph: non-tree edges, adjacent when they share a v1 end.
        ends: dict[int, set[int]] = {
            eid: {x for x in g.endpoints(eid) if x in v1} for eid in non_tree
        }
        adj: dict[int, set[int]] = {eid: set() for eid in non_tree}
        for a, b in combinations(non_tree, 2):
            if ends[a] & ends[b]:
                adj[a].add(b)
                adj[b].add(a)
        best = max(best, _max_matching_size(non_tree, adj))
    return best


def brute_mu(inst: DisjointInstance,
             budget: OracleBudget | None = None) -> int:
    """V1-adjacency matching number by enumerating v2-containing spanning
    trees per connected component and summing the per-component maxima."""
    budget = budget or DEFAULT_BUDGET
    g = inst.g
    if g.vertex_count > budget.n_max:
        raise OracleBudgetExceeded(
            f"{g.vertex_count} vertices > n_max={budget.n_max}")
    deadline = _Deadline(budget.max_seconds)
    comp = components(g, set(g.vertices))
    total = 0
    for group in comp.groups():
        sub = g.induced_subgraph(group)
        total += _component_mu(sub, inst.v1 & group, inst.v2 & group, deadline)
    return total
