"""Disjoint-FVS instances and the one engine that applies the safe rules.

An instance partitions the vertices into two forest-inducing sides: the
solution may only use vertices from side one, side two is protected.  The
engine, `ReductionState`, drains three rules on side one to quiescence
(steps 4-6 of the branch-and-search): delete a vertex of degree <= 1, force
a vertex with two edges into one protected tree, bypass a vertex of degree
2.  The branching search uses it as its node state; the degree-3 leaf uses
it, plus the protected-side peel, to reduce its input before matroid
parity.

The engine keeps the protected side's tree structure in a union-find
(trees only ever merge), the set of nice vertices, and a worklist of v1
vertices whose rule class may have changed, so one search path costs
near-linear time instead of a rescan per step.
"""

from __future__ import annotations

import heapq

from .graph import (DisjointSet, Graph, VertexSet, bypass_degree2, components,
                    is_forest)

_REMOVE, _FORCE, _BYPASS = 4, 5, 6


class MeasureAuditError(AssertionError):
    """A transition violated its measure-decrement obligation."""


class DisjointInstance:
    """A graph, a bipartition (v1, v2) with both sides inducing forests,
    and a budget k >= 0 for a feedback vertex set drawn from v1 only.

    The constructor checks all of this, so a built instance is valid; the
    solvers take it as given.
    """

    __slots__ = ("g", "v1", "v2", "k")

    def __init__(self, g: Graph, v1: VertexSet, v2: VertexSet, k: int) -> None:
        self.g = g
        self.v1 = set(v1)
        self.v2 = set(v2)
        self.k = k
        self.check()

    def check(self) -> None:
        verts = set(self.g.vertices)
        if self.v1 & self.v2 or self.v1 | self.v2 != verts:
            raise ValueError("(v1, v2) is not a partition of the vertices")
        if not is_forest(self.g, self.v1):
            raise ValueError("g[v1] is not a forest")
        if not is_forest(self.g, self.v2):
            raise ValueError("g[v2] is not a forest")
        if self.k < 0:
            raise ValueError(f"budget k={self.k} is negative")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DisjointInstance(n={self.g.vertex_count}, "
                f"m={self.g.edge_count}, |v1|={len(self.v1)}, k={self.k})")


class ReductionState:
    """A mutable copy of an instance plus incremental bookkeeping.

    `picks` holds the vertices forced into the solution so far; `k` is the
    budget left after them, and -1 once the drain has overdrawn it (a
    rejected state).  `twice_m` is the branching potential
    2k + l - 2p (budget, protected-tree count, nice-vertex count).
    """

    __slots__ = ("g", "v1", "v2", "k", "dsu", "l", "nice", "root_adj",
                 "picks", "heap")

    @classmethod
    def from_instance(cls, inst: DisjointInstance) -> "ReductionState":
        s = cls.__new__(cls)
        s.g = inst.g.copy()
        s.v1 = set(inst.v1)
        s.v2 = set(inst.v2)
        s.k = inst.k
        s.dsu = DisjointSet(s.v2)
        s.l = len(s.v2)
        for eid in s.g.edges_within(s.v2):
            u, v = s.g.endpoints(eid)
            if u == v or not s.dsu.union(u, v):
                raise ValueError("protected side does not induce a forest")
            s.l -= 1
        s.root_adj = {}
        side_one = DisjointSet(s.v1)  # the instance may be edited after check
        for eid, (u, v) in s.g.edge_items():
            if u in s.v1 and v in s.v1:
                if u == v or not side_one.union(u, v):
                    raise ValueError("side one does not induce a forest")
            elif u in s.v1 and v in s.v2:
                s.root_adj.setdefault(s.dsu.find(v), set()).add(u)
            elif v in s.v1 and u in s.v2:
                s.root_adj.setdefault(s.dsu.find(u), set()).add(v)
        s.nice = set()
        s.picks = set()
        s.heap = []
        for v in s.v1:
            s.push(v)
        return s

    def copy(self) -> "ReductionState":
        s = ReductionState.__new__(ReductionState)
        s.g = self.g.copy()
        s.v1 = set(self.v1)
        s.v2 = set(self.v2)
        s.k = self.k
        s.dsu = self.dsu.copy()
        s.l = self.l
        s.nice = set(self.nice)
        s.root_adj = {r: set(a) for r, a in self.root_adj.items()}
        s.picks = set(self.picks)
        s.heap = list(self.heap)
        return s

    # -- bookkeeping -----------------------------------------------------

    def twice_m(self) -> int:
        return 2 * self.k + self.l - 2 * len(self.nice)

    def _is_nice(self, v: int) -> bool:
        """v is on side one, of degree 3, with every neighbor protected."""
        return (v in self.v1 and self.g.degree(v) == 3
                and all(o in self.v2 for o in self.g.neighbors(v)))

    def _update_nice(self, v: int) -> None:
        if self._is_nice(v):
            self.nice.add(v)
        else:
            self.nice.discard(v)

    def classify(self, v: int) -> int | None:
        deg = self.g.degree(v)
        if deg <= 1:
            return _REMOVE
        seen: set[int] = set()
        for _, other in self.g.incident(v):
            if other in self.v2:
                r = self.dsu.find(other)
                if r in seen:
                    return _FORCE
                seen.add(r)
        if deg == 2:
            return _BYPASS
        return None

    def push(self, v: int) -> None:
        self._update_nice(v)
        cls = self.classify(v)
        if cls is not None:
            heapq.heappush(self.heap, (cls, v))

    def _union_trees(self, a: int, b: int) -> None:
        ra, rb = self.dsu.find(a), self.dsu.find(b)
        if ra == rb:
            raise AssertionError("merge would close a cycle in g[v2]")
        self.dsu.union(ra, rb)
        new_root = self.dsu.find(ra)
        old_root = rb if new_root == ra else ra
        self.l -= 1
        old_adj = self.root_adj.pop(old_root, set())
        new_adj = self.root_adj.setdefault(new_root, set())
        if len(old_adj) > len(new_adj):
            old_adj, new_adj = new_adj, old_adj
            self.root_adj[new_root] = new_adj
        for x in old_adj:
            if x in self.v1:  # stale members drop out lazily
                new_adj.add(x)
                self.push(x)

    # -- transitions -------------------------------------------------------

    def remove_v1(self, v: int, forced: bool) -> None:
        incident = [(e, o) for e, o in self.g.incident(v)]
        self.g.remove_vertex(v)
        self.v1.discard(v)
        self.nice.discard(v)
        if forced:
            self.k -= 1
            self.picks.add(v)
        for _, other in incident:
            if other in self.v1:
                self.push(other)

    def move_to_v2(self, v: int) -> None:
        self.v1.discard(v)
        self.nice.discard(v)
        self.v2.add(v)
        self.dsu.add(v)
        self.l += 1
        self.root_adj.setdefault(v, set())
        for _, other in list(self.g.incident(v)):
            if other in self.v2 and other != v:
                self._union_trees(v, other)
            elif other in self.v1:
                self.root_adj.setdefault(self.dsu.find(v), set()).add(other)
                self.push(other)

    def bypass(self, v: int) -> None:
        incident = list(self.g.incident(v))
        (_, a), (_, b) = incident
        if a == b:
            raise AssertionError("parallel pair must be forced, not bypassed")
        bypass_degree2(self.g, v)
        self.v1.discard(v)
        self.nice.discard(v)
        if a in self.v2 and b in self.v2:
            self._union_trees(a, b)
        elif a in self.v2:
            self.root_adj.setdefault(self.dsu.find(a), set()).add(b)
        elif b in self.v2:
            self.root_adj.setdefault(self.dsu.find(b), set()).add(a)
        if a in self.v1:
            self.push(a)
        if b in self.v1:
            self.push(b)

    def drain(self, audit: bool = False) -> bool:
        """Apply steps 4-6 until quiescent; False once the budget is
        overdrawn.  `audit` asserts that no step raises twice_m."""
        heap = self.heap
        while heap and self.k >= 0:
            cls, v = heapq.heappop(heap)
            if v not in self.v1 or not self.g.has_vertex(v):
                continue
            actual = self.classify(v)
            if actual is None:
                self._update_nice(v)
                continue
            if actual != cls:
                heapq.heappush(heap, (actual, v))
                continue
            before = self.twice_m() if audit else 0
            if cls == _REMOVE:
                self.remove_v1(v, forced=False)
            elif cls == _FORCE:
                self.remove_v1(v, forced=True)
            else:
                self.bypass(v)
            if audit and self.twice_m() > before:
                raise MeasureAuditError(
                    f"step {cls} increased the measure at vertex {v}")
        return self.k >= 0

    def peel_protected(self) -> bool:
        """Delete protected vertices of degree <= 1, cascading; True if any
        went.  Safe for the answer, but not part of the branching drain: a
        peel next to a nice vertex raises twice_m before the bypass that
        follows lowers it again."""
        queue = [v for v in self.v2 if self.g.degree(v) <= 1]
        acted = bool(queue)
        while queue:
            v = queue.pop()
            if v not in self.v2:
                continue
            nbrs = list(self.g.neighbors(v))
            self.g.remove_vertex(v)
            self.v2.discard(v)
            if not any(o in self.v2 for o in nbrs):
                self.l -= 1  # v was a whole tree
            for o in nbrs:
                if o in self.v1:
                    self.push(o)
                elif self.g.degree(o) <= 1:
                    queue.append(o)
        return acted

    # -- audit -------------------------------------------------------------

    def verify(self) -> None:
        """Recompute the maintained quantities from scratch (audit mode)."""
        if not is_forest(self.g, self.v1):
            raise MeasureAuditError("g[v1] lost the forest property")
        if not is_forest(self.g, self.v2):
            raise MeasureAuditError("g[v2] lost the forest property")
        l = components(self.g, self.v2).count
        if l != self.l:
            raise MeasureAuditError(f"tree count drifted: {self.l} != {l}")
        p = sum(1 for v in self.v1 if self._is_nice(v))
        if p != len(self.nice):
            raise MeasureAuditError(f"nice count drifted: {len(self.nice)} != {p}")
