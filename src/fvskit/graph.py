"""Mutable undirected multigraph plus the forest/component/spanning-tree
primitives shared by every solver module.

Vertices and edges carry integer ids handed out by per-graph counters that
never run backwards, so an id is never reused within one graph's lifetime
even after deletions.  That keeps search traces replayable and lets derived
structures (spanning trees, edge pairs) reference edges stably.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

VertexSet = set[int]


class Graph:
    """Undirected multigraph with stable ids.

    Parallel edges and self-loops are first-class: each edge is stored under
    its own id, and a self-loop contributes 2 to the degree of its vertex.
    """

    __slots__ = ("_adj", "_edges", "_deg", "_next_vertex", "_next_edge")

    def __init__(self) -> None:
        # vertex id -> {edge id: other endpoint}; a self-loop appears once.
        self._adj: dict[int, dict[int, int]] = {}
        self._edges: dict[int, tuple[int, int]] = {}
        self._deg: dict[int, int] = {}
        self._next_vertex = 1
        self._next_edge = 1

    # -- construction ----------------------------------------------------

    def add_vertex(self) -> int:
        vid = self._next_vertex
        self._next_vertex += 1
        self._adj[vid] = {}
        self._deg[vid] = 0
        return vid

    def add_vertices(self, count: int) -> list[int]:
        return [self.add_vertex() for _ in range(count)]

    def add_edge(self, u: int, v: int) -> int:
        if u not in self._adj or v not in self._adj:
            raise ValueError(f"unknown endpoint in edge ({u}, {v})")
        eid = self._next_edge
        self._next_edge += 1
        self._edges[eid] = (u, v)
        self._adj[u][eid] = v
        if u != v:
            self._adj[v][eid] = u
            self._deg[u] += 1
            self._deg[v] += 1
        else:
            self._deg[u] += 2
        return eid

    def remove_edge(self, eid: int) -> None:
        u, v = self._edges.pop(eid)
        del self._adj[u][eid]
        if u != v:
            del self._adj[v][eid]
            self._deg[u] -= 1
            self._deg[v] -= 1
        else:
            self._deg[u] -= 2

    def remove_vertex(self, v: int) -> None:
        if v not in self._adj:
            raise ValueError(f"unknown vertex {v}")
        for eid in list(self._adj[v]):
            self.remove_edge(eid)
        del self._adj[v]
        del self._deg[v]

    # -- queries ----------------------------------------------------------

    @property
    def vertices(self):
        return self._adj.keys()

    @property
    def edge_ids(self):
        return self._edges.keys()

    @property
    def vertex_count(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def endpoints(self, eid: int) -> tuple[int, int]:
        return self._edges[eid]

    def edge_items(self) -> Iterator[tuple[int, tuple[int, int]]]:
        return iter(self._edges.items())

    def degree(self, v: int) -> int:
        return self._deg[v]

    def incident(self, v: int) -> Iterator[tuple[int, int]]:
        """Yield (edge id, other endpoint); a self-loop is yielded once."""
        return iter(self._adj[v].items())

    def neighbors(self, v: int) -> Iterator[int]:
        """Neighbor per incident edge (multiset; self-loop yields v once)."""
        return iter(self._adj[v].values())

    def edges_within(self, s: VertexSet) -> Iterator[int]:
        """Edge ids of the induced subgraph g[s], ascending."""
        for eid, (u, v) in self._edges.items():
            if u in s and v in s:
                yield eid

    # -- copies -----------------------------------------------------------

    def copy(self) -> "Graph":
        g = Graph.__new__(Graph)
        g._adj = {v: dict(inc) for v, inc in self._adj.items()}
        g._edges = dict(self._edges)
        g._deg = dict(self._deg)
        g._next_vertex = self._next_vertex
        g._next_edge = self._next_edge
        return g

    def induced_subgraph(self, s: Iterable[int]) -> "Graph":
        """Copy of g[s] keeping vertex/edge ids (and id counters)."""
        keep = set(s)
        unknown = keep - self._adj.keys()
        if unknown:
            raise ValueError(f"unknown vertices {sorted(unknown)}")
        g = Graph.__new__(Graph)
        g._adj = {v: {} for v in self._adj if v in keep}
        g._edges = {}
        g._deg = {v: 0 for v in g._adj}
        g._next_vertex = self._next_vertex
        g._next_edge = self._next_edge
        for eid, (u, v) in self._edges.items():
            if u in keep and v in keep:
                g._edges[eid] = (u, v)
                g._adj[u][eid] = v
                if u != v:
                    g._adj[v][eid] = u
                    g._deg[u] += 1
                    g._deg[v] += 1
                else:
                    g._deg[u] += 2
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.vertex_count}, m={self.edge_count})"


class DisjointSet:
    """Union-find with union by size and path compression."""

    __slots__ = ("parent", "size")

    def __init__(self, items: Iterable[int] = ()) -> None:
        self.parent: dict[int, int] = {}
        self.size: dict[int, int] = {}
        for x in items:
            self.add(x)

    def add(self, x: int) -> None:
        if x not in self.parent:
            self.parent[x] = x
            self.size[x] = 1

    def find(self, x: int) -> int:
        root = x
        parent = self.parent
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of a and b; False if already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True

    def copy(self) -> "DisjointSet":
        d = DisjointSet.__new__(DisjointSet)
        d.parent = dict(self.parent)
        d.size = dict(self.size)
        return d


@dataclass
class ComponentLabeling:
    """Component id per vertex of an induced subgraph.

    Two vertices share a label iff they are connected within the subgraph.
    Labels are 0..count-1 in order of first appearance (ascending vertex id).
    """

    label: dict[int, int]
    count: int

    def groups(self) -> list[set[int]]:
        out: list[set[int]] = [set() for _ in range(self.count)]
        for v, c in self.label.items():
            out[c].add(v)
        return out


def _check_subset(g: Graph, s: VertexSet) -> None:
    for v in s:
        if not g.has_vertex(v):
            raise ValueError(f"unknown vertex {v}")


def is_forest(g: Graph, s: VertexSet) -> bool:
    """True iff the induced subgraph g[s] contains no cycle.

    A self-loop inside s or a parallel pair inside s counts as a cycle.
    """
    _check_subset(g, s)
    dsu = DisjointSet(s)
    for eid in g.edges_within(s):
        u, v = g.endpoints(eid)
        if u == v or not dsu.union(u, v):
            return False
    return True


def components(g: Graph, s: VertexSet) -> ComponentLabeling:
    """Connected components of the induced subgraph g[s]."""
    _check_subset(g, s)
    dsu = DisjointSet(s)
    for eid in g.edges_within(s):
        u, v = g.endpoints(eid)
        dsu.union(u, v)
    label: dict[int, int] = {}
    roots: dict[int, int] = {}
    for v in sorted(s):
        r = dsu.find(v)
        if r not in roots:
            roots[r] = len(roots)
        label[v] = roots[r]
    return ComponentLabeling(label, len(roots))


def betti(g: Graph) -> int:
    """Number of independent cycles: |E| - |V| + number of components."""
    return g.edge_count - g.vertex_count + components(g, set(g.vertices)).count


def connected_without(g: Graph, removed: set[int]) -> bool:
    """True iff g minus the given edge ids is connected (vertex-wise)."""
    verts = list(g.vertices)
    if not verts:
        return True
    dsu = DisjointSet(verts)
    parts = len(verts)
    for eid, (u, v) in g.edge_items():
        if eid not in removed and u != v and dsu.union(u, v):
            parts -= 1
    return parts == 1


def spanning_tree_containing(g: Graph, s: VertexSet) -> set[int]:
    """Edge set of a spanning tree of g that includes every edge of g[s].

    Seeds a union-find with g[s]'s edges, then inserts the remaining edges
    (ascending id) whenever they join two distinct components.
    """
    _check_subset(g, s)
    dsu = DisjointSet(g.vertices)
    tree: set[int] = set()
    for eid in g.edges_within(s):
        u, v = g.endpoints(eid)
        if u == v or not dsu.union(u, v):
            raise ValueError("induced subgraph g[s] is not a forest")
        tree.add(eid)
    for eid, (u, v) in g.edge_items():
        if eid in tree or u == v:
            continue
        if dsu.union(u, v):
            tree.add(eid)
    if len(tree) != g.vertex_count - 1:
        raise ValueError("graph is disconnected; no spanning tree exists")
    return tree


def bypass_degree2(g: Graph, v: int) -> int:
    """Remove degree-2 vertex v and reconnect its two former neighbors.

    Creates a parallel edge if the neighbors were already adjacent, and a
    self-loop if they coincide.  Returns the id of the new edge.
    """
    if not g.has_vertex(v) or g.degree(v) != 2:
        raise ValueError(f"vertex {v} does not have degree 2")
    inc = list(g.incident(v))
    if len(inc) != 2:
        # A single self-loop also gives degree 2 but leaves nothing to join.
        raise ValueError(f"vertex {v} carries a self-loop; cannot bypass")
    (_, a), (_, b) = inc
    g.remove_vertex(v)
    return g.add_edge(a, b)


def is_fvs(g: Graph, f: VertexSet) -> bool:
    """True iff g - f is acyclic."""
    _check_subset(g, f)
    dsu = DisjointSet(v for v in g.vertices if v not in f)
    for eid, (u, v) in g.edge_items():
        if u in f or v in f:
            continue
        if u == v or not dsu.union(u, v):
            return False
    return True
