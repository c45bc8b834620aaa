"""Shared corpus generators and independent checkers for the test suite."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from fvskit.graph import Graph, is_forest
from fvskit.reductions import DisjointInstance


def make_graph(n: int, edges) -> Graph:
    g = Graph()
    vs = g.add_vertices(n)
    for u, v in edges:
        g.add_edge(vs[u], vs[v])
    return g


def triangle() -> Graph:
    return make_graph(3, [(0, 1), (1, 2), (2, 0)])


def k4() -> Graph:
    return make_graph(4, list(combinations(range(4), 2)))


def petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
        edges.append((i, 5 + i))
    return make_graph(10, edges)


def cycle_graph(n: int) -> Graph:
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def five_edge_instance(k: int = 2) -> DisjointInstance:
    """Two degree-3 vertices u, v joined to each other and to two isolated
    protected vertices a, b: edges uv, ua, ub, va, vb."""
    g = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    return DisjointInstance(g, {1, 2}, {3, 4}, k)


def random_multigraph(seed: int, n_max: int = 12, m_max: int = 24) -> Graph:
    """Seeded random graph; every third seed adds parallel edges."""
    rng = random.Random(f"multigraph:{seed}")
    n = rng.randint(3, n_max)
    m = rng.randint(0, min(m_max, n * (n - 1) // 2))
    g = Graph()
    vs = g.add_vertices(n)
    pairs = list(combinations(vs, 2))
    rng.shuffle(pairs)
    for u, v in pairs[:m]:
        g.add_edge(u, v)
    if seed % 3 == 0 and g.edge_count:
        for _ in range(rng.randint(1, 3)):
            u, v = g.endpoints(rng.choice(sorted(g.edge_ids)))
            g.add_edge(u, v)
    return g


def random_disjoint_instance(seed: int, n_max: int = 12):
    """Seeded (g, v1, v2) with both sides inducing forests; occasionally
    carries a parallel edge across the partition."""
    rng = random.Random(f"disjoint:{seed}")
    while True:
        n = rng.randint(4, n_max)
        m = rng.randint(n - 2, min(2 * n, n * (n - 1) // 2))
        g = Graph()
        vs = g.add_vertices(n)
        pairs = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]]
        rng.shuffle(pairs)
        for u, v in pairs[:m]:
            g.add_edge(u, v)
        v1 = {v for v in vs if rng.random() < 0.55}
        v2 = set(vs) - v1
        if not (is_forest(g, v1) and is_forest(g, v2)):
            continue
        if rng.random() < 0.3:
            crossing = [eid for eid, (u, v) in g.edge_items()
                        if (u in v1) != (v in v1)]
            if crossing:
                u, v = g.endpoints(rng.choice(sorted(crossing)))
                g.add_edge(u, v)
        return g, v1, v2


def random_regular3_instance(seed: int, n_max: int = 14, v1_max: int = 4,
                             connected: bool = False) -> DisjointInstance:
    """Seeded instance where every v1 vertex has degree exactly 3.

    Rejection-sampled: attach three edges per v1 vertex to random targets
    (protected vertices or other v1 vertices), then keep the instance only
    if both sides still induce forests.  Same-tree double attachments are
    allowed, so some instances exercise the forced-vertex path.
    """
    rng = random.Random(f"regular3:{seed}")
    while True:
        nv1 = rng.randint(1, v1_max)
        nv2 = rng.randint(3, max(3, min(9, n_max - nv1)))
        if nv1 + nv2 > n_max:
            continue
        g = Graph()
        vs = g.add_vertices(nv1 + nv2)
        v1, v2 = set(vs[:nv1]), set(vs[nv1:])
        v2_list = vs[nv1:]
        for i in range(1, nv2):
            if rng.random() < 0.6:
                g.add_edge(v2_list[rng.randrange(i)], v2_list[i])
        from fvskit.graph import components as _components
        comp = _components(g, v2)
        clean = rng.random() < 0.75  # mostly one edge per v2-tree
        ok = True
        for u in vs[:nv1]:
            used_trees: set[int] = set()
            for _ in range(3):
                pool = [x for x in vs
                        if x != u and not (x in v1 and g.degree(x) >= 3)]
                if clean:
                    pool = [x for x in pool
                            if x in v1 or comp.label[x] not in used_trees]
                pool = [x for x in pool
                        if all(o != x for o in g.neighbors(u))]
                if not pool:
                    ok = False
                    break
                x = rng.choice(pool)
                g.add_edge(u, x)
                if x in v2:
                    used_trees.add(comp.label[x])
            if not ok:
                break
        if not ok:
            continue
        if any(g.degree(u) != 3 for u in v1):
            continue
        if not (is_forest(g, v1) and is_forest(g, v2)):
            continue
        from fvskit.graph import components
        if connected and components(g, set(vs)).count != 1:
            continue
        return DisjointInstance(g, v1, v2, nv1)


def spider_instance(seed: int):
    """Instance family whose reduced form branches on a v1-tree: spider
    centers see only v1 vertices, every leaf is wired into two distinct
    protected trees.  Exercises the deepest branching rule."""
    rng = random.Random(f"spider:{seed}")
    g = Graph()
    n_trees = rng.randint(2, 4)
    trees = []
    v2: set[int] = set()
    for _ in range(n_trees):
        size = rng.randint(1, 3)
        vs = g.add_vertices(size)
        for i in range(1, size):
            g.add_edge(vs[rng.randrange(i)], vs[i])
        trees.append(vs)
        v2.update(vs)
    v1: set[int] = set()
    for _ in range(rng.randint(1, 2)):
        center = g.add_vertex()
        v1.add(center)
        for _ in range(rng.randint(3, 4)):
            leaf = g.add_vertex()
            v1.add(leaf)
            g.add_edge(center, leaf)
            t1, t2 = rng.sample(range(n_trees), 2)
            g.add_edge(leaf, rng.choice(trees[t1]))
            g.add_edge(leaf, rng.choice(trees[t2]))
    assert is_forest(g, v1) and is_forest(g, v2)
    return g, v1, v2


def dfs_is_forest(g: Graph, s) -> bool:
    """Independent cycle detector: DFS back-edge search (multigraph-aware),
    used to cross-check the union-find-based predicate."""
    s = set(s)
    visited: set[int] = set()
    for start in sorted(s):
        if start in visited:
            continue
        stack = [(start, None)]
        visited.add(start)
        while stack:
            x, via = stack.pop()
            for eid, other in g.incident(x):
                if other not in s or eid == via:
                    continue
                if other == x:
                    return False  # self-loop
                if other in visited:
                    return False
                visited.add(other)
                stack.append((other, eid))
    return True


@pytest.fixture
def rng():
    return random.Random(20240817)
