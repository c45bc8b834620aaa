"""Polynomial-time exact solver for instances whose side-one vertices all
have degree exactly 3.

Pipeline per connected component: shrink every tree of g[v2] to a single
vertex, subdivide each surviving edge into labeled segments (one per edge
sharing a v1 endpoint with it), and ask for a maximum set of segment pairs
whose joint removal keeps the subdivision connected.  Each chosen pair maps
back to two original edges meeting at a v1 vertex; a spanning tree built
around the remaining graph then yields a minimum v1-only feedback vertex
set of size betti(g) minus the number of chosen pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import (Graph, VertexSet, betti, components, connected_without,
                    spanning_tree_containing)
from .reductions import DisjointInstance, ReductionState

# Prime modulus for the randomized rank computations.  Small enough that
# accumulating ~1000 products of two reduced residues stays inside int64.
_PRIME = 67_108_859  # 2**26 - 5
_RANK_SAMPLES = 3  # drives per-call failure probability below 2**-40
_MAX_RETRIES = 3


@dataclass
class ShrunkenGraph:
    """g with every v2-tree contracted to a single vertex.

    g1 keeps exactly the original edges with at least one v1 endpoint;
    `origin` maps each g1 edge id back to its source edge in g.
    """

    g1: Graph
    origin: dict[int, int]
    comp_vertex: dict[int, int]  # v2-component id -> g1 vertex
    v1_vertex: dict[int, int]    # original v1 vertex -> g1 vertex
    v1_nodes: set[int]           # g1 vertices that are v1 vertices


@dataclass
class PairedSubdivision:
    """The labeled subdivision with its perfect pairing of segment edges."""

    g2: Graph
    segment_origin: dict[int, int]     # g2 edge id -> g1 edge id
    pairing: list[tuple[int, int]]     # disjoint pairs of g2 edge ids


@dataclass
class AdjacencyMatching:
    """Partition of the non-tree edges into 1-groups and 2-groups, where the
    two edges of a 2-group share a v1 endpoint."""

    two_groups: list[tuple[int, int]]
    one_groups: list[int]


def shrink_v2(inst: DisjointInstance) -> ShrunkenGraph:
    """Contract each tree of g[v2] to one vertex; keep edges touching v1.

    Requires g connected, and at most one edge from any v1 vertex into any
    single v2-tree (violators must have been forced beforehand), which makes
    the result simple.
    """
    g = inst.g
    if components(g, set(g.vertices)).count != 1:
        raise ValueError("graph is disconnected; shrink works per component")
    comp = components(g, inst.v2)
    for v in sorted(inst.v1):
        seen: set[int] = set()
        for _, other in g.incident(v):
            if other in inst.v2:
                c = comp.label[other]
                if c in seen:
                    raise ValueError(
                        f"v1 vertex {v} has two edges into one v2 tree; "
                        "force it before shrinking")
                seen.add(c)
    g1 = Graph()
    v1_vertex = {v: g1.add_vertex() for v in sorted(inst.v1)}
    comp_vertex = {c: g1.add_vertex() for c in range(comp.count)}
    origin: dict[int, int] = {}

    def image(x: int) -> int:
        return v1_vertex[x] if x in inst.v1 else comp_vertex[comp.label[x]]

    for eid, (u, v) in sorted(g.edge_items()):
        if u in inst.v1 or v in inst.v1:
            origin[g1.add_edge(image(u), image(v))] = eid
    return ShrunkenGraph(g1, origin, comp_vertex, v1_vertex,
                         set(v1_vertex.values()))


def subdivide(sg: ShrunkenGraph, v1: VertexSet) -> PairedSubdivision:
    """Split every g1 edge into one segment per edge sharing a v1 end with
    it (ascending edge-id order), and pair segment (a:b) with segment (b:a).
    """
    g1 = sg.g1
    v1_nodes = {sg.v1_vertex[v] for v in v1 if v in sg.v1_vertex}
    adjacent: dict[int, list[int]] = {}
    for eid, (u, v) in sorted(g1.edge_items()):
        adj: set[int] = set()
        for x in (u, v):
            if x in v1_nodes:
                adj.update(e for e, _ in g1.incident(x))
        adj.discard(eid)
        if not adj:
            raise ValueError(f"g1 edge {eid} has no v1-adjacent edge")
        adjacent[eid] = sorted(adj)

    g2 = Graph()
    node_image = {v: g2.add_vertex() for v in sorted(g1.vertices)}
    segment_origin: dict[int, int] = {}
    label_edge: dict[tuple[int, int], int] = {}
    for e0 in sorted(g1.edge_ids):
        a, b = sorted(g1.endpoints(e0))
        chain = [node_image[a]]
        chain += [g2.add_vertex() for _ in range(len(adjacent[e0]) - 1)]
        chain.append(node_image[b])
        for i, ei in enumerate(adjacent[e0]):
            seg = g2.add_edge(chain[i], chain[i + 1])
            segment_origin[seg] = e0
            label_edge[(e0, ei)] = seg

    pairing: list[tuple[int, int]] = []
    for (e0, ei), seg in label_edge.items():
        if e0 < ei:
            partner = label_edge.get((ei, e0))
            if partner is None:
                raise AssertionError("segment pairing is not symmetric")
            pairing.append((min(seg, partner), max(seg, partner)))
    pairing.sort()
    return PairedSubdivision(g2, segment_origin, pairing)


# -- cographic matroid parity (production backend) -------------------------


def _cycle_space_vectors(g: Graph) -> tuple[dict[int, np.ndarray], int]:
    """Signed fundamental-cycle coordinates of every edge, modulo _PRIME.

    A set of edges keeps g connected iff its coordinate vectors are linearly
    independent, which turns connectivity-after-removal questions into rank
    questions.  Requires g connected.
    """
    verts = sorted(g.vertices)
    root = verts[0]
    parent: dict[int, int | None] = {root: None}
    parent_edge: dict[int, int | None] = {root: None}
    depth = {root: 0}
    stack = [root]
    tree_edges: set[int] = set()
    while stack:
        x = stack.pop()
        for eid, other in sorted(g.incident(x)):
            if other not in parent:
                parent[other] = x
                parent_edge[other] = eid
                depth[other] = depth[x] + 1
                tree_edges.add(eid)
                stack.append(other)
    if len(parent) != g.vertex_count:
        raise ValueError("graph is disconnected")

    non_tree = [eid for eid in sorted(g.edge_ids) if eid not in tree_edges]
    rank = len(non_tree)
    index = {eid: i for i, eid in enumerate(non_tree)}
    vec = {eid: np.zeros(rank, dtype=np.int64) for eid in g.edge_ids}
    for f in non_tree:
        i = index[f]
        vec[f][i] = 1
        u, v = g.endpoints(f)
        # Close the cycle back from v to u through the tree, climbing the
        # deeper end (u on a tie); a tree edge gets +1 when traversed along
        # its stored (tail, head) orientation.
        a, b = u, v
        while a != b:
            if depth[a] >= depth[b]:
                t = parent_edge[a]
                sign = 1 if g.endpoints(t) == (parent[a], a) else -1
                a = parent[a]
            else:
                t = parent_edge[b]
                sign = 1 if g.endpoints(t) == (b, parent[b]) else -1
                b = parent[b]
            vec[t][i] = (vec[t][i] + sign) % _PRIME
    return vec, rank


def _rank_mod_p(mat: np.ndarray) -> int:
    m = mat % _PRIME
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivots = np.nonzero(m[r:, c])[0]
        if pivots.size == 0:
            continue
        p0 = r + int(pivots[0])
        if p0 != r:
            m[[r, p0]] = m[[p0, r]]
        inv = pow(int(m[r, c]), _PRIME - 2, _PRIME)
        m[r] = (m[r] * inv) % _PRIME
        col = m[r + 1:, c]
        if col.size:
            m[r + 1:] = (m[r + 1:] - np.outer(col, m[r])) % _PRIME
        r += 1
    return r


def _pair_value(a_rows: np.ndarray, b_rows: np.ndarray, active: list[int],
                rng: np.random.Generator) -> int:
    """Largest number of pairs from `active` that is jointly independent.

    Evaluates the rank of a random skew combination of the pair outer
    products; the rank can only be underestimated, so the max over a few
    samples is exact with overwhelming probability.
    """
    if not active:
        return 0
    dim = a_rows.shape[1]
    if dim == 0:
        return 0
    a = a_rows[active]
    b = b_rows[active]
    best = 0
    for _ in range(_RANK_SAMPLES):
        x = rng.integers(1, _PRIME, size=(len(active), 1), dtype=np.int64)
        y = np.zeros((dim, dim), dtype=np.int64)
        # Chunked accumulation keeps the int64 dot products from overflowing.
        step = 1024
        for lo in range(0, len(active), step):
            hi = lo + step
            wa = (x[lo:hi] * a[lo:hi]) % _PRIME
            wb = (x[lo:hi] * b[lo:hi]) % _PRIME
            y = (y + wa.T @ b[lo:hi] - wb.T @ a[lo:hi]) % _PRIME
        rank = _rank_mod_p(y)
        if rank % 2:
            raise AssertionError("alternating matrix with odd rank")
        best = max(best, rank)
    return best // 2


def matroid_parity(ps: PairedSubdivision, seed: int = 0) -> list[tuple[int, int]]:
    """Maximum-cardinality set of segment pairs whose removal keeps g2
    connected.

    Randomized rank-based backend: Lovasz's parity identity evaluated at
    random points of GF(p), sampled a few times per query; the returned set
    is verified for connectivity deterministically.
    """
    vec, dim = _cycle_space_vectors(ps.g2)
    pairs = list(ps.pairing)
    if not pairs or dim == 0:
        return []
    a_rows = np.stack([vec[a] for a, _ in pairs])
    b_rows = np.stack([vec[b] for _, b in pairs])
    usable = [i for i in range(len(pairs))
              if a_rows[i].any() and b_rows[i].any()]

    for attempt in range(_MAX_RETRIES):
        rng = np.random.default_rng((seed, attempt))
        target = _pair_value(a_rows, b_rows, usable, rng)
        if target == 0:
            return []
        chosen = list(usable)
        if target < len(chosen):
            # Drop every pair that is not essential; whatever survives is
            # used by every maximum solution of the surviving set, hence is
            # itself a maximum solution.
            for i in list(chosen):
                trial = [j for j in chosen if j != i]
                if _pair_value(a_rows, b_rows, trial, rng) == target:
                    chosen = trial
        removed = {e for i in chosen for e in pairs[i]}
        if len(chosen) == target and connected_without(ps.g2, removed):
            return [pairs[i] for i in chosen]
    raise RuntimeError("matroid parity backend failed to certify a solution")


def tree_from_parity(inst: DisjointInstance, sg: ShrunkenGraph,
                     ps: PairedSubdivision,
                     chosen: list[tuple[int, int]]
                     ) -> tuple[set[int], AdjacencyMatching]:
    """Map chosen segment pairs back to original edge pairs and build a
    spanning tree of g around them.

    The tree contains all of g[v2]; the mapped pairs become the 2-groups of
    the returned matching and every other non-tree edge a 1-group.
    """
    mapped: list[tuple[int, int]] = []
    for s1, s2 in chosen:
        e1 = sg.origin[ps.segment_origin[s1]]
        e2 = sg.origin[ps.segment_origin[s2]]
        mapped.append((min(e1, e2), max(e1, e2)))
    removed = {e for pair in mapped for e in pair}
    if len(removed) != 2 * len(mapped):
        raise ValueError("pair set touches some original edge twice")
    h = inst.g.copy()
    for eid in removed:
        h.remove_edge(eid)
    try:
        tree = spanning_tree_containing(h, inst.v2)
    except ValueError as exc:
        raise ValueError(f"infeasible pair set: {exc}") from exc
    for e1, e2 in mapped:
        ends1 = set(inst.g.endpoints(e1)) & inst.v1
        ends2 = set(inst.g.endpoints(e2)) & inst.v1
        if not ends1 & ends2:
            raise AssertionError("mapped pair does not share a v1 endpoint")
    one_groups = [eid for eid in sorted(inst.g.edge_ids)
                  if eid not in tree and eid not in removed]
    return tree, AdjacencyMatching(sorted(mapped), one_groups)


def fvs_from_matching(inst: DisjointInstance, tree: set[int],
                      matching: AdjacencyMatching) -> VertexSet:
    """Select one v1 endpoint per group: the shared endpoint of a 2-group,
    the smallest-id v1 endpoint of a 1-group."""
    non_tree = set(inst.g.edge_ids) - set(tree)
    covered = set(matching.one_groups)
    for e1, e2 in matching.two_groups:
        covered.update((e1, e2))
    if covered != non_tree or len(covered) != (
            len(matching.one_groups) + 2 * len(matching.two_groups)):
        raise ValueError("matching does not partition the non-tree edges")
    out: VertexSet = set()
    for eid in matching.one_groups:
        ends = [x for x in inst.g.endpoints(eid) if x in inst.v1]
        if not ends:
            raise ValueError(f"1-group edge {eid} has no v1 endpoint")
        out.add(min(ends))
    for e1, e2 in matching.two_groups:
        shared = (set(inst.g.endpoints(e1)) & set(inst.g.endpoints(e2))
                  & inst.v1)
        if not shared:
            raise ValueError(f"2-group ({e1}, {e2}) shares no v1 endpoint")
        out.add(min(shared))
    return out


def solve_regular3(inst: DisjointInstance, seed: int = 0) -> VertexSet | None:
    """Minimum v1-only feedback vertex set of a degree-3-on-v1 instance,
    or None when that minimum exceeds the budget.

    First drains the safe rules (forcing vertices with two edges into one
    protected tree, bypassing and deleting low-degree ones) and peels
    protected vertices of degree <= 1, to a joint fixpoint; all of this
    keeps every remaining v1 vertex at degree 3 and the optimum exact.
    Then runs the shrink/subdivide/parity pipeline per connected component.
    """
    if any(inst.g.degree(v) != 3 for v in inst.v1):
        raise ValueError("some v1 vertex does not have degree 3")
    work = ReductionState.from_instance(inst)
    while True:
        if not work.drain():
            return None
        if not work.peel_protected():
            break

    assert all(work.g.degree(v) == 3 for v in work.v1)
    budget = inst.k
    result = set(work.picks)
    if work.g.vertex_count == 0:
        return result
    if len(result) + (betti(work.g) + 1) // 2 > budget:
        return None  # each component needs at least half its cycle rank
    for group in components(work.g, set(work.g.vertices)).groups():
        sub_g = work.g.induced_subgraph(group)
        if betti(sub_g) == 0:
            continue
        v1c = work.v1 & group
        sub = DisjointInstance(sub_g, v1c, work.v2 & group, len(v1c))
        sg = shrink_v2(sub)
        ps = subdivide(sg, v1c)
        chosen = matroid_parity(ps, seed=seed)
        tree, matching = tree_from_parity(sub, sg, ps, chosen)
        result |= fvs_from_matching(sub, tree, matching)
        if len(result) > budget:
            return None
    return result
