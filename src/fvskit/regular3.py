"""Polynomial-time exact solver for instances whose side-one vertices all
have degree exactly 3.

Per connected component g, the minimum v1-only feedback vertex set has size
betti(g) minus the largest number of edge pairs, each pair two edges meeting
at a v1 vertex and no edge used twice, whose joint removal keeps g
connected.  That is cographic (bond-matroid) matroid parity on g's own
edges, solved with Lovasz's rank identity on cycle-space vectors; a spanning
tree built around the remaining graph then yields the solution.

The paper reaches the same parity problem by contracting every tree of
g[v2] and subdividing each edge into one labeled segment per edge it meets
at a v1 vertex (Furst-Gross-McGeoch).  Over a linear representation neither
graph is needed: the segments of one edge are in series, so their vectors
are parallel and a segment pair is just an edge pair; and contracting an
edge deletes it from the bond matroid, where no pair uses a g[v2] edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import (Graph, VertexSet, betti, components, connected_without,
                    spanning_tree_containing)
from .reductions import DisjointInstance, ReductionState

EdgePair = tuple[int, int]

# Prime modulus for the randomized rank computations.  Small enough that
# accumulating ~1000 products of two reduced residues stays inside int64.
_PRIME = 67_108_859  # 2**26 - 5
_RANK_SAMPLES = 3  # drives per-call failure probability below 2**-40
_MAX_RETRIES = 3


@dataclass
class AdjacencyMatching:
    """Partition of the non-tree edges into 1-groups and 2-groups, where the
    two edges of a 2-group share a v1 endpoint."""

    two_groups: list[EdgePair]
    one_groups: list[int]


def parity_pairs(g: Graph, v1: VertexSet) -> list[EdgePair]:
    """Every two distinct edges meeting at a v1 vertex, ascending."""
    pairs: set[EdgePair] = set()
    for v in v1:
        eids = sorted(e for e, _ in g.incident(v))
        pairs.update((a, b) for i, a in enumerate(eids) for b in eids[i + 1:])
    return sorted(pairs)


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


def matroid_parity(g: Graph, pairs: list[EdgePair],
                   seed: int = 0) -> list[EdgePair]:
    """Maximum set of `pairs` that use no edge twice and whose joint removal
    keeps the connected graph g connected.

    Randomized rank-based backend: Lovasz's parity identity evaluated at
    random points of GF(p), sampled a few times per query; the returned set
    is verified deterministically (distinct edges, g still connected).
    """
    vec, dim = _cycle_space_vectors(g)
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
        if (len(chosen) == target and len(removed) == 2 * target
                and connected_without(g, removed)):
            return [pairs[i] for i in chosen]
    raise RuntimeError("matroid parity backend failed to certify a solution")


def tree_from_parity(g: Graph, v1: VertexSet, v2: VertexSet,
                     chosen: list[EdgePair]
                     ) -> tuple[set[int], AdjacencyMatching]:
    """Build a spanning tree of g around the chosen edge pairs.

    The tree contains all of g[v2]; the chosen pairs become the 2-groups of
    the returned matching and every other non-tree edge a 1-group.
    """
    removed = {e for pair in chosen for e in pair}
    if len(removed) != 2 * len(chosen):
        raise ValueError("pair set touches some edge twice")
    for e1, e2 in chosen:
        if not set(g.endpoints(e1)) & set(g.endpoints(e2)) & v1:
            raise ValueError(f"pair ({e1}, {e2}) shares no v1 endpoint")
    h = g.copy()
    for eid in removed:
        h.remove_edge(eid)
    try:
        tree = spanning_tree_containing(h, v2)
    except ValueError as exc:
        raise ValueError(f"infeasible pair set: {exc}") from exc
    one_groups = [eid for eid in sorted(g.edge_ids)
                  if eid not in tree and eid not in removed]
    return tree, AdjacencyMatching(sorted(chosen), one_groups)


def fvs_from_matching(g: Graph, v1: VertexSet, tree: set[int],
                      matching: AdjacencyMatching) -> VertexSet:
    """Select one v1 endpoint per group: the shared endpoint of a 2-group,
    the smallest-id v1 endpoint of a 1-group."""
    non_tree = set(g.edge_ids) - set(tree)
    covered = set(matching.one_groups)
    for e1, e2 in matching.two_groups:
        covered.update((e1, e2))
    if covered != non_tree or len(covered) != (
            len(matching.one_groups) + 2 * len(matching.two_groups)):
        raise ValueError("matching does not partition the non-tree edges")
    out: VertexSet = set()
    for eid in matching.one_groups:
        ends = [x for x in g.endpoints(eid) if x in v1]
        if not ends:
            raise ValueError(f"1-group edge {eid} has no v1 endpoint")
        out.add(min(ends))
    for e1, e2 in matching.two_groups:
        shared = set(g.endpoints(e1)) & set(g.endpoints(e2)) & v1
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
    Then runs matroid parity on each connected component.
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
        sub = work.g.induced_subgraph(group)
        if betti(sub) == 0:
            continue
        v1c = work.v1 & group
        chosen = matroid_parity(sub, parity_pairs(sub, v1c), seed=seed)
        tree, matching = tree_from_parity(sub, v1c, work.v2 & group, chosen)
        result |= fvs_from_matching(sub, v1c, tree, matching)
        if len(result) > budget:
            return None
    return result
