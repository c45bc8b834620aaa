"""Property tests of the full solvers and the degree-3 leaf against the
brute-force oracles, on inputs that Hypothesis draws structurally
(derandomized, so a run replays exactly).  networkx serves as a second,
independent cycle checker for the full solvers' witnesses."""

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fvskit.compression import solve_fvs_decision, solve_fvs_min
from fvskit.graph import Graph, betti, components, connected_without, is_fvs
from fvskit.oracle import (DEFAULT_BUDGET, brute_disjoint, brute_fvs,
                           brute_mu, brute_parity)
from fvskit.reductions import DisjointInstance, ReductionState
from fvskit.regular3 import matroid_parity, parity_pairs, solve_regular3

_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                     max_examples=150)


@st.composite
def regular3_instances(draw) -> DisjointInstance:
    """An instance whose side-one vertices all have degree 3, with k = |v1|.

    Draws the protected forest and a forest on side one (each vertex joins
    an earlier one or starts a tree), then a protected target for each free
    edge slot of a side-one vertex.  Unless the instance is drawn `clean`,
    targets may hit one tree or one vertex twice, so some vertices need
    forcing; the graph may be disconnected.
    """
    nv2 = draw(st.integers(1, 8))
    nv1 = draw(st.integers(1, 4))
    g = Graph()
    v2 = g.add_vertices(nv2)
    v1 = g.add_vertices(nv1)
    for side in (v2, v1):
        for i in range(1, len(side)):
            j = draw(st.none() | st.integers(0, i - 1))
            if j is not None and g.degree(side[j]) < 3:
                g.add_edge(side[j], side[i])
    tree = components(g, set(v2)).label
    clean = draw(st.booleans())
    for u in v1:
        used: set[int] = set()
        for _ in range(3 - g.degree(u)):
            pool = [x for x in v2 if not clean or tree[x] not in used] or v2
            x = pool[draw(st.integers(0, len(pool) - 1))]
            used.add(tree[x])
            g.add_edge(u, x)
    return DisjointInstance(g, set(v1), set(v2), nv1)


@_SETTINGS
@given(regular3_instances())
def test_solve_regular3_matches_oracles(inst):
    best = brute_disjoint(inst)
    assert best is not None
    opt = len(best)
    res = solve_regular3(inst)
    assert res is not None and res <= inst.v1 and is_fvs(inst.g, res)
    assert len(res) == opt == betti(inst.g) - brute_mu(inst)
    if opt:
        assert solve_regular3(
            DisjointInstance(inst.g, inst.v1, inst.v2, opt - 1)) is None


@_SETTINGS
@given(regular3_instances())
def test_matroid_parity_matches_brute_parity_per_component(inst):
    # the drain and peel that solve_regular3 runs before parity
    work = ReductionState.from_instance(inst)
    while work.drain() and work.peel_protected():
        pass
    assert work.k >= 0
    for group in components(work.g, set(work.g.vertices)).groups():
        sub = work.g.induced_subgraph(group)
        pairs = parity_pairs(sub, work.v1 & group)
        if len(pairs) > DEFAULT_BUDGET.p_max:
            continue
        mine = matroid_parity(sub, pairs)
        removed = {e for pair in mine for e in pair}
        assert len(removed) == 2 * len(mine)
        assert connected_without(sub, removed)
        assert len(mine) == len(brute_parity(sub, pairs))


def _pairs(draw, n: int, max_size: int) -> list[tuple[int, int]]:
    """Index pairs in range(n), self-loops and repeats allowed."""
    ends = st.integers(0, n - 1)
    return draw(st.lists(st.tuples(ends, ends), max_size=max_size))


@st.composite
def multigraphs(draw) -> Graph:
    """Up to 10 vertices and 16 edges, with self-loops and parallel edges;
    the empty graph included."""
    g = Graph()
    vs = g.add_vertices(draw(st.integers(0, 10)))
    for a, b in _pairs(draw, len(vs), 16) if vs else []:
        g.add_edge(vs[a], vs[b])
    return g


@st.composite
def cyclic_components(draw) -> Graph:
    """Two or three components, each a cycle through its 1-4 vertices (a
    self-loop or a parallel pair when short), up to two extra edges and
    perhaps a pendant vertex."""
    g = Graph()
    for _ in range(draw(st.integers(2, 3))):
        vs = g.add_vertices(draw(st.integers(1, 4)))
        for i, v in enumerate(vs):
            g.add_edge(v, vs[(i + 1) % len(vs)])
        for a, b in _pairs(draw, len(vs), 2):
            g.add_edge(vs[a], vs[b])
        if draw(st.booleans()):
            g.add_edge(vs[draw(st.integers(0, len(vs) - 1))], g.add_vertex())
    return g


def _nx_forest_after(g: Graph, removed: set[int]) -> bool:
    h = nx.MultiGraph()
    h.add_nodes_from(v for v in g.vertices if v not in removed)
    h.add_edges_from((u, v) for _, (u, v) in g.edge_items()
                     if u not in removed and v not in removed)
    return h.number_of_nodes() == 0 or nx.is_forest(h)


def _check_full_solvers(g: Graph) -> None:
    opt = len(brute_fvs(g))
    best = solve_fvs_min(g)
    assert len(best) == opt and _nx_forest_after(g, best)
    for k in (opt - 1, opt, opt + 1):
        if k < 0:
            continue
        res = solve_fvs_decision(g, k)
        if k < opt:
            assert res is None
        else:
            assert res is not None and len(res) <= k
            assert _nx_forest_after(g, res)
    with pytest.raises(ValueError):
        solve_fvs_decision(g, -1)


@_SETTINGS
@given(multigraphs())
@example(Graph())
def test_full_solvers_match_brute_fvs_on_multigraphs(g):
    _check_full_solvers(g)


@_SETTINGS
@given(cyclic_components())
def test_full_solvers_match_brute_fvs_on_disconnected_graphs(g):
    assert components(g, set(g.vertices)).count >= 2
    _check_full_solvers(g)
