"""Property tests of the degree-3 leaf against the brute-force oracles, on
instances that Hypothesis draws structurally (derandomized, so a run
replays exactly)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from fvskit.graph import Graph, betti, components, connected_without, is_fvs
from fvskit.oracle import (DEFAULT_BUDGET, brute_disjoint, brute_mu,
                           brute_parity)
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
