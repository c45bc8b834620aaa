import pytest

from fvskit.graph import betti, components, is_fvs
from fvskit.oracle import brute_disjoint, brute_mu, brute_parity
from fvskit.reductions import DisjointInstance
from fvskit.regular3 import (fvs_from_matching, matroid_parity, shrink_v2,
                             solve_regular3, subdivide, tree_from_parity)

from conftest import five_edge_instance, make_graph, random_regular3_instance


def test_shrink_rejects_double_edges_into_one_tree():
    # u has all three edges into one protected path
    g = make_graph(4, [(0, 1), (1, 2), (3, 0), (3, 1), (3, 2)])
    inst = DisjointInstance(g, {4}, {1, 2, 3}, 1)
    with pytest.raises(ValueError):
        shrink_v2(inst)


def test_shrink_five_edge_example():
    sg = shrink_v2(five_edge_instance())
    assert sg.g1.vertex_count == 4
    assert sg.g1.edge_count == 5
    # simple graph: no parallel pairs
    seen = set()
    for eid in sg.g1.edge_ids:
        key = tuple(sorted(sg.g1.endpoints(eid)))
        assert key not in seen
        seen.add(key)
    assert len(sg.origin) == 5


def test_shrink_star_when_v2_connected():
    # one protected path, three v1 vertices each with one edge into it and
    # a v1 cherry keeping degrees at 3 is overkill; use a direct star check
    g = make_graph(5, [(0, 1),                      # v2 edge
                       (2, 0), (3, 0), (4, 1),      # one edge per v1 vertex
                       (2, 3), (2, 4), (3, 4)])     # v1 triangle? no - forest
    # v1 triangle would not be a forest; drop one edge
    g = make_graph(5, [(0, 1), (2, 0), (3, 0), (4, 1), (2, 3), (3, 4)])
    inst = DisjointInstance(g, {3, 4, 5}, {1, 2}, 3)
    sg = shrink_v2(inst)
    # the v2 path became one hub vertex with an edge to each v1 vertex
    hub = sg.comp_vertex[0]
    assert sg.g1.degree(hub) == 3


def test_subdivide_five_edge_counts_and_pairing():
    inst = five_edge_instance()
    sg = shrink_v2(inst)
    ps = subdivide(sg, inst.v1)
    # edge uv is adjacent to ua, ub, va, vb: four segments; the other four
    # edges have two segments each
    per_edge: dict[int, int] = {}
    for seg, e0 in ps.segment_origin.items():
        per_edge[e0] = per_edge.get(e0, 0) + 1
    assert sorted(per_edge.values()) == [2, 2, 2, 2, 4]
    assert ps.g2.edge_count == 12
    assert len(ps.pairing) == 6
    # perfect pairing: each segment in exactly one pair
    flat = [e for pair in ps.pairing for e in pair]
    assert sorted(flat) == sorted(ps.g2.edge_ids)
    # every g1 edge contributes at least two segments
    assert min(per_edge.values()) >= 2


def test_subdivide_pairing_is_symmetric_on_corpus():
    for seed in range(20):
        inst = random_regular3_instance(seed, connected=True)
        try:
            sg = shrink_v2(inst)
        except ValueError:
            continue  # instance needs forcing first
        ps = subdivide(sg, inst.v1)
        per_edge: dict[int, int] = {}
        for seg, e0 in ps.segment_origin.items():
            per_edge[e0] = per_edge.get(e0, 0) + 1
        assert all(c >= 2 for c in per_edge.values())
        for a, b in ps.pairing:
            # partners come from the two edges of a v1-adjacent edge pair
            assert ps.segment_origin[a] != ps.segment_origin[b]


def test_matroid_parity_rejects_disconnected_input():
    from fvskit.regular3 import PairedSubdivision
    g = make_graph(4, [(0, 1), (2, 3)])
    ps = PairedSubdivision(g, {1: 1, 2: 2}, [(1, 2)])
    with pytest.raises(ValueError):
        matroid_parity(ps)


def test_tree_from_parity_rejects_infeasible_choice():
    inst = five_edge_instance()
    sg = shrink_v2(inst)
    ps = subdivide(sg, inst.v1)
    assert len(brute_parity(ps)) == 1
    with pytest.raises(ValueError):
        tree_from_parity(inst, sg, ps, list(ps.pairing[:2]))


def test_subdivide_requires_adjacent_edges():
    # a lone v1 vertex of degree 1 leaves its edge with nothing to pair
    from fvskit.regular3 import ShrunkenGraph
    g1 = make_graph(2, [(0, 1)])
    sg = ShrunkenGraph(g1, {1: 1}, {0: 2}, {1: 1}, {1})
    with pytest.raises(ValueError):
        subdivide(sg, {1})


def test_matroid_parity_tree_returns_empty():
    g = make_graph(3, [(0, 1), (1, 2)])
    inst = DisjointInstance(g, set(), {1, 2, 3}, 0)
    # build a tiny fake subdivision by hand: a path, paired arbitrarily
    from fvskit.regular3 import PairedSubdivision
    ps = PairedSubdivision(g.copy(), {1: 1, 2: 2}, [(1, 2)])
    assert matroid_parity(ps) == []
    assert brute_parity(ps) == []


def test_matroid_parity_matches_oracle_on_corpus():
    checked = 0
    for seed in range(60):
        inst = random_regular3_instance(seed, v1_max=3, connected=True)
        sg = shrink_v2_after_forcing(inst)
        if sg is None:
            continue
        ps = subdivide(sg[0], sg[1])
        if len(ps.pairing) > 10:
            continue
        mine = matroid_parity(ps, seed=seed)
        oracle = brute_parity(ps)
        assert len(mine) == len(oracle), seed
        removed = {e for pair in mine for e in pair}
        h = ps.g2.copy()
        for e in removed:
            h.remove_edge(e)
        assert components(h, set(h.vertices)).count == 1
        checked += 1
    assert checked >= 30


def shrink_v2_after_forcing(inst):
    """Force assumption violators, then shrink; None if nothing is left."""
    work = DisjointInstance(inst.g.copy(), inst.v1, inst.v2, inst.k)
    while True:
        comp = components(work.g, work.v2)
        violator = None
        for v in sorted(work.v1):
            seen = set()
            for _, other in work.g.incident(v):
                if other in work.v2:
                    c = comp.label[other]
                    if c in seen:
                        violator = v
                        break
                    seen.add(c)
            if violator is not None:
                break
        if violator is None:
            break
        work.g.remove_vertex(violator)
        work.v1.discard(violator)
    if not work.v1 or components(work.g, set(work.g.vertices)).count != 1:
        return None
    if any(work.g.degree(v) != 3 for v in work.v1):
        return None
    return shrink_v2(work), work.v1


def test_tree_from_parity_empty_choice():
    inst = five_edge_instance()
    sg = shrink_v2(inst)
    ps = subdivide(sg, inst.v1)
    tree, matching = tree_from_parity(inst, sg, ps, [])
    assert not matching.two_groups
    assert len(matching.one_groups) == betti(inst.g)
    assert len(tree) == inst.g.vertex_count - 1


def test_tree_from_parity_two_group_count():
    inst = five_edge_instance()
    sg = shrink_v2(inst)
    ps = subdivide(sg, inst.v1)
    chosen = matroid_parity(ps)
    tree, matching = tree_from_parity(inst, sg, ps, chosen)
    assert len(matching.two_groups) == len(chosen) == 1
    # the tree contains every protected-side edge (there are none here) and
    # spans the graph
    assert len(tree) == inst.g.vertex_count - 1


def test_tree_matching_reaches_brute_mu():
    """On instances already satisfying the shrink assumptions, the matching
    produced from the parity solution has exactly mu(G) 2-groups."""
    checked = 0
    for seed in range(40):
        inst = random_regular3_instance(seed, n_max=10, v1_max=3,
                                        connected=True)
        try:
            sg = shrink_v2(inst)
        except ValueError:
            continue  # would need forcing first; covered elsewhere
        ps = subdivide(sg, inst.v1)
        if len(ps.pairing) > 10:
            continue
        chosen = matroid_parity(ps, seed=seed)
        tree, matching = tree_from_parity(inst, sg, ps, chosen)
        assert set(inst.g.edges_within(inst.v2)) <= tree
        assert len(matching.two_groups) == brute_mu(inst), seed
        checked += 1
    assert checked >= 15


def test_fvs_from_matching_five_edge():
    inst = five_edge_instance()
    sg = shrink_v2(inst)
    ps = subdivide(sg, inst.v1)
    chosen = matroid_parity(ps)
    tree, matching = tree_from_parity(inst, sg, ps, chosen)
    f = fvs_from_matching(inst, tree, matching)
    assert len(f) == betti(inst.g) - len(matching.two_groups) == 1
    assert f <= inst.v1
    assert is_fvs(inst.g, f)


def test_fvs_from_matching_all_singletons():
    # Two triangles through distinct v1 vertices, joined by a bridge: the
    # 1-groups land on different v1 vertices, so |F| == betti(g).
    from fvskit.graph import spanning_tree_containing
    from fvskit.regular3 import AdjacencyMatching
    g = make_graph(6, [(0, 1), (4, 0), (4, 1),     # u-triangle
                       (2, 3), (5, 2), (5, 3),     # w-triangle
                       (1, 2)])                    # bridge
    inst = DisjointInstance(g, {5, 6}, {1, 2, 3, 4}, 2)
    tree = spanning_tree_containing(g, inst.v2)
    one_groups = [eid for eid in g.edge_ids if eid not in tree]
    matching = AdjacencyMatching([], one_groups)
    f = fvs_from_matching(inst, tree, matching)
    assert len(f) == betti(g) == 2
    assert is_fvs(g, f) and f <= inst.v1


def test_solve_regular3_forest_returns_empty():
    g = make_graph(4, [(0, 1), (1, 2), (1, 3)])
    inst = DisjointInstance(g, set(), {1, 2, 3, 4}, 0)
    assert solve_regular3(inst) == set()


def test_solve_regular3_five_edge():
    inst = five_edge_instance(k=1)
    res = solve_regular3(inst)
    assert res is not None and len(res) == 1
    assert is_fvs(inst.g, res)
    assert solve_regular3(five_edge_instance(k=0)) is None


def test_solve_regular3_rejects_non_regular():
    g = make_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        solve_regular3(DisjointInstance(g, {2}, {1, 3}, 1))
    # a v1 vertex of degree 4 is refused as well
    g = make_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    with pytest.raises(ValueError):
        solve_regular3(DisjointInstance(g, {1}, {2, 3, 4, 5}, 1))
    # an instance whose protected side has a cycle cannot be built
    g = make_graph(4, [(0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (3, 2)])
    with pytest.raises(ValueError):
        DisjointInstance(g, {4}, {1, 2, 3}, 1)
    # no v1 vertex at all is vacuously degree 3
    g = make_graph(2, [(0, 1)])
    assert solve_regular3(DisjointInstance(g, set(), {1, 2}, 0)) == set()
    assert solve_regular3(five_edge_instance(k=1)) is not None


def _assert_exact_at_optimum(inst: DisjointInstance) -> None:
    """solve_regular3 finds an optimum at k = opt and answers NO at opt-1."""
    best = brute_disjoint(DisjointInstance(inst.g.copy(), set(inst.v1),
                                           set(inst.v2), len(inst.v1)))
    assert best is not None
    opt = len(best)
    at_opt = DisjointInstance(inst.g.copy(), set(inst.v1), set(inst.v2), opt)
    res = solve_regular3(at_opt)
    assert res is not None and len(res) == opt
    assert res <= inst.v1 and is_fvs(inst.g, res)
    if opt:
        below = DisjointInstance(inst.g.copy(), set(inst.v1), set(inst.v2),
                                 opt - 1)
        assert solve_regular3(below) is None
        assert brute_disjoint(below) is None


def test_solve_regular3_parallel_edge_into_v2():
    # u has a parallel pair into a and a third edge to w; x is nice
    g = make_graph(7, [(0, 1), (0, 1), (0, 2),          # u=1: a, a, w
                       (2, 3), (2, 4),                  # w=3: u, b, c
                       (5, 1), (5, 3), (5, 6)])         # x=6: a, b, d
    _assert_exact_at_optimum(DisjointInstance(g, {1, 3, 6}, {2, 4, 5, 7}, 3))


def test_solve_regular3_two_edges_into_one_tree():
    # u reaches the protected path a-b-c at both ends
    g = make_graph(7, [(1, 2), (2, 3),                  # path a-b-c
                       (0, 1), (0, 3), (0, 4),          # u=1: a, c, w
                       (4, 2), (4, 5),                  # w=5: u, b, d
                       (6, 1), (6, 5), (6, 3)])         # x=7: a, d, c
    _assert_exact_at_optimum(DisjointInstance(g, {1, 5, 7}, {2, 3, 4, 6}, 3))


def test_solve_regular3_protected_pendant_leaves_degree_two():
    # p hangs off u alone; without it u has degree 2 and is bypassed
    g = make_graph(5, [(0, 1), (0, 2), (0, 4),          # u=1: v, a, p
                       (1, 2), (1, 3)])                 # v=2: u, a, b
    _assert_exact_at_optimum(DisjointInstance(g, {1, 2}, {3, 4, 5}, 2))


def test_constructions_preserve_connectivity():
    # g connected -> g1 connected -> g2 connected, on the shrinkable corpus
    checked = 0
    for seed in range(30):
        inst = random_regular3_instance(seed, connected=True)
        try:
            sg = shrink_v2(inst)
        except ValueError:
            continue
        assert components(inst.g, set(inst.g.vertices)).count == 1
        assert components(sg.g1, set(sg.g1.vertices)).count == 1
        ps = subdivide(sg, inst.v1)
        assert components(ps.g2, set(ps.g2.vertices)).count == 1
        checked += 1
    assert checked >= 10


def test_parity_choice_feasible_in_original_graph():
    # deleting the mapped original edges keeps g connected and never touches
    # a protected-side edge
    checked = 0
    for seed in range(30):
        inst = random_regular3_instance(seed, v1_max=3, connected=True)
        try:
            sg = shrink_v2(inst)
        except ValueError:
            continue
        ps = subdivide(sg, inst.v1)
        chosen = matroid_parity(ps, seed=seed)
        mapped = {sg.origin[ps.segment_origin[s]]
                  for pair in chosen for s in pair}
        v2_edges = set(inst.g.edges_within(inst.v2))
        assert not mapped & v2_edges
        h = inst.g.copy()
        for eid in mapped:
            h.remove_edge(eid)
        assert components(h, set(h.vertices)).count == 1
        checked += 1
    assert checked >= 10


def test_solve_regular3_matches_oracle_identity():
    for seed in range(60):
        inst = random_regular3_instance(seed)
        res = solve_regular3(
            DisjointInstance(inst.g.copy(), inst.v1, inst.v2, inst.k))
        best = brute_disjoint(
            DisjointInstance(inst.g.copy(), set(inst.v1), set(inst.v2),
                             len(inst.v1)))
        assert best is not None
        mu = brute_mu(inst)
        assert res is not None, seed
        assert len(res) == betti(inst.g) - mu == len(best), seed
        assert is_fvs(inst.g, res) and res <= inst.v1
