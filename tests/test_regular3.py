import pytest

from fvskit.graph import betti, connected_without, is_fvs
from fvskit.oracle import brute_disjoint, brute_mu, brute_parity
from fvskit.reductions import DisjointInstance
from fvskit.regular3 import (fvs_from_matching, matroid_parity, parity_pairs,
                             solve_regular3, tree_from_parity)

from conftest import five_edge_instance, make_graph, random_regular3_instance


def _five_edge_parity():
    inst = five_edge_instance()
    return inst, parity_pairs(inst.g, inst.v1)


def test_parity_pairs_five_edge():
    # uv=1, ua=2, ub=3, va=4, vb=5: three pairs at u, three at v
    inst, pairs = _five_edge_parity()
    assert pairs == [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (4, 5)]


def test_parity_pairs_empty_for_lone_degree_one_vertex():
    # a lone v1 vertex of degree 1 leaves its edge with nothing to pair
    g = make_graph(2, [(0, 1)])
    assert parity_pairs(g, {1}) == []


def test_matroid_parity_rejects_disconnected_input():
    g = make_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        matroid_parity(g, [(1, 2)])


def test_tree_from_parity_rejects_infeasible_choice():
    inst, pairs = _five_edge_parity()
    assert len(brute_parity(inst.g, pairs)) == 1
    with pytest.raises(ValueError):  # both pairs use uv
        tree_from_parity(inst.g, inst.v1, inst.v2, pairs[:2])
    with pytest.raises(ValueError):  # a and b cut off
        tree_from_parity(inst.g, inst.v1, inst.v2, [(2, 3), (4, 5)])


def test_matroid_parity_tree_returns_empty():
    g = make_graph(3, [(0, 1), (1, 2)])
    assert matroid_parity(g, [(1, 2)]) == []
    assert brute_parity(g, [(1, 2)]) == []


def test_parity_counts_a_shared_edge_once():
    # K4 with v1 = {x, y} joined by e = xy.  Deleting e, f = xa and h = ya
    # keeps g connected through b, but (e, f) and (e, h) share e, so the
    # answer is one pair, not two.
    g = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    inst = DisjointInstance(g, {1, 2}, {3, 4}, 2)
    e, f, h = 1, 2, 4
    assert connected_without(g, {e, f, h})
    pairs = parity_pairs(g, inst.v1)
    assert (e, f) in pairs and (e, h) in pairs
    for chosen in (matroid_parity(g, pairs), brute_parity(g, pairs)):
        assert len(chosen) == 1
        assert len({x for pair in chosen for x in pair}) == 2
    res = solve_regular3(inst)
    assert res == {1, 2} and betti(g) - 1 == 2


def test_matroid_parity_matches_oracle_on_corpus():
    checked = 0
    for seed in range(60):
        inst = random_regular3_instance(seed, v1_max=3, connected=True)
        pairs = parity_pairs(inst.g, inst.v1)
        if len(pairs) > 10:
            continue
        mine = matroid_parity(inst.g, pairs, seed=seed)
        assert len(mine) == len(brute_parity(inst.g, pairs)), seed
        removed = {e for pair in mine for e in pair}
        assert len(removed) == 2 * len(mine)
        assert connected_without(inst.g, removed)
        checked += 1
    assert checked >= 30


def test_tree_from_parity_empty_choice():
    inst = five_edge_instance()
    tree, matching = tree_from_parity(inst.g, inst.v1, inst.v2, [])
    assert not matching.two_groups
    assert len(matching.one_groups) == betti(inst.g)
    assert len(tree) == inst.g.vertex_count - 1


def test_tree_from_parity_two_group_count():
    inst, pairs = _five_edge_parity()
    chosen = matroid_parity(inst.g, pairs)
    tree, matching = tree_from_parity(inst.g, inst.v1, inst.v2, chosen)
    assert len(matching.two_groups) == len(chosen) == 1
    # the tree contains every protected-side edge (there are none here) and
    # spans the graph
    assert len(tree) == inst.g.vertex_count - 1


def test_tree_matching_reaches_brute_mu():
    """The matching built from the parity solution has exactly mu(G)
    2-groups, with or without vertices that need forcing."""
    checked = 0
    for seed in range(40):
        inst = random_regular3_instance(seed, n_max=10, v1_max=3,
                                        connected=True)
        pairs = parity_pairs(inst.g, inst.v1)
        if len(pairs) > 10:
            continue
        chosen = matroid_parity(inst.g, pairs, seed=seed)
        tree, matching = tree_from_parity(inst.g, inst.v1, inst.v2, chosen)
        assert set(inst.g.edges_within(inst.v2)) <= tree
        assert len(matching.two_groups) == brute_mu(inst), seed
        checked += 1
    assert checked >= 30


def test_fvs_from_matching_five_edge():
    inst, pairs = _five_edge_parity()
    chosen = matroid_parity(inst.g, pairs)
    tree, matching = tree_from_parity(inst.g, inst.v1, inst.v2, chosen)
    f = fvs_from_matching(inst.g, inst.v1, tree, matching)
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
    f = fvs_from_matching(g, inst.v1, tree, matching)
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


def test_parity_choice_feasible_in_original_graph():
    # deleting the chosen edges keeps g connected and never touches a
    # protected-side edge
    for seed in range(30):
        inst = random_regular3_instance(seed, v1_max=3, connected=True)
        chosen = matroid_parity(inst.g, parity_pairs(inst.g, inst.v1),
                                seed=seed)
        removed = {eid for pair in chosen for eid in pair}
        assert len(removed) == 2 * len(chosen)
        assert not removed & set(inst.g.edges_within(inst.v2))
        assert connected_without(inst.g, removed)


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
