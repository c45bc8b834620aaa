import pytest

from fvskit.graph import Graph, betti
from fvskit.oracle import (OracleBudget, OracleBudgetExceeded, brute_disjoint,
                           brute_fvs, brute_mu, brute_parity)
from fvskit.reductions import DisjointInstance
from fvskit.regular3 import matroid_parity, parity_pairs, tree_from_parity

from conftest import k4, make_graph, random_regular3_instance, triangle


def test_brute_fvs_triangle():
    assert len(brute_fvs(triangle())) == 1


def test_brute_fvs_k4():
    assert len(brute_fvs(k4())) == 2


def test_brute_fvs_two_triangles():
    g = make_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert len(brute_fvs(g)) == 2


def test_brute_fvs_budget_refusal():
    g = Graph()
    g.add_vertices(15)
    with pytest.raises(OracleBudgetExceeded):
        brute_fvs(g)
    assert brute_fvs(g, OracleBudget(n_max=15)) == set()


def test_brute_disjoint_triangle_one_v1_vertex():
    g = triangle()
    assert brute_disjoint(DisjointInstance(g, {1}, {2, 3}, 0)) is None
    for k in range(1, 4):
        assert brute_disjoint(DisjointInstance(g, {1}, {2, 3}, k)) == {1}


def test_brute_disjoint_c4_alternating():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    inst = DisjointInstance(g, {1, 3}, {2, 4}, 1)
    res = brute_disjoint(inst)
    assert res is not None and len(res) == 1


def test_brute_disjoint_budget_refusal():
    g = Graph()
    vs = g.add_vertices(16)
    inst = DisjointInstance(g, set(vs), set(), 0)
    with pytest.raises(OracleBudgetExceeded):
        brute_disjoint(inst)


def test_brute_disjoint_cross_oracle_identity():
    # on degree-3 instances the minimum equals betti - mu
    for seed in range(25):
        inst = random_regular3_instance(seed, n_max=10, v1_max=3)
        best = brute_disjoint(
            DisjointInstance(inst.g.copy(), set(inst.v1), set(inst.v2),
                             len(inst.v1)))
        assert best is not None
        assert len(best) == betti(inst.g) - brute_mu(inst)


def test_brute_parity_tree():
    g = make_graph(3, [(0, 1), (1, 2)])
    assert brute_parity(g, [(1, 2)]) == []


def test_brute_parity_one_removable_pair():
    # chorded 4-cycle: removing the two opposite rim edges keeps the rest
    # connected through the chord
    g = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert brute_parity(g, [(1, 3)]) == [(1, 3)]


def test_brute_parity_budget_refusal():
    g = make_graph(2, [(0, 1)])
    with pytest.raises(OracleBudgetExceeded):
        brute_parity(g, [(1, 1)] * 11)


def test_brute_parity_matches_production_backend():
    for seed in range(30):
        inst = random_regular3_instance(seed, v1_max=2, connected=True)
        pairs = parity_pairs(inst.g, inst.v1)
        if len(pairs) > 10:
            continue
        assert (len(brute_parity(inst.g, pairs))
                == len(matroid_parity(inst.g, pairs, seed=seed)))


def test_brute_mu_acyclic_graph():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    inst = DisjointInstance(g, {1}, {2, 3, 4}, 0)
    # g[v1] vertex 1 has degree 1; instance shape irrelevant: g is a tree
    assert brute_mu(inst) == 0


def test_brute_mu_five_edge_example():
    g = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    inst = DisjointInstance(g, {1, 2}, {3, 4}, 2)
    assert brute_mu(inst) == 1


def test_brute_mu_at_least_any_single_tree():
    for seed in range(10):
        inst = random_regular3_instance(seed, n_max=9, v1_max=2,
                                        connected=True)
        pairs = parity_pairs(inst.g, inst.v1)
        if len(pairs) > 10:
            continue
        chosen = matroid_parity(inst.g, pairs, seed=seed)
        _, matching = tree_from_parity(inst.g, inst.v1, inst.v2, chosen)
        assert brute_mu(inst) >= len(matching.two_groups)


def test_brute_mu_budget_refusal():
    g = Graph()
    vs = g.add_vertices(15)
    inst = DisjointInstance(g, set(), set(vs), 0)
    with pytest.raises(OracleBudgetExceeded):
        brute_mu(inst)
