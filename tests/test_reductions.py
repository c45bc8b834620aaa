"""The safe rules, as drained by `ReductionState`.

Rule 1 deletes a side-one vertex of degree <= 1 (and, on the degree-3
leaf's path only, `peel_protected` deletes protected ones); rule 2 forces a
side-one vertex with two edges into one protected tree and bypasses any
other side-one vertex of degree 2.  The kernel bound is the branching
search's rejection of a drained state with more than 2k + l - tau side-one
vertices, l and tau counting the trees of g[v2] and g[v1].
"""

import pytest

from fvskit.branching import feedback
from fvskit.graph import components, is_forest
from fvskit.oracle import brute_disjoint
from fvskit.reductions import DisjointInstance, ReductionState

from conftest import (five_edge_instance, make_graph, random_disjoint_instance,
                      triangle)


def _inst(g, v1, k):
    v1 = set(v1)
    return DisjointInstance(g, v1, set(g.vertices) - v1, k)


def _drained(inst):
    state = ReductionState.from_instance(inst)
    return state, state.drain(audit=True)


def _bound_rejects(state) -> bool:
    l = components(state.g, state.v2).count
    tau = components(state.g, state.v1).count
    return len(state.v1) > 2 * state.k + l - tau


def three_path_instance(k):
    """A v1 path u-v-w; u and w see protected a and b, v sees a only.
    The rules leave it alone; its minimum is 2."""
    g = make_graph(5, [(0, 1), (1, 2),                  # u-v-w
                       (0, 3), (0, 4), (1, 3),          # u: a, b; v: a
                       (2, 3), (2, 4)])                 # w: a, b
    return DisjointInstance(g, {1, 2, 3}, {4, 5}, k)


def test_preprocess_parallel_pair_forces_v1_endpoint():
    g = make_graph(2, [(0, 1), (0, 1)])
    state, ok = _drained(_inst(g, {1}, 1))
    assert ok and state.picks == {1} and state.k == 0
    assert set(state.g.vertices) == {2}


def test_preprocess_parallel_pair_inside_v2_is_fatal():
    g = make_graph(3, [(0, 1), (0, 1), (1, 2)])
    with pytest.raises(ValueError):
        _inst(g, {3}, 5)
    # the engine refuses it too, when it is added after the instance is built
    inst = DisjointInstance(make_graph(3, [(0, 1), (1, 2)]), {3}, {1, 2}, 5)
    inst.g.add_edge(1, 2)
    with pytest.raises(ValueError):
        ReductionState.from_instance(inst)
    with pytest.raises(ValueError):  # ... and inside v1
        _inst(g, {1, 2}, 5)


def test_preprocess_identity_on_simple_graph():
    inst = five_edge_instance(1)
    state, ok = _drained(inst)
    assert ok and state.picks == set() and state.k == 1
    assert state.g.vertex_count == 4 and state.g.edge_count == 5


def test_preprocess_self_loops():
    g = make_graph(2, [(0, 1)])
    g.add_edge(1, 1)
    with pytest.raises(ValueError):
        _inst(g, {1}, 1)

    g = make_graph(2, [(0, 1)])
    g.add_edge(2, 2)
    with pytest.raises(ValueError):
        _inst(g, {1}, 5)
    inst = DisjointInstance(make_graph(2, [(0, 1)]), {1}, {2}, 5)
    inst.g.add_edge(2, 2)
    with pytest.raises(ValueError):
        ReductionState.from_instance(inst)

    # a cycle inside either side
    with pytest.raises(ValueError):
        DisjointInstance(triangle(), {1, 2, 3}, set(), 1)
    with pytest.raises(ValueError):
        DisjointInstance(triangle(), set(), {1, 2, 3}, 1)
    inst = DisjointInstance(make_graph(3, [(0, 1), (1, 2)]), set(), {1, 2, 3},
                            1)
    inst.g.add_edge(3, 1)
    with pytest.raises(ValueError):
        ReductionState.from_instance(inst)


def test_edited_side_one_cycle_is_refused():
    inst = _inst(make_graph(3, [(0, 1), (1, 2)]), {1, 2, 3}, 0)
    inst.g.add_edge(3, 1)
    with pytest.raises(ValueError, match="side one"):
        feedback(inst)
    # a parallel pair inside side one is the shortest such cycle
    inst = _inst(make_graph(3, [(0, 1), (1, 2)]), {1, 2, 3}, 0)
    inst.g.add_edge(2, 1)
    with pytest.raises(ValueError, match="side one"):
        ReductionState.from_instance(inst)


def test_edited_side_one_self_loop_is_refused():
    inst = _inst(make_graph(3, [(0, 1), (1, 2)]), {1, 2, 3}, 0)
    inst.g.add_edge(2, 2)
    with pytest.raises(ValueError, match="side one"):
        feedback(inst)


def test_preprocess_exhausts_budget():
    g = make_graph(4, [(0, 1), (0, 1), (2, 3), (2, 3)])
    state, ok = _drained(DisjointInstance(g, {1, 3}, {2, 4}, 1))
    assert not ok and state.k < 0


def test_rule1_path_cascades_to_empty():
    # a path inside v1 drains away leaf by leaf
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    state, ok = _drained(_inst(g, {1, 2, 3, 4}, 0))
    assert ok and state.g.vertex_count == 0 and not state.v1
    # an alternating path: the drain deletes and bypasses side one, the
    # peel takes the protected remainder
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    state, ok = _drained(_inst(g, {1, 3}, 0))
    assert ok and state.picks == set() and not state.v1
    assert state.peel_protected()
    assert state.g.vertex_count == 0 and not state.v2
    assert state.l == 0


def test_rule1_triangle_unchanged():
    # no vertex of a cycle has degree <= 1: the peel leaves it alone and
    # the drain's only action is to force the v1 vertex
    state = ReductionState.from_instance(_inst(triangle(), {1}, 1))
    assert not state.peel_protected()
    assert state.g.vertex_count == 3 and state.g.edge_count == 3
    assert state.drain(audit=True)
    assert state.picks == {1} and set(state.g.vertices) == {2, 3}


def test_rule1_pendant_trimmed():
    # the five-edge core plus a v1 pendant p at a and a protected pendant q
    # at b
    g = make_graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                       (4, 2), (5, 3)])
    state, ok = _drained(DisjointInstance(g, {1, 2, 5}, {3, 4, 6}, 1))
    assert ok and set(state.g.vertices) == {1, 2, 3, 4, 6}
    assert state.peel_protected()
    assert set(state.g.vertices) == {1, 2, 3, 4} and state.g.edge_count == 5
    assert state.picks == set() and state.k == 1
    state.verify()


def test_rule2_same_tree_forces():
    # v adjacent twice into one v2 tree (via a path)
    g = make_graph(4, [(0, 1), (1, 2), (3, 0), (3, 2)])
    state, ok = _drained(DisjointInstance(g, {4}, {1, 2, 3}, 1))
    assert ok and state.picks == {4} and state.k == 0


def test_rule2_branching_mode_bypasses():
    # x sees protected a, c and side-one v; v sees x and protected b
    g = make_graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    state, ok = _drained(DisjointInstance(g, {1, 4}, {2, 3, 5}, 1))
    assert ok and not state.g.has_vertex(4) and state.picks == set()
    assert sorted(state.g.neighbors(1)) == [2, 3, 5]
    # between two protected trees, the bypass merges them
    g = make_graph(3, [(0, 1), (1, 2)])
    state, ok = _drained(DisjointInstance(g, {2}, {1, 3}, 1))
    assert ok and not state.v1 and state.l == 1
    (u, v), = [state.g.endpoints(e) for e in state.g.edge_ids]
    assert {u, v} == {1, 3}
    state.verify()


def test_kernel_bound_boundary_continues():
    # |v1| == 2k + l - tau exactly, and the rules leave the state alone
    state, ok = _drained(three_path_instance(1))
    assert ok and state.picks == set() and len(state.v1) == 3
    l = components(state.g, state.v2).count
    tau = components(state.g, state.v1).count
    assert (l, tau) == (2, 1)
    assert len(state.v1) == 2 * state.k + l - tau
    assert not _bound_rejects(state)


def test_kernel_bound_k0_rejection_matches_oracle():
    # Same shape as the boundary instance, but with no budget at all.
    inst = three_path_instance(0)
    state, ok = _drained(inst)
    assert ok and state.picks == set()
    assert _bound_rejects(state)
    assert brute_disjoint(inst) is None


def test_kernel_bound_never_contradicts_oracle_on_corpus():
    checked = 0
    for seed in range(50):
        g, v1, v2 = random_disjoint_instance(seed)
        for k in (0, 1, max(0, len(v1) // 2)):
            orig = DisjointInstance(g.copy(), set(v1), set(v2), k)
            oracle_yes = brute_disjoint(orig) is not None
            state, ok = _drained(orig)
            if not ok:
                assert not oracle_yes
                continue
            if _bound_rejects(state):
                assert not oracle_yes
                checked += 1
    assert checked > 0


def test_reduction_preserves_minimum():
    for seed in range(60):
        g, v1, v2 = random_disjoint_instance(seed, n_max=10)
        orig = DisjointInstance(g.copy(), set(v1), set(v2), len(v1))
        best = brute_disjoint(orig)
        assert best is not None
        state, ok = _drained(orig)
        assert ok  # budget |v1| never runs out
        assert is_forest(state.g, state.v1) and is_forest(state.g, state.v2)
        reduced_best = brute_disjoint(
            DisjointInstance(state.g.copy(), set(state.v1), set(state.v2),
                             len(state.v1)))
        assert reduced_best is not None
        assert len(best) == len(state.picks) + len(reduced_best)


def test_reduction_yes_instances_fit_kernel_bound():
    for seed in range(60):
        g, v1, v2 = random_disjoint_instance(seed)
        orig = DisjointInstance(g.copy(), set(v1), set(v2), len(v1))
        best = brute_disjoint(orig)
        k = len(best)
        state, ok = _drained(DisjointInstance(g.copy(), set(v1), set(v2), k))
        if not ok:
            pytest.fail("reduction rejected a yes-instance")
        l = components(state.g, state.v2).count
        tau = components(state.g, state.v1).count
        assert len(state.v1) <= 2 * state.k + l - tau
        if l <= state.k + 1 and tau >= 1:
            assert len(state.v1) <= 3 * state.k
