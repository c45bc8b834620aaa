import math

import pytest

from fvskit.branching import SearchStats, feedback
from fvskit.graph import components, is_fvs
from fvskit.oracle import brute_disjoint
from fvskit.reductions import DisjointInstance, ReductionState

from conftest import (five_edge_instance, make_graph, random_disjoint_instance,
                      spider_instance, triangle)


def _engine_measure(inst):
    """(2m, k, l, p) as the engine holds them for a fresh instance."""
    s = ReductionState.from_instance(inst)
    return s.twice_m(), s.k, s.l, len(s.nice)


def _recount_measure(inst):
    """(2m, k, l, p) recounted from scratch: protected trees by
    `components`, nice vertices (degree 3, every neighbor protected) by an
    inline test."""
    g = inst.g
    l = components(g, inst.v2).count
    p = sum(1 for v in inst.v1
            if g.degree(v) == 3 and all(o in inst.v2 for o in g.neighbors(v)))
    return 2 * inst.k + l - 2 * p, inst.k, l, p


def test_count_nice_all_nice():
    # two degree-3 vertices with all neighbors protected, distinct trees
    g = make_graph(8, [(2, 0), (3, 0), (4, 0), (5, 1), (6, 1), (7, 1)])
    inst = DisjointInstance(g, {1, 2}, {3, 4, 5, 6, 7, 8}, 0)
    assert _engine_measure(inst)[3] == _recount_measure(inst)[3] == 2


def test_count_nice_v1_neighbor_disqualifies():
    g = make_graph(5, [(0, 1), (0, 2), (0, 3), (1, 4)])
    inst = DisjointInstance(g, {1, 2}, {3, 4, 5}, 0)
    # vertex 1 has v1 neighbor 2; 2 has degree 1
    assert _engine_measure(inst)[3] == _recount_measure(inst)[3] == 0


def test_count_nice_five_edge():
    inst = five_edge_instance(1)
    assert _engine_measure(inst)[3] == _recount_measure(inst)[3] == 0


def test_measure_five_edge():
    inst = five_edge_instance(1)
    assert _engine_measure(inst) == _recount_measure(inst) == (4, 1, 2, 0)


def test_measure_trivial_forest():
    g = make_graph(2, [(0, 1)])
    inst = DisjointInstance(g, {1, 2}, set(), 0)
    assert _engine_measure(inst) == _recount_measure(inst) == (0, 0, 0, 0)


def test_measure_rejection_region():
    # p > k + l/2 gives a negative potential
    g = make_graph(4, [(1, 0), (2, 0), (3, 0)])
    inst = DisjointInstance(g, {1}, {2, 3, 4}, 0)
    assert _engine_measure(inst) == _recount_measure(inst) == (1, 0, 3, 1)
    g2 = make_graph(8, [(2, 0), (3, 0), (4, 0), (5, 1), (6, 1), (7, 1)])
    inst2 = DisjointInstance(g2, {1, 2}, {3, 4, 5, 6, 7, 8}, 0)
    # here v2 trees overlap across the two nice vertices: l = 6, p = 2, k = 0
    assert _engine_measure(inst2) == _recount_measure(inst2) == (2, 0, 6, 2)
    # shrink l by merging the protected side into three trees
    g3 = make_graph(8, [(2, 0), (3, 0), (4, 0), (5, 1), (6, 1), (7, 1),
                        (2, 5), (3, 6), (4, 7)])
    inst3 = DisjointInstance(g3, {1, 2}, {3, 4, 5, 6, 7, 8}, 0)
    # p > k + l/2
    assert _engine_measure(inst3) == _recount_measure(inst3) == (-1, 0, 3, 2)


def test_feedback_c4_example():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    inst = DisjointInstance(g, {1, 3}, {2, 4}, 1)
    stats = SearchStats()
    res = feedback(inst, stats, audit=True)
    assert res is not None and len(res) == 1 and res <= {1, 3}
    assert is_fvs(g, res)
    assert stats.leaves >= 1 and stats.forced_count >= 1


def test_feedback_k0_with_cycle():
    inst = DisjointInstance(triangle(), {1}, {2, 3}, 0)
    assert feedback(inst) is None


def test_feedback_negative_budget():
    with pytest.raises(ValueError):
        DisjointInstance(triangle(), {1}, {2, 3}, -1)


def test_feedback_does_not_mutate_input():
    inst = five_edge_instance(2)
    n, m = inst.g.vertex_count, inst.g.edge_count
    feedback(inst)
    assert (inst.g.vertex_count, inst.g.edge_count) == (n, m)
    assert inst.k == 2


def test_feedback_delegates_to_polynomial_case():
    # all v1 vertices nice: p == |v1| right away
    g = make_graph(8, [(2, 0), (3, 0), (4, 0), (5, 1), (6, 1), (7, 1),
                       (2, 5), (3, 6)])
    inst = DisjointInstance(g, {1, 2}, {3, 4, 5, 6, 7, 8}, 2)
    stats = SearchStats()
    res = feedback(inst, stats, audit=True)
    oracle = brute_disjoint(
        DisjointInstance(g.copy(), {1, 2}, {3, 4, 5, 6, 7, 8}, 2))
    assert (res is None) == (oracle is None)
    if res is not None:
        assert is_fvs(g, res)
    assert stats.branch_nodes == 0  # solved without branching


def test_feedback_decisions_match_oracle_with_audit():
    for seed in range(150):
        g, v1, v2 = random_disjoint_instance(seed)
        base = DisjointInstance(g.copy(), set(v1), set(v2), len(v1))
        best = brute_disjoint(base)
        best_size = len(best) if best is not None else None
        for k in range(len(v1) + 1):
            inst = DisjointInstance(g.copy(), set(v1), set(v2), k)
            stats = SearchStats()
            twice_m0 = ReductionState.from_instance(inst).twice_m()
            res = feedback(inst, stats, audit=True)
            expect = best_size is not None and best_size <= k
            assert (res is not None) == expect, (seed, k)
            if res is not None:
                assert res <= v1 and len(res) <= k and is_fvs(g, res)
            # leaf bound at the root measure, clamped at exponent zero
            bound = 2 ** max(0, math.ceil(twice_m0 / 2))
            assert stats.leaves <= bound, (seed, k)
            assert stats.leaves <= stats.branch_nodes + 1


def test_feedback_spider_corpus_hits_tree_branching():
    """Spider instances force the in-tree branch rule; decisions must still
    match the oracle, with the audit on."""
    hit_branching = 0
    for seed in range(60):
        g, v1, v2 = spider_instance(seed)
        if len(v1) > 12:
            continue
        base = DisjointInstance(g.copy(), set(v1), set(v2), len(v1))
        best = brute_disjoint(base)
        best_size = len(best) if best is not None else None
        for k in range(len(v1) + 1):
            inst = DisjointInstance(g.copy(), set(v1), set(v2), k)
            stats = SearchStats()
            res = feedback(inst, stats, audit=True)
            expect = best_size is not None and best_size <= k
            assert (res is not None) == expect, (seed, k)
            if res is not None:
                assert res <= v1 and len(res) <= k and is_fvs(g, res)
            hit_branching += stats.branch_nodes
    assert hit_branching > 0


def test_feedback_tracks_branch_depth():
    # an instance that must branch: depth and branch counters move together
    for seed in range(40):
        g, v1, v2 = random_disjoint_instance(seed)
        inst = DisjointInstance(g, v1, v2, max(0, len(v1) - 1))
        stats = SearchStats()
        feedback(inst, stats)
        if stats.branch_nodes:
            assert stats.max_depth >= 1
            break
    else:
        pytest.skip("no branching instance in the window")


def test_feedback_stats_accumulate_across_calls():
    stats = SearchStats()
    g = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    inst = DisjointInstance(g, {1, 3}, {2, 4}, 1)
    feedback(inst, stats)
    first = stats.leaves
    feedback(inst, stats)
    assert stats.leaves == 2 * first


def test_feedback_rejects_malformed_instance():
    # a side-one cycle is refused when the instance is built
    with pytest.raises(ValueError):
        DisjointInstance(triangle(), {1, 2, 3}, set(), 1)
