import pytest

from fvskit.branching import SearchStats
from fvskit.compression import (_greedy, fvs_reduction, kernelize,
                                solve_fvs_decision, solve_fvs_min)
from fvskit.graph import Graph, is_forest, is_fvs
from fvskit.oracle import brute_fvs
from fvskit.generators import gen_random

from conftest import cycle_graph, k4, make_graph, petersen, random_multigraph


def _k(n: int) -> Graph:
    return make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _edges(g: Graph) -> dict[int, tuple[int, int]]:
    return dict(g.edge_items())


def _multiplicity(g: Graph, a: int, b: int) -> int:
    return sum(1 for _, ends in g.edge_items() if set(ends) == {a, b})


def test_kernelize_deletes_pendant_path():
    g = k4()
    path = g.add_vertices(3)
    for u, v in zip([1] + path, path):
        g.add_edge(u, v)
    h, forced = kernelize(g)
    assert forced == set()
    assert set(h.vertices) == {1, 2, 3, 4}
    assert _edges(h) == _edges(k4())
    assert g.vertex_count == 7  # the input is not mutated


def test_kernelize_bypass_creates_parallel_pair():
    g = k4()
    x = g.add_vertex()
    g.add_edge(1, x)
    g.add_edge(x, 2)
    h, forced = kernelize(g)
    assert forced == set() and set(h.vertices) == {1, 2, 3, 4}
    assert _multiplicity(h, 1, 2) == 2 and h.edge_count == 7


def test_kernelize_forces_self_loop_from_doubled_degree_two_vertex():
    g = _k(5)
    x = g.add_vertex()
    g.add_edge(1, x)
    g.add_edge(x, 1)
    h, forced = kernelize(g)
    assert forced == {1}
    assert set(h.vertices) == {2, 3, 4, 5} and h.edge_count == 6


def test_kernelize_caps_multiplicity_at_two():
    g = k4()
    g.add_edge(1, 2)
    g.add_edge(2, 1)
    h, forced = kernelize(g)
    assert forced == set() and set(h.vertices) == {1, 2, 3, 4}
    assert _multiplicity(h, 1, 2) == 2 and h.edge_count == 7
    # vertex 1's only edges are a triple edge into a K5: capped, it has
    # degree 2 and is bypassed into a forced self-loop on vertex 2
    g = make_graph(6, [(0, 1)] * 3 + [(i, j) for i in range(1, 6)
                                      for j in range(i + 1, 6)])
    h, forced = kernelize(g)
    assert forced == {2} and set(h.vertices) == {3, 4, 5, 6}


def test_kernelize_forest_to_empty():
    g = make_graph(8, [(0, 1), (0, 2), (2, 3), (2, 4), (5, 6)])
    h, forced = kernelize(g)
    assert h.vertex_count == 0 and forced == set()


def test_kernelize_is_idempotent():
    for seed in range(100):
        h, _ = kernelize(random_multigraph(seed))
        again, forced = kernelize(h)
        assert forced == set(), seed
        assert set(again.vertices) == set(h.vertices)
        assert _edges(again) == _edges(h)


def test_kernelize_preserves_minimum_and_greedy_is_fvs():
    for seed in range(300):
        g = random_multigraph(seed)
        h, forced = kernelize(g)
        assert all(h.degree(v) >= 3 for v in h.vertices), seed
        assert all(u != v and _multiplicity(h, u, v) <= 2
                   for _, (u, v) in h.edge_items()), seed
        inner = brute_fvs(h)
        assert len(brute_fvs(g)) == len(forced) + len(inner), seed
        assert is_fvs(g, forced | inner), seed
        assert is_fvs(h, _greedy(h)), seed


def test_fvs_reduction_forest():
    g = make_graph(6, [(0, 1), (1, 2), (3, 4)])
    f_big = {1, 4, 6}
    res = fvs_reduction(g, f_big, 2)
    assert res is not None and len(res) <= 2
    assert is_fvs(g, res)


def test_fvs_reduction_k4():
    g = k4()
    res = fvs_reduction(g, {1, 2, 3}, 2)
    assert res is not None and len(res) == 2 and is_fvs(g, res)


def test_fvs_reduction_validates_input():
    g = k4()
    with pytest.raises(ValueError):
        fvs_reduction(g, {1, 2}, 2)  # wrong size
    with pytest.raises(ValueError):
        fvs_reduction(g, {1, 2, 4}, 1)  # |f_big| != k+1... size 3 vs k+1=2
    with pytest.raises(ValueError):
        fvs_reduction(g, {1}, 0)  # not an FVS


def test_fvs_reduction_intersection_is_kept_subset():
    g = k4()
    res = fvs_reduction(g, {1, 2, 3}, 2)
    kept = res & {1, 2, 3}
    assert is_forest(g, {1, 2, 3} - kept)
    assert len(res - {1, 2, 3}) <= 2 - len(kept) + 0  # budget split honored


def test_fvs_reduction_matches_oracle_decision():
    for seed in range(300):
        g = random_multigraph(seed, n_max=11, m_max=20)
        best = brute_fvs(g)
        k = len(best)
        # inflate the optimum to size k+1 with arbitrary extra vertices
        extra = sorted(v for v in g.vertices if v not in best)
        f_big = set(best) | set(extra[:1])
        if len(f_big) != k + 1:
            continue
        res = fvs_reduction(g, f_big, k)
        assert res is not None and len(res) <= k and is_fvs(g, res)
        if k > 0:
            smaller = set(best) if len(best) == k else None
            if smaller is not None:
                # compressing below the optimum must fail
                assert fvs_reduction(g, smaller, k - 1) is None


def test_solve_decision_forest():
    g = make_graph(5, [(0, 1), (1, 2), (3, 4)])
    assert solve_fvs_decision(g, 0) == set()


def test_solve_decision_c5():
    g = cycle_graph(5)
    res = solve_fvs_decision(g, 1)
    assert res is not None and len(res) == 1
    assert solve_fvs_decision(g, 0) is None


def test_solve_decision_petersen():
    g = petersen()
    res = solve_fvs_decision(g, 3)
    assert res is not None and len(res) == 3 and is_fvs(g, res)
    assert solve_fvs_decision(g, 2) is None


def test_solve_decision_keeps_forced_vertices_when_greedy_overshoots():
    # two double-edged triangles sharing vertex 5: greedy takes 5 first and
    # needs 3 vertices, the optimum {1, 3} needs 2; vertex 6 is forced
    g = make_graph(6, [(0, 1), (0, 1), (0, 4), (1, 4), (2, 3), (2, 3), (2, 4),
                       (3, 4), (5, 5)])
    h, forced = kernelize(g)
    assert forced == {6} and len(_greedy(h)) == 3 and len(brute_fvs(h)) == 2
    res = solve_fvs_decision(g, 3)
    assert res is not None and 6 in res and len(res) == 3 and is_fvs(g, res)
    assert solve_fvs_decision(g, 2) is None


def test_solve_decision_rejects_negative_budget():
    with pytest.raises(ValueError):
        solve_fvs_decision(cycle_graph(3), -1)


def test_solve_decision_generous_budget():
    g = cycle_graph(4)
    res = solve_fvs_decision(g, 10)
    assert res is not None and is_fvs(g, res)


def test_solve_min_examples():
    assert solve_fvs_min(make_graph(3, [(0, 1), (1, 2)])) == set()
    assert len(solve_fvs_min(k4())) == 2
    g = Graph()
    assert solve_fvs_min(g) == set()


def test_solve_min_matches_oracle():
    for seed in range(120):
        g = random_multigraph(seed)
        mine = solve_fvs_min(g)
        assert is_fvs(g, mine)
        assert len(mine) == len(brute_fvs(g)), seed


def test_solve_min_handles_self_loops():
    g = make_graph(3, [(0, 1), (1, 2)])
    g.add_edge(2, 2)
    res = solve_fvs_min(g)
    assert res == {2}


def test_prefix_monotonicity_spot_check():
    # a rejected budget on the full graph is also rejected on supergraphs
    for seed in (3, 7, 11):
        g = gen_random(9, 16, seed)
        best = brute_fvs(g)
        if len(best) == 0:
            continue
        k = len(best) - 1
        assert solve_fvs_decision(g, k) is None
        sub = g.induced_subgraph(sorted(g.vertices)[:7])
        sub_best = brute_fvs(sub)
        assert len(sub_best) <= len(best)


def test_stats_shared_across_reduction_calls():
    g = petersen()
    res = solve_fvs_decision(g, 3)
    assert res is not None
    # the greedy set answers k = 3 without a search; k = 2 must search
    stats = SearchStats()
    assert solve_fvs_decision(g, 2, stats) is None
    first = stats.leaves
    assert first > 0
    assert solve_fvs_decision(g, 2, stats) is None
    assert stats.leaves > first
