import pytest

from fvskit.generators import gen_planted, gen_random
from fvskit.graph import is_fvs
from fvskit.oracle import brute_fvs


def _edge_list(g):
    return sorted(tuple(sorted(g.endpoints(e))) for e in g.edge_ids)


def test_gen_random_deterministic():
    a = gen_random(10, 15, seed=42)
    b = gen_random(10, 15, seed=42)
    assert _edge_list(a) == _edge_list(b)
    c = gen_random(10, 15, seed=43)
    assert _edge_list(a) != _edge_list(c)


def test_gen_random_simple_limit():
    with pytest.raises(ValueError):
        gen_random(5, 11, seed=0)  # max 10 edges on 5 vertices
    g = gen_random(5, 10, seed=0)
    assert g.edge_count == 10
    assert len(set(_edge_list(g))) == 10


def test_gen_random_rejects_negative_sizes():
    for simple in (True, False):
        with pytest.raises(ValueError):
            gen_random(-2, 0, seed=0, simple=simple)
        with pytest.raises(ValueError):
            gen_random(3, -1, seed=0, simple=simple)


def test_gen_random_multigraph_mode():
    g = gen_random(4, 30, seed=1, simple=False)
    edges = _edge_list(g)
    assert len(edges) == 30
    assert len(set(edges)) < 30  # parallels must occur at this density
    assert all(u != v for u, v in edges)


def test_gen_planted_deterministic():
    a, wa = gen_planted(30, 4, seed=9)
    b, wb = gen_planted(30, 4, seed=9)
    assert _edge_list(a) == _edge_list(b) and wa == wb


def test_gen_planted_witness_is_fvs():
    for seed in range(10):
        g, witness = gen_planted(40, 5, seed)
        assert len(witness) == 5
        assert is_fvs(g, witness)
    for seed in range(10):
        g, witness = gen_planted(20, 3, seed)
        assert is_fvs(g, witness)


def test_gen_planted_small_instances_respect_bound():
    for seed in range(15):
        g, witness = gen_planted(12, 3, seed)
        assert is_fvs(g, witness)
        assert len(brute_fvs(g)) <= 3


def test_gen_planted_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gen_planted(3, 2, seed=0)  # only one forest vertex
    with pytest.raises(ValueError):
        gen_planted(5, 6, seed=0)
