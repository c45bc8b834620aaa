"""Tests of the benchmark's answer checker and of the corpus invariants it
relies on.  Run with `python3 -m pytest perfbench`."""

import random

import pytest

import corpus
from check import GrGraph, check_answer, read_gr
from run import CALIBRATION_S, corpus_seconds, verdict

TRIANGLE_TAIL = GrGraph(4, [(1, 2), (2, 3), (3, 1), (3, 4)], set())


def test_accepts_a_minimum_witness():
    assert check_answer(TRIANGLE_TAIL, None, {"size": 1}, [2]) is None


def test_rejects_a_witness_that_leaves_a_cycle():
    why = check_answer(TRIANGLE_TAIL, None, {"size": 1}, [4])
    assert "cycle" in why


def test_rejects_a_witness_that_leaves_a_parallel_pair():
    g = GrGraph(3, [(1, 2), (1, 2), (2, 3)], set())
    assert "cycle" in check_answer(g, None, {"size": 1}, [3])
    assert check_answer(g, None, {"size": 1}, [1]) is None


def test_rejects_a_protected_vertex():
    g = GrGraph(3, [(1, 2), (2, 3), (3, 1)], {1})
    assert "protected" in check_answer(g, 1, {"size": 1}, [1])
    assert check_answer(g, 1, {"size": 1}, [2]) is None


def test_rejects_a_size_that_differs_from_the_reference():
    why = check_answer(TRIANGLE_TAIL, None, {"size": 1}, [1, 2])
    assert "reference" in why


def test_rejects_budget_overruns_and_wrong_verdicts():
    assert "budget" in check_answer(TRIANGLE_TAIL, 0, {"max_size": 1}, [1])
    assert "expected NO" in check_answer(TRIANGLE_TAIL, 1, {"no": True}, [1])
    assert "expected YES" in check_answer(TRIANGLE_TAIL, 1, {"size": 1}, None)


@pytest.mark.parametrize("seed", range(3))
def test_nice3_cycle_rank_pins_the_optimum(seed):
    rng = random.Random(seed)
    inst = corpus.nice3_instance(6, 5, rng)
    g = read_gr(corpus.to_gr(inst, rng))
    expect = {"cycle_rank": 10}
    assert check_answer(g, 4, {"no": True, **expect}, None) is None
    # A budget the cycle rank does not rule out cannot certify a NO.
    assert "rule out" in check_answer(g, 5, {"no": True, **expect}, None)
    assert "cycle rank" in check_answer(g, 4, {"no": True,
                                               "cycle_rank": 12}, None)


def test_relabeling_keeps_the_instance():
    inst = corpus.spider_base(0, 0)
    g = read_gr(corpus.to_gr(inst, random.Random(1)))
    assert (g.n, len(g.edges), len(g.protected)) == (
        inst.n, len(inst.edges), len(inst.protected))
    assert corpus.to_gr(inst, random.Random(1)) == corpus.to_gr(
        inst, random.Random(1))


def one_query_run(tmp_path, answers):
    """A run's result over the triangle-with-tail, one pass per answer."""
    (tmp_path / "q.gr").write_text("p fvs 4 4\n1 2\n2 3\n3 1\n3 4\n")
    return {"queries": [{"name": "q", "kind": "min", "k": None,
                         "expect": {"size": 1}, "file": "q.gr"}],
            "passes": [{"times": [1.0], "answers": [a]} for a in answers]}


@pytest.mark.parametrize("answers, correct, failed", [
    ([[1], [2]], True, 0),
    ([[2], {"error": "Traceback ..."}], False, 1),  # the solver raised
    ([[4], [2]], False, 1),                         # a cycle is left
])
def test_any_failed_query_makes_the_run_incorrect(tmp_path, answers,
                                                   correct, failed):
    result = one_query_run(tmp_path, answers)
    assert verdict(result, tmp_path) == {
        "correct": correct, "attempted": len(answers), "failed": failed}


def test_corpus_seconds_sums_medians_at_the_calibration_speed():
    passes = [{"times": [1.0, 4.0], "calibration": [CALIBRATION_S] * 2},
              {"times": [3.0, 2.0], "calibration": [CALIBRATION_S] * 2},
              {"times": [2.0, 3.0], "calibration": [CALIBRATION_S] * 2}]
    assert corpus_seconds(passes) == pytest.approx(2.0 + 3.0)
    # On a machine half as fast, the same times stand for half the work.
    for p in passes:
        p["calibration"] = [2 * CALIBRATION_S] * 2
    assert corpus_seconds(passes) == pytest.approx(2.5)
