"""Acceptance suite: oracle equivalence, combinatorial identities, search
instrumentation bounds, and the desk-scale performance smoke test.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import math
import time

from fvskit.branching import SearchStats, feedback
from fvskit.cli import cli
from fvskit.compression import fvs_reduction, solve_fvs_min
from fvskit.fileio import parse_solution, serialize_graph
from fvskit.generators import gen_planted
from fvskit.graph import betti, components, connected_without, is_fvs
from fvskit.oracle import brute_disjoint, brute_fvs, brute_mu, brute_parity
from fvskit.reductions import DisjointInstance, ReductionState
from fvskit.regular3 import matroid_parity, parity_pairs, solve_regular3

from conftest import (cycle_graph, k4, make_graph, petersen,
                      random_disjoint_instance, random_multigraph,
                      random_regular3_instance)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def _leaf_cap(twice_m0: int) -> int:
    return 2 ** max(0, math.ceil(twice_m0 / 2))


def test_criterion_1_full_solver_oracle_equivalence():
    t0 = time.time()
    bad = []
    for seed in range(500):
        g = random_multigraph(seed, n_max=12, m_max=24)
        mine = solve_fvs_min(g)
        if not is_fvs(g, mine) or len(mine) != len(brute_fvs(g)):
            bad.append(seed)
    elapsed = time.time() - t0
    _report(1, not bad, f"500 random graphs, {len(bad)} mismatches, "
                        f"{elapsed:.1f}s")
    assert not bad


def test_criterion_2_disjoint_solver_oracle_equivalence():
    t0 = time.time()
    bad = []
    runs = 0
    for seed in range(500):
        g, v1, v2 = random_disjoint_instance(seed)
        best = brute_disjoint(
            DisjointInstance(g.copy(), set(v1), set(v2), len(v1)))
        best_size = len(best) if best is not None else None
        for k in range(len(v1) + 1):
            inst = DisjointInstance(g.copy(), set(v1), set(v2), k)
            res = feedback(inst)
            runs += 1
            expect = best_size is not None and best_size <= k
            if (res is not None) != expect:
                bad.append((seed, k))
            elif res is not None and not (res <= v1 and len(res) <= k
                                          and is_fvs(g, res)):
                bad.append((seed, k))
    elapsed = time.time() - t0
    _report(2, not bad, f"500 instances / {runs} budget sweeps, "
                        f"{len(bad)} mismatches, {elapsed:.1f}s")
    assert not bad


def test_criterion_3_regular3_identity():
    t0 = time.time()
    bad = []
    for seed in range(200):
        inst = random_regular3_instance(seed, n_max=14)
        res = solve_regular3(
            DisjointInstance(inst.g.copy(), inst.v1, inst.v2, inst.k))
        mu = brute_mu(inst)
        best = brute_disjoint(
            DisjointInstance(inst.g.copy(), set(inst.v1), set(inst.v2),
                             len(inst.v1)))
        ok = (res is not None and best is not None
              and len(res) == betti(inst.g) - mu == len(best)
              and is_fvs(inst.g, res) and res <= inst.v1)
        if not ok:
            bad.append(seed)
    elapsed = time.time() - t0
    _report(3, not bad, f"200 degree-3 instances, {len(bad)} identity "
                        f"violations, {elapsed:.1f}s")
    assert not bad


def test_criterion_4_parity_backend_equivalence():
    t0 = time.time()
    bad = []
    collected = 0
    seed = 0
    while collected < 100:
        inst = random_regular3_instance(seed, v1_max=2, connected=True)
        seed += 1
        pairs = parity_pairs(inst.g, inst.v1)
        if not 1 <= len(pairs) <= 8:
            continue
        collected += 1
        mine = matroid_parity(inst.g, pairs, seed=seed)
        oracle = brute_parity(inst.g, pairs)
        removed = {e for pair in mine for e in pair}
        feasible = (len(removed) == 2 * len(mine)
                    and connected_without(inst.g, removed))
        if len(mine) != len(oracle) or not feasible:
            bad.append(seed)
    elapsed = time.time() - t0
    _report(4, not bad, f"100 degree-3 graphs (<= 8 pairs), "
                        f"{len(bad)} disagreements, {elapsed:.1f}s")
    assert not bad


def test_criterion_5_measure_discipline():
    t0 = time.time()
    violations = 0
    runs = 0
    for seed in range(500):
        g, v1, v2 = random_disjoint_instance(seed)
        for k in range(len(v1) + 1):
            inst = DisjointInstance(g.copy(), set(v1), set(v2), k)
            runs += 1
            try:
                feedback(inst, audit=True)  # raises on any violation
            except AssertionError:
                violations += 1
    elapsed = time.time() - t0
    _report(5, violations == 0,
            f"{runs} audited runs, {violations} measure violations, "
            f"{elapsed:.1f}s")
    assert violations == 0


def test_criterion_6_leaf_bounds():
    t0 = time.time()
    bad = []
    # per-run bound over the disjoint corpus
    for seed in range(500):
        g, v1, v2 = random_disjoint_instance(seed)
        for k in range(len(v1) + 1):
            inst = DisjointInstance(g.copy(), set(v1), set(v2), k)
            twice_m0 = ReductionState.from_instance(inst).twice_m()
            stats = SearchStats()
            feedback(inst, stats)
            if stats.leaves > _leaf_cap(twice_m0):
                bad.append(("run", seed, k))
    # summed bound over compression calls
    reduction_runs = 0
    for seed in range(60):
        g = random_multigraph(seed, n_max=11, m_max=20)
        best = brute_fvs(g)
        k = len(best)
        extra = sorted(v for v in g.vertices if v not in best)
        cases = []
        if extra:
            cases.append((set(best) | {extra[0]}, k))
        if k >= 1:
            cases.append((set(best), k - 1))  # must exhaust and fail
        for f_big, budget in cases:
            stats = SearchStats()
            fvs_reduction(g, f_big, budget, stats)
            reduction_runs += 1
            cap = sum(
                math.comb(budget + 1, budget - j)
                * 2 ** math.ceil(j + (j + 1) / 2)
                for j in range(budget + 1))
            if stats.leaves > cap:
                bad.append(("reduction", seed, budget))
    elapsed = time.time() - t0
    _report(6, not bad, f"leaf bounds on feedback sweeps and "
                        f"{reduction_runs} compression calls, "
                        f"{len(bad)} violations, {elapsed:.1f}s")
    assert not bad


def test_criterion_7_kernel_bound_soundness():
    t0 = time.time()
    bad = []
    drained_out = bound_out = 0
    for seed in range(500):
        g, v1, v2 = random_disjoint_instance(seed)
        best = brute_disjoint(
            DisjointInstance(g.copy(), set(v1), set(v2), len(v1)))
        best_size = len(best) if best is not None else None
        for k in range(len(v1) + 1):
            oracle_yes = best_size is not None and best_size <= k
            state = ReductionState.from_instance(
                DisjointInstance(g.copy(), set(v1), set(v2), k))
            if not state.drain():
                drained_out += 1
                if oracle_yes:
                    bad.append((seed, k, "drain"))
                continue
            l = components(state.g, state.v2).count
            tau = components(state.g, state.v1).count
            if len(state.v1) > 2 * state.k + l - tau:
                bound_out += 1
                if oracle_yes:
                    bad.append((seed, k, "bound"))
    elapsed = time.time() - t0
    _report(7, not bad and bound_out > 0,
            f"500 instances swept, {drained_out} budget and {bound_out} "
            f"bound rejections, {len(bad)} violations, {elapsed:.1f}s")
    assert not bad
    assert bound_out > 0


def test_criterion_8_performance_smoke(tmp_path):
    import contextlib
    import io

    worst = 0.0
    for seed in range(10):
        g, _ = gen_planted(200, 12, seed)
        path = tmp_path / f"planted{seed}.gr"
        path.write_text(serialize_graph(g))
        buffer = io.StringIO()
        t0 = time.time()
        with contextlib.redirect_stdout(buffer):
            code = cli(["solve", str(path), "--min"])
        elapsed = time.time() - t0
        worst = max(worst, elapsed)
        assert code == 0
        witness = parse_solution(buffer.getvalue())
        assert witness is not None and is_fvs(g, witness)
        assert elapsed < 60.0, f"seed {seed} took {elapsed:.1f}s"
    _report(8, True, f"10 planted n=200 instances solved and verified, "
                     f"worst {worst:.1f}s (limit 60s)")


def test_criterion_9_named_instances(capsys):
    checks = {
        "K4": (k4(), 2),
        "Petersen": (petersen(), 3),
        "C5": (cycle_graph(5), 1),
        "C9": (cycle_graph(9), 1),
        "forest": (make_graph(6, [(0, 1), (1, 2), (3, 4)]), 0),
    }
    bad = []
    for name, (g, expect) in checks.items():
        mine = solve_fvs_min(g)
        oracle = brute_fvs(g)
        if not (len(mine) == len(oracle) == expect and is_fvs(g, mine)):
            bad.append(name)
    _report(9, not bad, f"named instances {sorted(checks)}, "
                        f"{len(bad)} mismatches")
    assert not bad
