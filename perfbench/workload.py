"""One workload in one process: set up, then timed passes over the corpus.

Run by `run.py`, which checks the answers; it prints one JSON object.

    python3 perfbench/workload.py --workload spider --seed 1 --seconds 25 \
        --out .perfbench_out/spider-1 [--trace] [--setup-only]

Set-up is everything before the first query: importing fvskit, generating
the corpus, serializing it to `.gr` text and loading the reference answers.
A pass parses and answers every query once, and times a fixed calibration
unit after each query.  With --trace, every pass is traced and reports
per-layer figures.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_UNITS = 16  # calibration units timed on each side of set-up


_CAL_RNG = random.Random(0)
_CAL_N = 1000
_CAL_EDGES = [(_CAL_RNG.randrange(_CAL_N), _CAL_RNG.randrange(_CAL_N))
              for _ in range(2500)]


def calibration_unit() -> int:
    """Components of one fixed random graph by depth-first search: pure
    Python work of the same kind as the solver's (dicts, sets, lists),
    independent of fvskit.  Timed after every query, it gives the
    machine's speed around that query."""
    adj: dict[int, list[int]] = {}
    for u, v in _CAL_EDGES:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen: set[int] = set()
    count = 0
    for root in range(_CAL_N):
        if root in seen:
            continue
        count += 1
        seen.add(root)
        stack = [root]
        while stack:
            for w in adj.get(stack.pop(), ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


def time_calibration() -> float:
    start = perf_counter()
    calibration_unit()
    return perf_counter() - start


def setup(workload: str, seed: int):
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import fvskit
    if Path(fvskit.__file__).resolve().parent != SRC / "fvskit":
        raise ImportError(f"fvskit imported from {fvskit.__file__}, "
                          f"not from {SRC}")
    import corpus
    reference = json.loads((HERE / "reference.json").read_text())
    gen_start = perf_counter()
    items = corpus.generate(workload, seed, reference)
    gen_s = perf_counter() - gen_start
    queries = corpus.serialize(items)
    return fvskit, queries, perf_counter() - start, gen_s


def answer(fvskit, query, stats):
    g, marks = fvskit.fileio.parse_graph(query.text)
    if query.kind == "min":
        return fvskit.compression.solve_fvs_min(g, stats)
    if query.kind == "decision":
        return fvskit.compression.solve_fvs_decision(g, query.k, stats)
    v2 = marks or set()
    inst = fvskit.reductions.DisjointInstance(g, set(g.vertices) - v2, v2,
                                              query.k)
    return fvskit.branching.feedback(inst, stats)


def run_pass(fvskit, queries):
    """Parse and answer every query once.  Returns each query's seconds and
    answer (a sorted vertex list, None for NO, or {"error": traceback} when
    the solver raised), and the calibration unit's seconds after each."""
    stats = fvskit.branching.SearchStats()
    times: list[float] = []
    answers: list = []
    calibration: list[float] = []
    for query in queries:
        start = perf_counter()
        try:
            result = answer(fvskit, query, stats)
        except Exception:  # a failed query is counted, not fatal
            answers.append({"error": traceback.format_exc(limit=3)})
        else:
            answers.append(None if result is None else sorted(result))
        times.append(perf_counter() - start)
        calibration.append(time_calibration())
    return times, answers, calibration, stats


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # Calibration units just before and after set-up give the machine's
    # speed around it.
    units = [time_calibration() for _ in range(SETUP_UNITS)]
    fvskit, queries, setup_s, gen_s = setup(args.workload, args.seed)
    units += [time_calibration() for _ in range(SETUP_UNITS)]
    setup_sample = {"setup_s": setup_s, "calibration": units}
    if args.setup_only:
        print(json.dumps(setup_sample))
        return 0

    args.out.mkdir(parents=True, exist_ok=True)
    manifest = []
    for i, q in enumerate(queries):
        path = args.out / f"{i:02d}-{q.name}.gr"
        path.write_text(q.text)
        manifest.append({"name": q.name, "kind": q.kind, "k": q.k,
                         "expect": q.expect, "file": path.name})

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(fvskit)
    passes = []
    start = perf_counter()
    while True:
        with tracer or contextlib.nullcontext():
            times, answers, calibration, stats = run_pass(fvskit, queries)
        passes.append({"times": times, "answers": answers,
                       "calibration": calibration})
        if tracer is not None:
            passes[-1]["layers"] = tracer.pass_metrics(stats)
        elapsed = perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"setup": setup_sample, "gen_s": gen_s,
                      "peak_rss_mb": peak_rss_mb, "queries": manifest,
                      "passes": passes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
