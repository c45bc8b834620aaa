"""Benchmark command: time to an exact answer on one workload.

    python3 perfbench/run.py --workload planted_min --seed 1 --seconds 25 \
        --trace 0

Runs the workload in its own single-threaded process (workload.py), plus
set-up-only processes for more set-up samples, then checks every answer of
every pass with check.py and prints one JSON line: `correct`, `attempted`
and `failed` queries, and the end-to-end metrics (--trace 0) or the
per-layer metrics named in BENCHMARK.json (--trace 1).  Inputs, answers and
the traced figures are kept under .perfbench_out/<workload>-<seed>/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402

SETUP_SAMPLES = 9  # the workload process and eight set-up-only processes
CHILD_TIMEOUT_S = 170
# corpus_s and setup_s are given at the machine speed at which the
# calibration unit takes this long; between queries it took 1.0-1.5 ms on
# the machine of README.md's figures.
CALIBRATION_S = 0.0015
# Calibration samples on each side of a query that scale its time.
WINDOW = 8


def child(args: list[str]) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(HERE / "workload.py"), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def setup_seconds(sample: dict) -> float:
    """Set-up time scaled, as corpus_s is, to the machine speed at which
    the calibration unit takes CALIBRATION_S."""
    return (sample["setup_s"] * CALIBRATION_S
            / statistics.median(sample["calibration"]))


def setup_only(common: list[str]) -> dict:
    return child([*common, "--setup-only"])


def check_passes(result: dict, out: Path) -> list[str]:
    """Check every answer of every pass; returns one reason per failed
    query, that is per wrong answer or exception."""
    from check import check_answer, read_gr
    graphs = {q["file"]: read_gr((out / q["file"]).read_text())
              for q in result["queries"]}
    reasons = []
    for number, p in enumerate(result["passes"]):
        for q, ans in zip(result["queries"], p["answers"], strict=True):
            if isinstance(ans, dict):
                why = ans["error"]
            else:
                why = check_answer(graphs[q["file"]], q["k"], q["expect"], ans)
            if why is not None:
                reasons.append(f"pass {number} {q['name']}: {why}")
    return reasons


def verdict(result: dict, out: Path) -> dict:
    """`correct`, `attempted` and `failed` for the run's answers; a run with
    any failed query is not correct, so a solver that raises cannot pass
    for a fast one."""
    reasons = check_passes(result, out)
    for reason in reasons:
        print(reason, file=sys.stderr)
    return {"correct": not reasons,
            "attempted": len(result["queries"]) * len(result["passes"]),
            "failed": len(reasons)}


def corpus_seconds(passes: list[dict]) -> float:
    """Each query's median time over the run's passes, summed over the
    queries.  Each time is first scaled to the machine speed at which the
    calibration unit takes CALIBRATION_S, by the unit's median over the
    WINDOW queries before and after it in run order.  The machine's speed
    swings by tens of per cent over seconds to minutes; the unit, timed
    after every query, meets the same swings as the queries around it."""
    width = len(passes[0]["times"])
    units = [t for p in passes for t in p["calibration"]]
    times = [t for p in passes for t in p["times"]]
    scaled = [t * CALIBRATION_S / statistics.median(
        units[max(0, i - WINDOW):i + WINDOW + 1]) for i, t in enumerate(times)]
    return sum(statistics.median(scaled[q::width]) for q in range(width))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fvskit" / "__init__.py").is_file():
        sys.exit(f"no fvskit sources under {ROOT / 'src'}")

    out = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--out", str(out)]
    # Set-up samples before and after the workload process, so that they
    # span the run rather than one moment of a noisy machine.
    setups = [setup_only(common) for _ in range(SETUP_SAMPLES // 2)]
    result = child([*common, "--trace"] if args.trace else common)
    setups.append(result["setup"])
    setups += [setup_only(common) for _ in range(SETUP_SAMPLES - len(setups))]

    passes = result["passes"]
    if args.trace:
        units = {m["name"]: m["unit"] for m in json.loads(
            (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        # Counts repeat exactly from pass to pass; times take the median.
        figures = dict(passes[0]["layers"])
        for name in figures:
            if units.get(name) == "s":
                figures[name] = statistics.median(p["layers"][name]
                                                  for p in passes)
        figures["generators.gen_s"] = result["gen_s"]
        metrics = {name: metric(figures[name], unit)
                   for name, unit in units.items()}
    else:
        metrics = {
            "corpus_s": metric(corpus_seconds(passes), "s"),
            "setup_s": metric(statistics.median(map(setup_seconds, setups)),
                              "s"),
            "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
        }
    (out / ("trace.json" if args.trace else "times.json")).write_text(
        json.dumps({"metrics": metrics, "setups": setups, "passes": [
            {k: v for k, v in p.items() if k != "answers"} for p in passes]},
            indent=1) + "\n")
    print(json.dumps({**verdict(result, out), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
