"""Command-line interface.

Exit codes: 0 = yes/ok, 1 = no (or failed verification), 2 = usage or
parse errors.  FVSKIT_SEED provides the default seed.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from pathlib import Path

from .branching import SearchStats, feedback
from .compression import solve_fvs_decision, solve_fvs_min
from .fileio import ParseError, parse_graph, parse_solution, serialize_graph, write_solution
from .generators import gen_planted, gen_random
from .graph import Graph, VertexSet, is_fvs
from .reductions import DisjointInstance

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2


def _default_seed() -> int:
    return int(os.environ.get("FVSKIT_SEED", "0"))


def _budget(text: str) -> int:
    k = int(text)
    if k < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return k


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fvskit", description="Exact feedback vertex set solver toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve the FVS problem on a graph file")
    solve.add_argument("file")
    group = solve.add_mutually_exclusive_group(required=True)
    group.add_argument("-k", type=_budget, help="decision budget")
    group.add_argument("--min", action="store_true", help="find a minimum FVS")
    solve.add_argument("--stats", action="store_true")
    solve.add_argument("--seed", type=int, default=None)

    disjoint = sub.add_parser(
        "disjoint", help="solve disjoint-FVS; the file must carry s records")
    disjoint.add_argument("file")
    disjoint.add_argument("-k", type=_budget, required=True)
    disjoint.add_argument("--stats", action="store_true")
    disjoint.add_argument("--seed", type=int, default=None)

    verify = sub.add_parser("verify", help="check a solution file against a graph")
    verify.add_argument("graph")
    verify.add_argument("solution")

    gen = sub.add_parser("gen", help="generate instances")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    gr = gen_sub.add_parser("random")
    gr.add_argument("-n", type=int, required=True)
    gr.add_argument("-m", type=int, required=True)
    gr.add_argument("--multi", action="store_true",
                    help="allow parallel edges")
    gr.add_argument("--seed", type=int, default=None)
    gr.add_argument("-o", "--output")
    gp = gen_sub.add_parser("planted")
    gp.add_argument("-n", type=int, required=True)
    gp.add_argument("-f", "--fvs-size", type=int, required=True)
    gp.add_argument("--seed", type=int, default=None)
    gp.add_argument("-o", "--output")

    bench = sub.add_parser("bench", help="run the solver over a directory of .gr files")
    bench.add_argument("dir")
    bench.add_argument("--csv", required=True)
    bench.add_argument("-k", type=_budget, default=None,
                       help="decision mode (default: minimize)")
    bench.add_argument("--seed", type=int, default=None)
    return parser


def _seed_of(args) -> int:
    return args.seed if args.seed is not None else _default_seed()


def _print_stats(stats: SearchStats) -> None:
    print(f"stats: branch_nodes={stats.branch_nodes} leaves={stats.leaves} "
          f"max_depth={stats.max_depth} forced_count={stats.forced_count}",
          file=sys.stderr)


def _check_witness(g: Graph, result: VertexSet | None, k: int | None = None,
                   v1: VertexSet | None = None) -> None:
    """Refuse to report a witness that is not a feedback vertex set of g,
    or (when given) exceeds k or leaves v1; a NO answer passes."""
    if result is None:
        return
    ok = result <= g.vertices and is_fvs(g, result)
    ok = ok and (k is None or len(result) <= k)
    ok = ok and (v1 is None or result <= v1)
    if not ok:
        raise AssertionError(f"solver returned an invalid witness "
                             f"{sorted(result)}")


def _cmd_solve(args) -> int:
    g, _ = parse_graph(Path(args.file).read_text())
    stats = SearchStats()
    if args.min:
        result: VertexSet | None = solve_fvs_min(g, stats, seed=_seed_of(args))
    else:
        result = solve_fvs_decision(g, args.k, stats, seed=_seed_of(args))
    _check_witness(g, result, args.k)
    sys.stdout.write(write_solution(result))
    if args.stats:
        _print_stats(stats)
    return EXIT_YES if result is not None else EXIT_NO


def _cmd_disjoint(args) -> int:
    g, marks = parse_graph(Path(args.file).read_text())
    if marks is None:
        print("error: disjoint mode needs 's' records in the graph file",
              file=sys.stderr)
        return EXIT_USAGE
    v1 = set(g.vertices) - marks
    try:
        inst = DisjointInstance(g, v1, marks, args.k)
    except ValueError as exc:
        print(f"error: not a valid disjoint instance: {exc}", file=sys.stderr)
        return EXIT_USAGE
    stats = SearchStats()
    result = feedback(inst, stats, seed=_seed_of(args))
    _check_witness(g, result, args.k, v1)
    sys.stdout.write(write_solution(result))
    if args.stats:
        _print_stats(stats)
    return EXIT_YES if result is not None else EXIT_NO


def _find_cycle(g: Graph, removed: VertexSet) -> list[int]:
    """Some cycle in g minus the removed vertices, as a vertex list."""
    seen: set[int] = set()
    for start in sorted(g.vertices):
        if start in removed or start in seen:
            continue
        parent: dict[int, tuple[int, int] | None] = {start: None}
        stack: list[tuple[int, int | None]] = [(start, None)]
        seen.add(start)
        while stack:
            x, via = stack.pop()
            for eid, other in sorted(g.incident(x)):
                if other in removed or eid == via:
                    continue
                if other == x:  # self-loop
                    return [x]
                if other not in parent:
                    parent[other] = (x, eid)
                    seen.add(other)
                    stack.append((other, eid))
                else:
                    # Back edge: climb both endpoints to their meeting point.
                    path_x = [x]
                    node = x
                    while parent[node] is not None:
                        node = parent[node][0]
                        path_x.append(node)
                    path_o = [other]
                    node = other
                    while parent[node] is not None:
                        node = parent[node][0]
                        path_o.append(node)
                    common = set(path_x) & set(path_o)
                    cut_x = next(i for i, v in enumerate(path_x) if v in common)
                    meet = path_x[cut_x]
                    cut_o = path_o.index(meet)
                    return path_x[:cut_x + 1] + path_o[:cut_o][::-1]
    raise AssertionError("no cycle found")


def _cmd_verify(args) -> int:
    g, _ = parse_graph(Path(args.graph).read_text())
    claimed = parse_solution(Path(args.solution).read_text())
    if claimed is None:
        print("OK (NO claim carries no witness)")
        return EXIT_YES
    unknown = {v for v in claimed if not g.has_vertex(v)}
    if unknown:
        print(f"REJECTED: unknown vertices {sorted(unknown)}")
        return EXIT_NO
    if is_fvs(g, claimed):
        print("OK")
        return EXIT_YES
    cycle = _find_cycle(g, claimed)
    print(f"REJECTED: cycle survives removal: {' '.join(map(str, cycle))}")
    return EXIT_NO


def _cmd_gen(args) -> int:
    if args.kind == "random":
        g = gen_random(args.n, args.m, _seed_of(args), simple=not args.multi)
        text = serialize_graph(g)
    else:
        g, witness = gen_planted(args.n, args.fvs_size, _seed_of(args))
        text = serialize_graph(g)
        if witness:
            text = (f"c planted {' '.join(map(str, sorted(witness)))}\n"
                    + text)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_YES


def _cmd_bench(args) -> int:
    directory = Path(args.dir)
    files = sorted(directory.glob("*.gr"))
    if not files:
        print(f"error: no .gr files under {directory}", file=sys.stderr)
        return EXIT_USAGE
    rows = []
    for path in files:
        g, _ = parse_graph(path.read_text())
        stats = SearchStats()
        t0 = time.perf_counter()
        if args.k is None:
            result: VertexSet | None = solve_fvs_min(g, stats, seed=_seed_of(args))
            k = len(result)
        else:
            k = args.k
            result = solve_fvs_decision(g, k, stats, seed=_seed_of(args))
        elapsed_ms = round((time.perf_counter() - t0) * 1000.0, 3)
        _check_witness(g, result, args.k)
        rows.append({
            "instance": path.name,
            "n": g.vertex_count,
            "m": g.edge_count,
            "k": k,
            "answer": "yes" if result is not None else "no",
            "size": len(result) if result is not None else "",
            "branch_nodes": stats.branch_nodes,
            "leaves": stats.leaves,
            "time_ms": elapsed_ms,
        })
    with open(args.csv, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=[
            "instance", "n", "m", "k", "answer", "size",
            "branch_nodes", "leaves", "time_ms"])
        writer.writeheader()
        writer.writerows(rows)
    return EXIT_YES


def cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "disjoint":
            return _cmd_disjoint(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "bench":
            return _cmd_bench(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError(f"unhandled command {args.command}")


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
