"""Reference optima for the `planted_min` and `spider` corpora.

Each optimum comes from an exact ILP solved with scipy's HiGHS backend, an
ordering model of "the kept vertices induce a forest": every kept edge is
oriented, every kept vertex has at most one incoming arc, and continuous
potentials rise by at least one along every arc, so no kept cycle survives.
Any forest satisfies the model (orient each tree away from a root, use
depths as potentials), so its optimum is the minimum number of deleted
unprotected vertices.  networkx then confirms that the optimal deletion
leaves a forest.  fvskit only generates the planted instances; it never
solves them here.

    python3 perfbench/reference.py [--seed N]    # default corpus seed 0

It rewrites perfbench/reference.json.  Only instances whose ILP proved
optimality within TIME_LIMIT_S are kept; the benchmark's corpora are
exactly the instances listed in the file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import networkx as nx
import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_matrix

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402

TIME_LIMIT_S = 120.0  # per instance


def ilp_min_fvs(inst: corpus.Instance) -> tuple[int | None, str]:
    """Minimum number of unprotected vertices whose deletion leaves a
    forest, or (None, reason) when optimality was not proven in time."""
    n, m = inst.n, len(inst.edges)
    # Columns: deleted x_v at v-1, arc u->v of edge e at fwd+e, arc v->u at
    # bwd+e, potential t_v at t+v-1.
    fwd, bwd, t = n, n + m, n + 2 * m
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    lower: list[float] = []
    upper: list[float] = []

    def row(terms, lo, hi):
        for col, val in terms:
            rows.append(len(lower))
            cols.append(col)
            vals.append(val)
        lower.append(lo)
        upper.append(hi)

    incoming: list[list[int]] = [[] for _ in range(n + 1)]
    for e, (u, v) in enumerate(inst.edges):
        # Kept edges (both ends kept) carry exactly one arc.
        row([(fwd + e, 1), (bwd + e, 1), (u - 1, 1), (v - 1, 1)], 1, np.inf)
        row([(fwd + e, 1), (bwd + e, 1)], -np.inf, 1)
        # Potentials rise along arcs: t_v >= t_u + 1 when u->v is used.
        row([(t + v - 1, 1), (t + u - 1, -1), (fwd + e, -n)], 1 - n, np.inf)
        row([(t + u - 1, 1), (t + v - 1, -1), (bwd + e, -n)], 1 - n, np.inf)
        incoming[v].append(fwd + e)
        incoming[u].append(bwd + e)
    for v in range(1, n + 1):
        # At most one parent, none for a deleted vertex.
        row([(col, 1) for col in incoming[v]] + [(v - 1, 1)], -np.inf, 1)

    width = 2 * n + 2 * m
    a = coo_matrix((vals, (rows, cols)), shape=(len(lower), width)).tocsr()
    cost = np.zeros(width)
    cost[:n] = 1
    hi = np.ones(width)
    hi[t:] = n
    for v in inst.protected:
        hi[v - 1] = 0
    integrality = np.ones(width)
    integrality[t:] = 0
    res = milp(cost, integrality=integrality, bounds=Bounds(0, hi),
               constraints=LinearConstraint(a, lower, upper),
               options={"time_limit": TIME_LIMIT_S, "mip_rel_gap": 0})
    if res.status != 0:
        return None, res.message
    deleted = {v for v in range(1, n + 1) if res.x[v - 1] > 0.5}
    g = nx.MultiGraph()
    g.add_nodes_from(v for v in range(1, n + 1) if v not in deleted)
    g.add_edges_from((u, v) for u, v in inst.edges
                     if u not in deleted and v not in deleted)
    if deleted & inst.protected or not nx.is_forest(g):
        raise AssertionError("ILP solution does not leave a forest")
    return len(deleted), "optimal"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="corpus seed of the base instances")
    args = parser.parse_args(argv)

    out: dict = {"corpus_seed": args.seed, "planted_min": [], "spider": [],
                 "dropped": []}
    families = (("planted_min", corpus.planted_base,
                 corpus.PLANTED_MIN["count"]),
                ("spider", corpus.spider_base, corpus.SPIDER["count"]))
    for family, make, count in families:
        for index in range(count):
            inst = make(args.seed, index)
            start = time.perf_counter()
            opt, status = ilp_min_fvs(inst)
            took = round(time.perf_counter() - start, 2)
            print(f"{family} {index}: opt={opt} ({status}, {took} s)",
                  file=sys.stderr, flush=True)
            entry = {"index": index, "digest": inst.digest(), "ilp_s": took}
            if opt is None:
                out["dropped"].append({"workload": family, **entry,
                                       "status": status})
            else:
                out[family].append({**entry, "opt": opt})
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
