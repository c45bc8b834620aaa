"""Seeded corpora for the four benchmark workloads.

Every instance is an edge list on vertices 1..n plus an optional protected
side; it reaches the solver only as `.gr` text.  `planted_min` and `spider`
draw a fixed base set of instances from the reference file (their optima are
proven there by an ILP), and the run seed relabels vertices and reorders edge
lines (for `spider`, of the NO queries).  `planted_slack` and `nice3` draw
fresh instances from the run seed, since their expected answers follow from
the construction.

Only the planted generators come from fvskit; the spider and all-nice
generators are the benchmark's own, so this module imports fvskit lazily.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

WORKLOADS = ("planted_min", "planted_slack", "spider", "nice3")

PLANTED_MIN = dict(n=80, fvs_size=7, count=28)
# (n, planted witness size) per query; the witness size is the budget.
PLANTED_SLACK = ((300, 8),) * 24
SPIDER = dict(trees=20, centers=10, count=14)
# (connector vertices, planted set size) per instance.
NICE3 = ((20, 20),) * 10


@dataclass
class Instance:
    n: int
    edges: list[tuple[int, int]]
    protected: set[int] = field(default_factory=set)

    def digest(self) -> str:
        """Label-sensitive fingerprint, tying a reference answer to the
        exact instance it was computed on."""
        lines = sorted(f"{min(e)} {max(e)}" for e in self.edges)
        lines += [f"s {v}" for v in sorted(self.protected)]
        text = f"{self.n}\n" + "\n".join(lines)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Query:
    name: str
    kind: str        # "min", "decision" or "disjoint"
    k: int | None    # budget; None for "min"
    text: str        # the .gr input
    expect: dict     # what the checker demands of the answer


def planted_base(corpus_seed: int, index: int) -> Instance:
    from fvskit.generators import gen_planted
    p = PLANTED_MIN
    g, _ = gen_planted(p["n"], p["fvs_size"], 1000 * corpus_seed + index)
    return _from_graph(g)


def spider_base(corpus_seed: int, index: int) -> Instance:
    """Protected random trees; spider centers adjacent only to their legs;
    every leg wired into two distinct protected trees.  The reduced form
    branches on side-one trees (steps 7-9) and ends in degree-3 leaves."""
    rng = random.Random(f"perfbench-spider:{corpus_seed}:{index}")
    inst = Instance(0, [])
    trees = []
    for _ in range(SPIDER["trees"]):
        vs = _new_vertices(inst, rng.randint(1, 3))
        for i in range(1, len(vs)):
            inst.edges.append((vs[rng.randrange(i)], vs[i]))
        trees.append(vs)
        inst.protected.update(vs)
    for _ in range(SPIDER["centers"]):
        (center,) = _new_vertices(inst, 1)
        for _ in range(rng.randint(3, 4)):
            (leg,) = _new_vertices(inst, 1)
            inst.edges.append((center, leg))
            for t in rng.sample(range(len(trees)), 2):
                inst.edges.append((leg, rng.choice(trees[t])))
    return inst


def nice3_instance(connectors: int, planted: int, rng: random.Random
                   ) -> Instance:
    """All-nice instance with optimum `planted` by construction.

    2c+1 protected trees are joined into one tree by c side-one connectors
    (each adjacent to one already-joined tree and two new ones); each of the
    `planted` extra side-one vertices is wired into three distinct trees.
    The graph minus the planted set is a tree, so its cycle rank is
    2*planted, and deleting a degree-3 vertex lowers it by at most 2.
    """
    inst = Instance(0, [])
    trees = []
    for _ in range(2 * connectors + 1):
        vs = _new_vertices(inst, rng.randint(1, 3))
        for i in range(1, len(vs)):
            inst.edges.append((vs[rng.randrange(i)], vs[i]))
        trees.append(vs)
        inst.protected.update(vs)
    order = list(range(1, len(trees)))
    rng.shuffle(order)
    joined = [0]
    for c in range(connectors):
        picks = (rng.choice(joined), order[2 * c], order[2 * c + 1])
        joined += picks[1:]
        (v,) = _new_vertices(inst, 1)
        inst.edges += [(v, rng.choice(trees[t])) for t in picks]
    for _ in range(planted):
        (v,) = _new_vertices(inst, 1)
        inst.edges += [(v, rng.choice(trees[t]))
                       for t in rng.sample(range(len(trees)), 3)]
    return inst


@dataclass
class Item:
    """One generated instance and the queries asked of it."""

    inst: Instance
    relabel: random.Random | None
    # (name, kind, k, expect) per query.
    queries: list[tuple[str, str, int | None, dict]]


def generate(workload: str, seed: int, reference: dict) -> list[Item]:
    """The workload's instances for one run seed, in a fixed order."""
    corpus_seed = reference["corpus_seed"]
    if workload == "planted_min":
        return [Item(_checked(planted_base(corpus_seed, ref["index"]), ref),
                     _relabel_rng(workload, seed, ref["index"]),
                     [(f"planted{ref['index']}", "min", None,
                       {"size": ref["opt"]})])
                for ref in reference["planted_min"]]
    if workload == "planted_slack":
        from fvskit.generators import gen_planted
        items = []
        for i, (n, f) in enumerate(PLANTED_SLACK):
            g, _ = gen_planted(n, f, 1000 * seed + i)
            # Kept in generated order: the prefix loop meets the planted
            # witness last, so the decision succeeds without branching.
            items.append(Item(_from_graph(g), None,
                              [(f"slack{i}-n{n}", "decision", f,
                                {"max_size": f})]))
        return items
    if workload == "spider":
        items = []
        for ref in reference["spider"]:
            i, opt = ref["index"], ref["opt"]
            inst = _checked(spider_base(corpus_seed, i), ref)
            # A YES search stops at its first witness, so its time swings a
            # hundredfold with the labels; it keeps one labeling per corpus.
            # A NO search explores the whole tree, and the run seed
            # relabels it twice.
            items.append(Item(inst, _relabel_rng("spider-yes", corpus_seed, i),
                              [(f"spider{i}-yes", "disjoint", opt,
                                {"size": opt})]))
            items += [Item(inst, _relabel_rng(workload, seed, f"{i}{copy}"),
                           [(f"spider{i}{copy}-no", "disjoint", opt - 1,
                             {"no": True})])
                      for copy in "ab"]
        return items
    if workload == "nice3":
        items = []
        for i, (c, s) in enumerate(NICE3):
            rng = random.Random(f"perfbench-nice3:{seed}:{i}")
            rank = {"cycle_rank": 2 * s}
            items.append(Item(nice3_instance(c, s, rng), rng,
                              [(f"nice{i}-yes", "disjoint", s,
                                {"size": s, **rank}),
                               (f"nice{i}-no", "disjoint", s - 1,
                                {"no": True, **rank})]))
        return items
    raise ValueError(f"unknown workload {workload!r}")


def serialize(items: list[Item]) -> list[Query]:
    out = []
    for item in items:
        text = to_gr(item.inst, item.relabel)
        out += [Query(name, kind, k, text, expect)
                for name, kind, k, expect in item.queries]
    return out


def to_gr(inst: Instance, rng: random.Random | None) -> str:
    """Render `.gr` text; with an rng, vertex labels and edge-line order are
    shuffled (the optimum is unchanged, the solver's visiting order is not).
    """
    label = list(range(inst.n + 1))
    edges = list(inst.edges)
    if rng is not None:
        tail = label[1:]
        rng.shuffle(tail)
        label[1:] = tail
        rng.shuffle(edges)
    lines = [f"p fvs {inst.n} {len(edges)}"]
    lines += [f"{label[u]} {label[v]}" for u, v in edges]
    lines += [f"s {label[v]}" for v in sorted(inst.protected)]
    return "\n".join(lines) + "\n"


def _relabel_rng(workload: str, seed: int, key) -> random.Random:
    return random.Random(f"perfbench-relabel:{workload}:{seed}:{key}")


def _checked(inst: Instance, ref: dict) -> Instance:
    if inst.digest() != ref["digest"]:
        raise RuntimeError(
            f"instance {ref['index']} no longer matches its reference answer; "
            "rerun perfbench/reference.py")
    return inst


def _from_graph(g) -> Instance:
    order = sorted(g.vertices)
    rank = {v: i for i, v in enumerate(order, start=1)}
    return Instance(len(order), [(rank[u], rank[v]) for _, (u, v)
                                 in sorted(g.edge_items())])


def _new_vertices(inst: Instance, count: int) -> list[int]:
    start = inst.n + 1
    inst.n += count
    return list(range(start, inst.n + 1))
