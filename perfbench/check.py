"""Answer checker, independent of fvskit: its own `.gr` reader and
networkx for every cycle test."""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx


@dataclass
class GrGraph:
    n: int
    edges: list[tuple[int, int]]
    protected: set[int]

    def multigraph(self) -> nx.MultiGraph:
        g = nx.MultiGraph()
        g.add_nodes_from(range(1, self.n + 1))
        g.add_edges_from(self.edges)
        return g


def read_gr(text: str) -> GrGraph:
    """Minimal reader for the benchmark's own `.gr` output."""
    n = 0
    edges: list[tuple[int, int]] = []
    protected: set[int] = set()
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0] == "c":
            continue
        if fields[0] == "p":
            n = int(fields[2])
        elif fields[0] == "s":
            protected.add(int(fields[1]))
        else:
            edges.append((int(fields[0]), int(fields[1])))
    return GrGraph(n, edges, protected)


def check_answer(graph: GrGraph, k: int | None, expect: dict,
                 answer: list[int] | None) -> str | None:
    """None when `answer` is right for the query, else the reason.

    `expect` holds what the corpus knows about the query: `no` (the answer
    must be NO), `size` (a proven optimum), `max_size` (an upper bound)
    and `cycle_rank` (the instance's cycle rank; with every unprotected
    vertex of degree <= 3 it bounds the optimum from below by half).
    """
    g = graph.multigraph()
    if "cycle_rank" in expect:
        rank = (g.number_of_edges() - g.number_of_nodes()
                + nx.number_connected_components(g))
        if rank != expect["cycle_rank"]:
            return f"cycle rank is {rank}, not {expect['cycle_rank']}"
        if any(g.degree(v) > 3 for v in g if v not in graph.protected):
            return "an unprotected vertex has degree above 3"
        if expect.get("no") and (rank + 1) // 2 <= k:
            return "cycle rank does not rule out a witness within budget"
    if expect.get("no"):
        return None if answer is None else "answered YES, expected NO"
    if answer is None:
        return "answered NO, expected YES"
    witness = set(answer)
    if len(witness) != len(answer):
        return "witness repeats a vertex"
    if not witness <= set(g):
        return "witness names an unknown vertex"
    if witness & graph.protected:
        return "witness uses a protected vertex"
    if k is not None and len(witness) > k:
        return f"witness size {len(witness)} exceeds the budget {k}"
    rest = g.subgraph(v for v in g if v not in witness)
    if rest.number_of_nodes() and not nx.is_forest(rest):
        return "deleting the witness leaves a cycle"
    if "size" in expect and len(witness) != expect["size"]:
        return f"witness size {len(witness)}, reference {expect['size']}"
    if "max_size" in expect and len(witness) > expect["max_size"]:
        return f"witness size {len(witness)} above {expect['max_size']}"
    return None
