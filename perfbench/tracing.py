"""Per-layer tracing from outside the program.

The tracer rebinds fvskit's public functions in the modules that call them
(and two `Graph` methods plus `DisjointInstance.check` on their classes) to
timing wrappers, and puts the originals back afterwards.  Solver layers
(compression, branching, the degree-3 leaf and its parity call) form a
stack: a layer's self time is the time during which it is the innermost
active layer.  Probes (parsing, validation, graph copies and forest tests)
only add up their inclusive time and call count.

The tracer's own cost is not taken from a traced pass minus an untraced
one: on a machine whose speed drifts by tens of per cent, that difference
is noise.  Instead, each wrapper kind is timed on a no-op function when the
tracer is made, and a pass's overhead is its wrapped calls times that cost.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, layer or probe, call counter, counter of non-None
# results).  A name imported with `from .x import f` is rebound in the
# importing module, since that binding is the one its callers look up.
_LAYERS = (
    ("compression", "solve_fvs_min", "compression", "compression.mins",
     None),
    ("compression", "solve_fvs_decision", "compression",
     "compression.decisions", None),
    ("compression", "fvs_reduction", "compression",
     "compression.compressions", None),
    ("compression", "feedback", "branching", "branching.calls",
     "compression.splits_yes"),
    ("branching", "feedback", "branching", "branching.calls", None),
    ("branching", "solve_regular3", "regular3", "regular3.calls",
     "regular3.yes"),
    ("regular3", "matroid_parity", "parity", "regular3.parity_calls", None),
)
_PROBES = (
    ("fileio", "parse_graph", "fileio.parse", None),
    ("graph.Graph", "copy", "graph.copy", None),
    ("graph.Graph", "induced_subgraph", "graph.induced", None),
    ("reductions.DisjointInstance", "check", "reductions.check", None),
    # fvs_reduction tests each split's protected part with is_forest.
    ("compression", "is_forest", "graph.forest", "compression.splits"),
    ("compression", "is_fvs", "graph.forest", None),
    ("branching", "is_forest", "graph.forest", None),
    ("reductions", "is_forest", "graph.forest", None),
    ("regular3", "is_forest", "graph.forest", None),
)


class Tracer:
    """Installs timing wrappers on an imported fvskit; one pass at a time."""

    def __init__(self, fvskit) -> None:
        self._fvskit = fvskit
        self._saved: list[tuple[object, str, object]] = []
        self._layer_cost, self._probe_cost = self._wrapper_costs()

    def _clear(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.probe_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._stack: list[str] = []
        self._mark = 0.0

    def _wrapper_costs(self, calls: int = 20000, repeats: int = 7
                       ) -> tuple[float, float]:
        """Seconds a layer wrapper and a probe wrapper add to one call: the
        fastest of `repeats` loops over a wrapped no-op, minus the fastest
        loop over the bare no-op."""
        def noop():
            return None
        self._clear()
        fns = (noop, self._layer("calibration", "calibration", None)(noop),
               self._probe("calibration", None)(noop))
        best = [float("inf")] * len(fns)
        for _ in range(repeats):
            for i, fn in enumerate(fns):
                start = perf_counter()
                for _ in range(calls):
                    fn()
                best[i] = min(best[i], (perf_counter() - start) / calls)
        return best[1] - best[0], best[2] - best[0]

    def __enter__(self) -> "Tracer":
        """Start a pass: clear the figures and install the wrappers."""
        self._clear()
        for path, attr, layer, count, yes in _LAYERS:
            self._rebind(path, attr, self._layer(layer, count, yes))
        for path, attr, probe, count in _PROBES:
            self._rebind(path, attr, self._probe(probe, count))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _rebind(self, path: str, attr: str, make) -> None:
        owner = self._fvskit
        for name in path.split("."):
            owner = getattr(owner, name, None)
        original = getattr(owner, attr, None)
        if original is None:
            # After a refactor that moves this name, its figures read 0
            # until the lists above follow it.
            print(f"tracing: fvskit.{path}.{attr} not found", file=sys.stderr)
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _layer(self, layer: str, count: str, yes: str | None):
        def make(fn):
            def traced(*args, **kwargs):
                now = perf_counter()
                if self._stack:
                    self.self_s[self._stack[-1]] += now - self._mark
                self._stack.append(layer)
                self._mark = now
                try:
                    result = fn(*args, **kwargs)
                finally:
                    now = perf_counter()
                    self.self_s[self._stack.pop()] += now - self._mark
                    self._mark = now
                self.counts[count] += 1
                if yes and result is not None:
                    self.counts[yes] += 1
                return result
            return traced
        return make

    def _probe(self, probe: str, count: str | None):
        def make(fn):
            def traced(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.probe_s[probe] += perf_counter() - start
                    self.counts[probe] += 1
                    if count:
                        self.counts[count] += 1
            return traced
        return make

    def pass_metrics(self, stats) -> dict[str, float]:
        """This pass's per-layer figures; `stats` is the pass's SearchStats."""
        c, s, p = self.counts, self.self_s, self.probe_s
        splits = c["compression.splits"]
        calls = c["regular3.calls"]
        layer_calls = sum(c[key] for key in {entry[3] for entry in _LAYERS})
        probe_calls = sum(c[key] for key in {entry[2] for entry in _PROBES})
        return {
            "fileio.parse_s": p["fileio.parse"],
            "compression.decisions": c["compression.decisions"],
            "compression.compressions": c["compression.compressions"],
            "compression.splits": splits,
            "compression.split_yield":
                c["compression.splits_yes"] / splits if splits else 0.0,
            "compression.self_s": s["compression"],
            "branching.calls": c["branching.calls"],
            "branching.self_s": s["branching"],
            "branching.branch_nodes": stats.branch_nodes,
            "branching.leaves": stats.leaves,
            "branching.max_depth": stats.max_depth,
            "branching.forced": stats.forced_count,
            "reductions.checks": c["reductions.check"],
            "reductions.check_s": p["reductions.check"],
            "graph.copies": c["graph.copy"],
            "graph.copy_s": p["graph.copy"],
            "graph.induced": c["graph.induced"],
            "graph.induced_s": p["graph.induced"],
            "graph.forest_checks": c["graph.forest"],
            "graph.forest_s": p["graph.forest"],
            "regular3.calls": calls,
            "regular3.yield": c["regular3.yes"] / calls if calls else 0.0,
            "regular3.self_s": s["regular3"],
            "regular3.parity_calls": c["regular3.parity_calls"],
            "regular3.parity_s": s["parity"],
            "trace.overhead_s": layer_calls * self._layer_cost
            + probe_calls * self._probe_cost,
        }
