"""Measure-guided branch-and-search for the disjoint feedback vertex set
problem.

The search keeps a potential of twice the branching measure, 2k + l - 2p
(budget, protected-forest tree count, count of degree-3 v1 vertices whose
neighbors all lie in the protected side), as an exact integer.  Reduction
steps never increase it, every binary branch decreases it by fixed amounts
in both children, and the search rejects outright once it reaches zero, so
the number of explored leaves is bounded by 2^ceil(m).

Each search node is a `ReductionState`, whose drain applies the safe rules
(steps 4-6); this module selects the branches (steps 7-9).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import ComponentLabeling, VertexSet, components, is_forest
from .reductions import DisjointInstance, MeasureAuditError, ReductionState
from .regular3 import solve_regular3

# Required twice-measure drop per child at each branching step.
_BRANCH_DROPS = {7: (2, 2), 8: (3, 2), 9: (3, 3)}


@dataclass
class SearchStats:
    """Instrumentation counters for one or more searches."""

    branch_nodes: int = 0
    leaves: int = 0
    max_depth: int = 0
    forced_count: int = 0


def _v1_degree(state: ReductionState, v: int) -> int:
    return sum(1 for o in state.g.neighbors(v) if o in state.v1)


def _v2_slots(state: ReductionState, v: int) -> int:
    return sum(1 for o in state.g.neighbors(v) if o in state.v2)


def _find_step7(state: ReductionState) -> int | None:
    for w in sorted(state.v1):
        if w in state.nice or _v1_degree(state, w) > 1:
            continue
        if _v2_slots(state, w) >= 3:
            return w
    return None


def _find_step8(state: ReductionState) -> tuple[int, int] | None:
    for w in sorted(state.v1):
        nbrs = [o for o in state.g.neighbors(w) if o in state.v1]
        if len(nbrs) != 1:
            continue
        y = nbrs[0]
        if any(o in state.v2 for o in state.g.neighbors(y)):
            return w, y
    return None


def _find_step9(state: ReductionState,
                tau: ComponentLabeling) -> tuple[int, int]:
    """Branch pair in the first tree of g[v1] (by labeling order) with at
    least three vertices: a deepest leaf and its parent."""
    best_tree = next((t for t in tau.groups() if len(t) >= 3), None)
    if best_tree is None:
        raise AssertionError("no branchable tree left in g[v1]")
    adj = {v: [o for o in state.g.neighbors(v) if o in state.v1]
           for v in best_tree}
    internal = sorted(v for v in best_tree if len(adj[v]) >= 2)
    root = internal[0]
    depth = {root: 0}
    parent: dict[int, int] = {}
    order = [root]
    for x in order:
        for o in adj[x]:
            if o not in depth:
                depth[o] = depth[x] + 1
                parent[o] = x
                order.append(o)
    leaves = [v for v in best_tree if len(adj[v]) == 1]
    w1 = min(leaves, key=lambda v: (-depth[v], v))
    return parent[w1], w1


def _search(state: ReductionState, stats: SearchStats, depth: int, audit: bool,
            seed: int) -> VertexSet | None:
    while True:
        picked = len(state.picks)
        drained = state.drain(audit)
        stats.forced_count += len(state.picks) - picked
        if not drained:
            stats.leaves += 1
            return None
        if audit:
            state.verify()
        acyclic = is_forest(state.g, set(state.g.vertices))
        if state.k == 0 and not acyclic:
            stats.leaves += 1
            return None
        if acyclic:
            stats.leaves += 1
            return set(state.picks)
        twice = state.twice_m()
        if twice <= 0:
            # Measure at or below zero cannot admit a solution.
            stats.leaves += 1
            return None
        if len(state.nice) == len(state.v1):
            inst = DisjointInstance(state.g, state.v1, state.v2, state.k)
            rest = solve_regular3(inst, seed=seed)
            stats.leaves += 1
            if rest is None:
                return None
            return state.picks | rest
        # Reduced-size rejection: with steps 4-6 exhausted, more than
        # 2k + l - tau vertices on side one is hopeless.
        tau = components(state.g, state.v1)
        if len(state.v1) > 2 * state.k + state.l - tau.count:
            stats.leaves += 1
            return None

        # Branch selection.  `forced` goes into the solution in the first
        # child; `moved` joins the protected side in the second.
        w7 = _find_step7(state)
        if w7 is not None:
            step, forced, moved, also_moved = 7, w7, w7, None
        else:
            if audit:
                for w in state.v1:
                    if w not in state.nice and _v1_degree(state, w) <= 1:
                        if _v2_slots(state, w) != 2:
                            raise MeasureAuditError(
                                "non-nice leaf without exactly two v2 slots")
            found8 = _find_step8(state)
            if found8 is not None:
                w, y = found8
                step, forced, moved, also_moved = 8, y, y, w
            else:
                w, w1 = _find_step9(state, tau)
                step, forced, moved, also_moved = 9, w, w, w1

        stats.branch_nodes += 1
        depth += 1
        stats.max_depth = max(stats.max_depth, depth)
        drop1, drop2 = _BRANCH_DROPS[step]
        child = state.copy()
        child.remove_v1(forced, forced=True)
        if also_moved is not None:
            child.move_to_v2(also_moved)
        stats.forced_count += 1
        if audit and child.twice_m() > twice - drop1:
            raise MeasureAuditError(f"step {step}.1 dropped the measure by "
                                    f"less than {drop1}/2")
        result = _search(child, stats, depth, audit, seed)
        if result is not None:
            return result
        state.move_to_v2(moved)
        if audit and state.twice_m() > twice - drop2:
            raise MeasureAuditError(f"step {step}.2 dropped the measure by "
                                    f"less than {drop2}/2")


def feedback(inst: DisjointInstance, stats: SearchStats | None = None, *,
             audit: bool = False, seed: int = 0) -> VertexSet | None:
    """Find a v1-only feedback vertex set of size <= k, or None.

    The input instance is not mutated.  `stats` accumulates branch/leaf
    counters across calls; `audit` additionally asserts the per-step
    measure obligations and the maintained-state invariants, at a constant
    factor of extra cost.
    """
    if stats is None:
        stats = SearchStats()
    state = ReductionState.from_instance(inst)
    return _search(state, stats, 0, audit, seed)
