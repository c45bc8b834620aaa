"""Exact feedback vertex set solver toolkit.

Solvers: `solve_fvs_min` / `solve_fvs_decision` for the full problem,
`feedback` for disjoint instances, `solve_regular3` for the polynomial
degree-3 special case, and brute-force oracles in `fvskit.oracle` that
anchor every test.
"""

from .branching import Measure, SearchStats, feedback, measure
from .compression import fvs_reduction, solve_fvs_decision, solve_fvs_min
from .fileio import ParseError, parse_graph, parse_solution, serialize_graph, write_solution
from .generators import gen_planted, gen_random
from .graph import (ComponentLabeling, Graph, VertexSet, betti, bypass_degree2,
                    components, is_forest, is_fvs, spanning_tree_containing)
from .oracle import (OracleBudget, OracleBudgetExceeded, brute_disjoint,
                     brute_fvs, brute_mu, brute_parity)
from .reductions import (DisjointInstance, MeasureAuditError, ReductionState,
                         count_nice)
from .regular3 import (AdjacencyMatching, PairedSubdivision, ShrunkenGraph,
                       fvs_from_matching, matroid_parity, shrink_v2,
                       solve_regular3, subdivide, tree_from_parity)

__version__ = "0.1.0"

__all__ = [
    "AdjacencyMatching", "ComponentLabeling", "DisjointInstance", "Graph",
    "Measure", "MeasureAuditError", "OracleBudget", "OracleBudgetExceeded",
    "PairedSubdivision", "ParseError", "ReductionState", "SearchStats",
    "ShrunkenGraph", "VertexSet", "betti", "brute_disjoint", "brute_fvs",
    "brute_mu", "brute_parity", "bypass_degree2", "components", "count_nice",
    "feedback", "fvs_from_matching", "fvs_reduction", "gen_planted",
    "gen_random", "is_forest", "is_fvs", "matroid_parity", "measure",
    "parse_graph", "parse_solution",
    "serialize_graph", "shrink_v2", "solve_fvs_decision", "solve_fvs_min",
    "solve_regular3", "spanning_tree_containing", "subdivide",
    "tree_from_parity", "write_solution",
]
