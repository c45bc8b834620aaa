"""Exact feedback vertex set solver toolkit.

Solvers: `solve_fvs_min` / `solve_fvs_decision` for the full problem,
`feedback` for disjoint instances, `solve_regular3` for the polynomial
degree-3 special case, and brute-force oracles in `fvskit.oracle` that
anchor every test.  The top level exports what README.md documents; the
building blocks stay importable from their submodules.
"""

from .branching import SearchStats, feedback
from .compression import solve_fvs_decision, solve_fvs_min
from .fileio import ParseError, parse_graph, parse_solution, serialize_graph, write_solution
from .generators import gen_planted, gen_random
from .graph import Graph, VertexSet, is_forest, is_fvs
from .oracle import (OracleBudget, OracleBudgetExceeded, brute_disjoint,
                     brute_fvs, brute_mu, brute_parity)
from .reductions import DisjointInstance, MeasureAuditError, ReductionState
from .regular3 import solve_regular3

__version__ = "0.1.0"

__all__ = [
    "DisjointInstance", "Graph", "MeasureAuditError", "OracleBudget",
    "OracleBudgetExceeded", "ParseError", "ReductionState", "SearchStats",
    "VertexSet", "brute_disjoint", "brute_fvs", "brute_mu", "brute_parity",
    "feedback", "gen_planted", "gen_random", "is_forest", "is_fvs",
    "parse_graph", "parse_solution", "serialize_graph", "solve_fvs_decision",
    "solve_fvs_min", "solve_regular3", "write_solution",
]
