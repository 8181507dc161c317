"""Supersingular isogeny graph toolkit.

Constructs the supersingular ell-isogeny graphs Lambda_p(ell) for primes
p = 1 mod 12 and ell in {2, 3, 5, 7}, computes their loop and multi-edge
statistics by several independent routes (direct enumeration, Brandt
matrix recurrences, Hurwitz class-number trace formulas), and derives
congruence conditions on p equivalent to structural graph properties.
"""

from .arith import DomainError, is_prime, kronecker
from .classnum import decompose, hurwitz, hurwitz_modified
from .brandt import (
    TheoremViolation,
    brandt_powers,
    trace_formula,
    vertex_count,
)
from .ssgraph import (
    SUPPORTED_ELLS,
    IsogenyGraph,
    build_graph,
    find_supersingular_seed,
)
from .analytics import (
    BirouteReport,
    GraphStats,
    biroute,
    biroute_bound,
    biroute_bound_closed,
    edit_distance,
    graph_stats,
    intersection_number,
)
from .congruence import (
    CongruenceClassSet,
    GraphProperty,
    derive_congruences,
    discriminant_set,
    find_first_prime,
    holds_by_trace,
)
from .export import GraphCache, graph_from_dict, graph_to_dict, to_dot

__version__ = "1.0.0"

__all__ = [
    "BirouteReport",
    "CongruenceClassSet",
    "DomainError",
    "GraphCache",
    "GraphProperty",
    "GraphStats",
    "IsogenyGraph",
    "SUPPORTED_ELLS",
    "TheoremViolation",
    "biroute",
    "biroute_bound",
    "biroute_bound_closed",
    "brandt_powers",
    "build_graph",
    "decompose",
    "derive_congruences",
    "discriminant_set",
    "edit_distance",
    "find_first_prime",
    "find_supersingular_seed",
    "graph_from_dict",
    "graph_stats",
    "graph_to_dict",
    "holds_by_trace",
    "hurwitz",
    "hurwitz_modified",
    "intersection_number",
    "is_prime",
    "kronecker",
    "to_dot",
    "trace_formula",
    "vertex_count",
]
