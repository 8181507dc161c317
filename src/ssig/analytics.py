"""Collision statistics: loops, multi-edges, intersection, bi-route numbers.

Every theorem bound is exposed as a checkable predicate, and the bi-route
number is computed by three computationally independent routes that must
agree exactly.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .arith import DomainError, factor
from .brandt import TheoremViolation, brandt_powers, check_trace_degree, trace_formula

# Entries in one column block of a Brandt power in biroute's matrix routes:
# one block at n <= 1024, and 128 columns at n = 8189.
BLOCK_ENTRIES = 1 << 20


@dataclass
class GraphStats:
    p: int
    ell: int
    n: int
    loop_count: int
    multi_edge_pair_count: int   # unordered pairs of parallel edges, C(m, 2)
    redundant_edges: int         # surplus beyond one edge per site, m - 1
    re_offdiag: dict             # m -> total redundant edges at m-fold pair sites
    re_loops: dict               # m -> total redundant loops at m-fold loop sites
    is_simple: bool
    trace_l: int
    trace_l2: int

    def as_dict(self):
        """The counts under their JSON names, as ``stats --json`` and
        ``graph --format json`` print them."""
        return {"n": self.n, "loops": self.loop_count,
                "multi_edge_pairs": self.multi_edge_pair_count,
                "redundant_edges": self.redundant_edges, "is_simple": self.is_simple,
                "trace_l": self.trace_l, "trace_l2": self.trace_l2}

    def loop_bound(self):
        return 2 * self.ell

    def redundant_bound(self):
        return math.floor(self.ell**2 + Fraction(self.ell, 4))

    def redundant_bracket(self):
        """Lower/upper bounds on redundant edges from Tr(B(ell^2)) - n."""
        excess = self.trace_l2 - self.n
        return (Fraction(excess, 2 * self.ell), Fraction(excess, 2))


@dataclass
class BirouteReport:
    """Bi-route values by route; a route that did not run holds None."""
    p: int
    ell1: int
    ell2: int
    R: int
    value_definitional: Optional[int]
    value_telescoped: Optional[int]
    value_hurwitz: Optional[int]
    upper_bound: int

    def routes(self):
        """(name, value) for each route that ran, in a fixed order."""
        named = (
            ("definitional", self.value_definitional),
            ("telescoped", self.value_telescoped),
            ("hurwitz", self.value_hurwitz),
        )
        return [(name, v) for name, v in named if v is not None]

    @property
    def value(self):
        """The bi-route number, on which every route that ran agrees."""
        return self.routes()[0][1]


def graph_stats(g):
    """All loop/multi-edge statistics of a graph, with identities asserted."""
    n, ell = g.n, g.ell
    nbr = g.table
    i, k, mult = g.edges()
    loops = i == k
    loop_count = int(mult[loops].sum())
    multi_pairs = int((mult * (mult - 1) // 2).sum())
    redundant = int((mult - 1).sum())

    def redundant_by_class(mults):
        """m -> (m - 1) times the number of m-fold sites, for m >= 2."""
        sites = np.bincount(mults).tolist()
        return {m: s * (m - 1) for m, s in enumerate(sites) if m >= 2 and s}

    re_offdiag = redundant_by_class(mult[~loops])
    re_loops = redundant_by_class(mult[loops])

    # Tr B(ell^2) from B(ell^2) = B(ell) B(ell) - ell I: entry (i, i) of the
    # product is B(ell)[c, i] summed over the neighbours c of i, and
    # B(ell)[c, i] is how often i appears in row c of the table.
    trace_l2 = int((nbr[nbr] == np.arange(n)[:, None, None]).sum()) - ell * n
    # decomposition of the trace excess over multiplicity classes
    decomposed = sum(2 * m * re for m, re in re_offdiag.items()) + sum(
        m * re for m, re in re_loops.items()
    )
    if trace_l2 - n != decomposed:
        raise TheoremViolation(
            f"multi-edge decomposition of Tr(B(ell^2)) - n fails for "
            f"p={g.p}, ell={ell}: {trace_l2 - n} != {decomposed}"
        )
    is_simple = loop_count == 0 and multi_pairs == 0
    if is_simple != (loop_count == 0 and trace_l2 == n):
        raise TheoremViolation(
            f"simplicity criterion Tr(B(ell^2)) = n fails for p={g.p}, ell={ell}"
        )
    return GraphStats(
        p=g.p,
        ell=ell,
        n=n,
        loop_count=loop_count,
        multi_edge_pair_count=multi_pairs,
        redundant_edges=redundant,
        re_offdiag=re_offdiag,
        re_loops=re_loops,
        is_simple=is_simple,
        trace_l=loop_count,
        trace_l2=trace_l2,
    )


def _check_pair(g1, g2):
    if g1.p != g2.p:
        raise DomainError("graphs live over different primes")
    if not np.array_equal(g1.vertices, g2.vertices):
        raise DomainError("graphs use different vertex orders")


def intersection_number(g1, g2):
    """Number of common edges: sum over i <= j of min(B_ij(l1), B_ij(l2))."""
    _check_pair(g1, g2)
    i, k, m = g2.edges()
    return int(np.minimum(m, g1.multiplicity(i, k)).sum())


def edit_distance(g1, g2):
    """|E1| + |E2| - 2 |E1 cap E2|, cross-checked by direct counting."""
    _check_pair(g1, g2)
    value = g1.edge_count() + g2.edge_count() - 2 * intersection_number(g1, g2)
    # independent route: symmetric difference of edge multisets, as the
    # edges of each graph beyond those of the other at the same site
    direct = sum(int(np.maximum(m - other.multiplicity(i, k), 0).sum())
                 for (i, k, m), other in ((g1.edges(), g2), (g2.edges(), g1)))
    if value != direct:
        raise TheoremViolation(
            f"edit distance mismatch for p={g1.p}: {value} != {direct}"
        )
    return value


def check_biroute_args(ell1, ell2, R, method="all"):
    """Raise ``DomainError`` unless ``biroute`` accepts these arguments,
    before any graph is built."""
    if ell1 == ell2:
        raise DomainError("bi-route number needs two distinct primes ell")
    if not 1 <= R <= 5:
        raise DomainError(f"R must be in [1, 5], got {R}")
    if method not in ("definitional", "telescoped", "hurwitz", "all"):
        raise DomainError(f"unknown method {method!r}")
    if method in ("hurwitz", "all"):
        check_trace_degree((ell1 * ell2) ** R)


def _column_blocks(n):
    """[0, n) split into runs of max(1, BLOCK_ENTRIES // n) columns."""
    width = max(1, BLOCK_ENTRIES // n)
    return np.split(np.arange(n), range(width, n, width))


def _definitional(g1, g2, R):
    """Entrywise sum of C(ell1^a) * C(ell2^b) over 1 <= a, b <= R, one
    column block at a time; a block's powers are freed before the next."""
    def block(c1, c2):
        for c in (c1, c2):
            # from the top, so c[a - 2] is still B(ell^(a-2)) when read
            for a in range(R, 1, -1):
                c[a] -= c[a - 2]
        return sum(int((x * y).sum()) for x in c1[1:] for y in c2[1:])

    return sum(block(brandt_powers(g1, R, cols), brandt_powers(g2, R, cols))
               for cols in _column_blocks(g1.n))


def _telescoped(g1, g2, R):
    """n plus the eight signed entrywise sums of B(ell1^a) * B(ell2^b), one
    column block at a time; a block's powers are freed before the next."""
    terms = ((R, R, 1), (R - 1, R, 1), (R, R - 1, 1), (R - 1, R - 1, 1),
             (R, 0, -1), (R - 1, 0, -1), (0, R, -1), (0, R - 1, -1))

    def block(P1, P2):
        return sum(sign * int((P1[a] * P2[b]).sum()) for a, b, sign in terms)

    return g1.n + sum(block(brandt_powers(g1, R, cols), brandt_powers(g2, R, cols))
                      for cols in _column_blocks(g1.n))


def biroute(g1, g2, R, method="all"):
    """R-th bi-route number of two isogeny graphs over the same prime.

    definitional: counts pairs of backtracking-free path classes directly
    from the cyclic-isogeny matrices C(ell^a) = B(ell^a) - B(ell^(a-2)).
    telescoped: the trace expression in the mixed Brandt matrices
    B(ell1^a ell2^b) = B(ell1^a) B(ell2^b).  Both factors are symmetric,
    so each trace is the entrywise sum of B(ell1^a) * B(ell2^b).
    hurwitz: the same expression with every trace from the class-number
    formula (no matrices involved).

    Each matrix route needs only entrywise sums, which split over column
    blocks, so it computes its own Brandt powers a block of columns at a
    time and holds 2 (R+1) blocks of n x max(1, BLOCK_ENTRIES // n)
    entries; the routes share nothing.
    """
    _check_pair(g1, g2)
    p, l1, l2, n = g1.p, g1.ell, g2.ell, g1.n
    check_biroute_args(l1, l2, R, method)  # before any route does work
    vals = {}
    if method in ("definitional", "all"):
        vals["definitional"] = _definitional(g1, g2, R)
    if method in ("telescoped", "all"):
        vals["telescoped"] = _telescoped(g1, g2, R)
    if method in ("hurwitz", "all"):
        def trf(a, b):
            m = l1**a * l2**b
            return n if m == 1 else trace_formula(p, m)

        vals["hurwitz"] = (
            trf(R, R) + trf(R - 1, R) + trf(R, R - 1) + trf(R - 1, R - 1)
            - trf(R, 0) - trf(R - 1, 0) - trf(0, R) - trf(0, R - 1) + n
        )
    if len(set(vals.values())) > 1:
        raise TheoremViolation(
            f"bi-route routes disagree for p={p}, ({l1},{l2}), R={R}: {vals}"
        )
    lo, hi = sorted((l1, l2))
    return BirouteReport(
        p=p,
        ell1=l1,
        ell2=l2,
        R=R,
        value_definitional=vals.get("definitional"),
        value_telescoped=vals.get("telescoped"),
        value_hurwitz=vals.get("hurwitz"),
        upper_bound=biroute_bound(lo, hi, R),
    )


def _divisors(m):
    divs = [1]
    for q, e in factor(m):
        divs = [d * q**k for d in divs for k in range(e + 1)]
    return divs


def biroute_bound(ell1, ell2, R):
    """Divisor-sum upper bound on the R-th bi-route number.

    (ell1 ell2)^floor(R/2) plus twice the sum of divisors above the square
    root, for each of the four mixed degrees.
    """
    if ell1 >= ell2:
        raise DomainError(f"requires ell1 < ell2, got {ell1} >= {ell2}")
    if R < 1:
        raise DomainError(f"R must be >= 1, got {R}")
    total = (ell1 * ell2) ** (R // 2)
    for a, b in ((R, R), (R - 1, R), (R, R - 1), (R - 1, R - 1)):
        m = ell1**a * ell2**b
        total += 2 * sum(d for d in _divisors(m) if d * d > m)
    return total


def _sqrt_lower(x, scale=10**12):
    """Rational lower bound for sqrt(x)."""
    return Fraction(math.isqrt(x * scale * scale), scale)


def biroute_bound_closed(ell1, ell2, R):
    """Closed-form O((ell1 ell2)^R) bound, rounded up to an integer.

    The subtracted square-root terms are evaluated with rational lower
    approximations, which only enlarges the bound and keeps it valid.
    """
    if ell1 >= ell2:
        raise DomainError(f"requires ell1 < ell2, got {ell1} >= {ell2}")
    if R < 1:
        raise DomainError(f"R must be >= 1, got {R}")
    l1, l2 = ell1, ell2
    main = (
        2 * Fraction((l1 * l2) ** R * (l1 + 1) * (l2 + 1), (l1 - 1) * (l2 - 1))
        + (l1 * l2) ** (R // 2)
        - 4 * Fraction(l2**R * (l2 + 1), (l1 - 1) * (l2 - 1))
    )
    s1 = _sqrt_lower(l1)
    s2 = _sqrt_lower(l2)
    s12 = _sqrt_lower((l1 * l2) ** (R - 1))
    sub = 2 * s12 * (s1 + 1) * (R * s2 + R + s2) / (l2 - 1)
    return math.ceil(main - sub)
