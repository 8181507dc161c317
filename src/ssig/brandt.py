"""Brandt matrices from neighbour tables, and their traces via class numbers.

Two independent routes to the same traces: the Hecke-style matrix
recurrence, a gather over the neighbour table, and the Hurwitz
class-number trace formula.  Tests and the verify command cross-validate
them.  A graph's table was checked to be a symmetric, (ell+1)-regular
B(ell) when the graph was made (``ssgraph.IsogenyGraph``).
"""

import math
from fractions import Fraction

import numpy as np

from .arith import DomainError, cached_is_prime
from .classnum import HURWITZ_D_LIMIT, cache_trace_family, hurwitz_modified

ENTRY_LIMIT = 1 << 40  # row sums above this risk int64 trouble downstream


class TheoremViolation(AssertionError):
    """An identity that is a theorem failed; indicates an internal bug."""


def brandt_powers(g, k, cols=None):
    """[B(1), B(ell), ..., B(ell^k)] of the graph ``g``, each restricted
    to the columns ``cols`` (all n of them when None), as n x len(cols)
    int64 arrays: the identity's columns, then the Hecke recurrence
    B(ell^j) = B(ell) B(ell^(j-1)) - ell B(ell^(j-2)), with B(ell^-1) = 0.

    B(ell) is (ell+1)-regular, so the product is a gather over the table:
    row i of B(ell) M is the sum of the rows of M at the ell+1 neighbours
    of i, which costs O(n ell) per column instead of O(n^2), and the
    columns of M give those of the product.  Every B(ell^j) is a
    polynomial in the symmetric B(ell), so all of them are symmetric.
    """
    if k < 0:
        raise DomainError(f"exponent must be >= 0, got {k}")
    ell = g.ell
    if (ell ** (k + 1) - 1) // (ell - 1) > ENTRY_LIMIT:
        raise DomainError(f"entries of B({ell}^{k}) exceed the supported range")
    nbr, n = g.table, g.n
    cols = np.arange(n) if cols is None else cols
    powers = [np.zeros((n, len(cols)), dtype=np.int64)]
    powers[0][cols, np.arange(len(cols))] = 1
    for j in range(1, k + 1):
        cur = powers[-1]
        # one gather at a time, so at most one temporary beside nxt
        nxt = cur[nbr[:, 0]]
        for c in range(1, ell + 1):
            nxt += cur[nbr[:, c]]
        if j > 1:  # only the subtraction can make an entry negative
            nxt -= ell * powers[-2]
            if (nxt < 0).any():
                raise TheoremViolation("Brandt recurrence produced a negative entry")
        powers.append(nxt)
    return powers


def check_trace_degree(m):
    """Raise DomainError unless trace_formula(p, m) is within HURWITZ_D_LIMIT."""
    if 4 * m > HURWITZ_D_LIMIT:
        raise DomainError(
            f"trace formula needs 4m <= HURWITZ_D_LIMIT = {HURWITZ_D_LIMIT} "
            f"(m <= {HURWITZ_D_LIMIT // 4}), got m={m}"
        )


def trace_formula(p, m):
    """Tr(B(m)) = sum over s^2 <= 4m of H_p(4m - s^2), as an integer.

    The H(4m - s^2) come from one count of reduced forms for every s at
    once (``classnum.cache_trace_family``); the terms of s and -s agree,
    so 24 H_p is summed in integers over s >= 0, twice for s > 0.
    Non-integral or negative results mean an arithmetic bug, not bad input.
    """
    if p < 5 or not cached_is_prime(p):
        raise DomainError(f"p must be a prime >= 5, got {p}")
    if m < 1 or m % p == 0:
        raise DomainError(f"m must be a positive integer coprime to p, got m={m}")
    check_trace_degree(m)
    cache_trace_family(m)
    total = 0  # 24 Tr(B(m))
    for s in range(math.isqrt(4 * m) + 1):
        h = hurwitz_modified(4 * m - s * s, p)
        if 24 % h.denominator:
            raise TheoremViolation(f"24 H_{p}({4 * m - s * s}) = {24 * h} is not an integer")
        total += (2 if s else 1) * (24 // h.denominator) * h.numerator
    if total % 24 or total < 0:
        raise TheoremViolation(
            f"trace formula gave a non-integral or negative value {Fraction(total, 24)} "
            f"for p={p}, m={m}"
        )
    return total // 24


def vertex_count(p):
    """Number of supersingular j-invariants over F_p-bar, p >= 5."""
    if p < 5 or not cached_is_prime(p):
        raise DomainError(f"p must be a prime >= 5, got {p}")
    extra = {1: 0, 5: 1, 7: 1, 11: 2}[p % 12]
    return p // 12 + extra
