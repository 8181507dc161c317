"""Brandt matrices from graph adjacency, and their traces via class numbers.

Two independent routes to the same traces: the Hecke-style matrix
recurrences starting from adjacency, and the Hurwitz class-number trace
formula.  Tests and the verify command cross-validate them.
"""

import math
from fractions import Fraction

import numpy as np

from .arith import DomainError, factor, is_prime
from .classnum import HURWITZ_D_LIMIT, hurwitz_modified

ENTRY_LIMIT = 1 << 40  # row sums above this risk int64 trouble downstream


class TheoremViolation(AssertionError):
    """An identity that is a theorem failed; indicates an internal bug."""


def sigma_coprime(m, p):
    """sum of divisors d of m with gcd(d, p) = 1 (the row sum of B(m))."""
    total = 1
    for q, e in factor(m):
        if p % q:
            total *= (q ** (e + 1) - 1) // (q - 1)
    return total


class BrandtMatrix:
    """Square nonnegative integer matrix of degree m over a fixed vertex order."""

    def __init__(self, degree, entries, vertex_order=None, check=True):
        self.degree = degree
        self.entries = np.asarray(entries, dtype=np.int64)
        self.vertex_order = vertex_order
        if check:
            if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
                raise DomainError("Brandt matrix must be square")
            if (self.entries < 0).any():
                raise DomainError("Brandt matrix entries must be nonnegative")

    @property
    def n(self):
        return self.entries.shape[0]

    def trace(self):
        return int(np.trace(self.entries))

    def row_sums(self):
        return [int(s) for s in self.entries.sum(axis=1)]

    def __eq__(self, other):
        return (
            isinstance(other, BrandtMatrix)
            and self.degree == other.degree
            and np.array_equal(self.entries, other.entries)
        )


def identity_matrix(n, vertex_order=None):
    return BrandtMatrix(1, np.eye(n, dtype=np.int64), vertex_order)


def neighbour_table(base):
    """(n, ell+1) table of each vertex's neighbours, repeated by multiplicity."""
    A = base.entries
    ell = base.degree
    if (A.sum(axis=1) != ell + 1).any():
        raise DomainError(f"rows of B({ell}) must all sum to {ell + 1}")
    if not np.array_equal(A, A.T):
        raise DomainError(f"B({ell}) must be symmetric")
    rows, cols = np.nonzero(A)  # row-major, so each row's columns are contiguous
    return np.repeat(cols, A[rows, cols]).reshape(base.n, ell + 1)


def brandt_powers(base, k):
    """[B(1), B(ell), ..., B(ell^k)] from B(ell) by the Hecke recurrence.

    B(ell^j) = B(ell) B(ell^(j-1)) - ell B(ell^(j-2)).  B(ell) is
    (ell+1)-regular, so the product is a gather over its neighbour table:
    row i of B(ell) M is the sum of the rows of M at the ell+1 neighbours
    of i, which costs O(n^2 ell) instead of O(n^3).  Every B(ell^j) is a
    polynomial in the symmetric B(ell), so all of them are symmetric and
    commute with it.
    """
    if k < 0:
        raise DomainError(f"exponent must be >= 0, got {k}")
    ell = base.degree
    if not is_prime(ell):
        raise DomainError(f"base degree {ell} is not prime")
    if (ell ** (k + 1) - 1) // (ell - 1) > ENTRY_LIMIT:
        raise DomainError(f"entries of B({ell}^{k}) exceed the supported range")
    powers = [identity_matrix(base.n, base.vertex_order)]
    if k == 0:
        return powers
    nbr = neighbour_table(base)
    powers.append(base)
    for j in range(2, k + 1):
        cur = powers[-1].entries
        # one (n, n) gather at a time keeps the peak at O(n^2)
        nxt = cur[nbr[:, 0]]
        for c in range(1, ell + 1):
            nxt += cur[nbr[:, c]]
        nxt -= ell * powers[-2].entries
        if (nxt < 0).any():
            raise TheoremViolation("Brandt recurrence produced a negative entry")
        powers.append(BrandtMatrix(ell**j, nxt, base.vertex_order, check=False))
    return powers


def brandt_prime_power(base, k):
    """B(ell^k) from B(ell): the last of ``brandt_powers(base, k)``."""
    return brandt_powers(base, k)[-1]


def brandt_coprime_product(a, b):
    """B(m m') = B(m) B(m') for coprime degrees on the same vertex order."""
    if math.gcd(a.degree, b.degree) != 1:
        raise DomainError(f"degrees {a.degree}, {b.degree} are not coprime")
    if a.n != b.n:
        raise DomainError("vertex orders disagree")
    if a.vertex_order is not None and b.vertex_order is not None:
        if a.vertex_order != b.vertex_order:
            raise DomainError("vertex orders disagree")
    return BrandtMatrix(
        a.degree * b.degree,
        a.entries @ b.entries,
        a.vertex_order or b.vertex_order,
    )


def check_trace_degree(m):
    """Raise DomainError unless trace_formula(p, m) is within HURWITZ_D_LIMIT."""
    if 4 * m > HURWITZ_D_LIMIT:
        raise DomainError(
            f"trace formula needs 4m <= HURWITZ_D_LIMIT = {HURWITZ_D_LIMIT} "
            f"(m <= {HURWITZ_D_LIMIT // 4}), got m={m}"
        )


def trace_formula(p, m):
    """Tr(B(m)) = sum over s^2 <= 4m of H_p(4m - s^2), as an integer.

    Non-integral or negative results mean an arithmetic bug, not bad input.
    """
    if p < 5 or not is_prime(p):
        raise DomainError(f"p must be a prime >= 5, got {p}")
    if m < 1 or m % p == 0:
        raise DomainError(f"m must be a positive integer coprime to p, got m={m}")
    check_trace_degree(m)
    total = Fraction(0)
    smax = math.isqrt(4 * m)
    for s in range(-smax, smax + 1):
        total += hurwitz_modified(4 * m - s * s, p)
    if total.denominator != 1 or total < 0:
        raise TheoremViolation(
            f"trace formula gave a non-integral or negative value {total} "
            f"for p={p}, m={m}"
        )
    return int(total)


def vertex_count(p):
    """Number of supersingular j-invariants over F_p-bar, p >= 5."""
    if p < 5 or not is_prime(p):
        raise DomainError(f"p must be a prime >= 5, got {p}")
    extra = {1: 0, 5: 1, 7: 1, 11: 2}[p % 12]
    return p // 12 + extra
