"""Brute-force oracles that only the tests call.

No command or library path of ``ssig`` runs these: the class number of a
discriminant by enumerating reduced forms one at a time, the unit factor,
fundamentality, the row sum of B(m), the trace formula as a Fraction sum
over every s, a curve's point-count sum, and the neighbours of one
j-invariant.  The tests compare the package's routes
with them.
"""

import math
from collections import Counter
from fractions import Fraction

from ssig.arith import DomainError, cached_is_prime, factor, nonresidue
from ssig.brandt import TheoremViolation, check_trace_degree
from ssig.classnum import hurwitz_modified
from ssig.kernels import _chi_table
from ssig.ssgraph import _modpoly_matrix, _neighbour_keys


def _check_discriminant(d):
    if d >= 0 or d % 4 not in (0, 1):
        raise DomainError(f"{d} is not a negative discriminant")


def class_number(d):
    """Number of reduced primitive binary quadratic forms of discriminant d.

    Reduced: |b| <= a <= c with b >= 0 when |b| = a or a = c;
    primitive: gcd(a, b, c) = 1; b^2 - 4ac = d.
    """
    _check_discriminant(d)
    from math import gcd, isqrt

    count = 0
    a = 1
    while 3 * a * a <= -d:
        for b in range(-a, a + 1):
            if (b - d) % 2 != 0:
                continue
            num = b * b - d
            if num % (4 * a) != 0:
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (b == -a or a == c):
                continue
            if gcd(gcd(a, abs(b)), c) == 1:
                count += 1
        a += 1
    return count


def unit_factor(d):
    """Half the number of units of the order of discriminant d."""
    _check_discriminant(d)
    if d == -3:
        return 3
    if d == -4:
        return 2
    return 1


def is_fundamental(d):
    """True for negative fundamental discriminants."""
    if d >= 0:
        return False
    if d % 4 == 1:
        return _squarefree(-d)
    if d % 4 == 0:
        q = d // 4
        return q % 4 in (2, 3) and _squarefree(-q)
    return False


def _squarefree(n):
    return all(e == 1 for _, e in factor(n))


def sigma_coprime(m, p):
    """sum of divisors d of m with gcd(d, p) = 1 (the row sum of B(m))."""
    total = 1
    for q, e in factor(m):
        if p % q:
            total *= (q ** (e + 1) - 1) // (q - 1)
    return total


def trace_formula(p, m):
    """Tr(B(m)) as the Fraction sum of H_p(4m - s^2) over every s in
    [-S, S], S = isqrt(4m): ``brandt.trace_formula`` as it was before it
    counted the H(4m - s^2) together."""
    if p < 5 or not cached_is_prime(p):
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


def curve_trace_sum(p, a, b):
    """sum_x chi(x^3 + a x + b); the curve has p + 1 + sum points."""
    x, chi = _chi_table(p)
    return int(chi[(x * x % p * x % p + (a % p) * x + b % p) % p].sum())


def neighbors(p, key, ell):
    """Multiset of neighbouring j-keys of the j-key ``key``, as a
    root-multiplicity map."""
    row = _neighbour_keys(p, nonresidue(p), _modpoly_matrix(ell, p), [key], [()])[0]
    return dict(Counter(row.tolist()))
