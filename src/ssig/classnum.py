"""Hurwitz class numbers and the decomposition of a discriminant.

Hurwitz class numbers are exact rationals; 24 * H(D) is always an integer.
"""

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .arith import DomainError, cached_is_prime, factor, kronecker


class DiscriminantDecomposition(NamedTuple):
    d_fund: int      # negative fundamental discriminant
    conductor: int   # f with d_fund * f^2 = -D


def decompose(D):
    """Unique (d_fund, f) with d_fund * f^2 = -D, d_fund fundamental."""
    if D <= 0 or (-D) % 4 not in (0, 1):
        raise DomainError(f"-{D} is not a negative discriminant")
    # squarefree part: D = s * t^2
    s, t = 1, 1
    for q, e in factor(D):
        s *= q ** (e % 2)
        t *= q ** (e // 2)
    if (-s) % 4 == 1:
        return DiscriminantDecomposition(-s, t)
    assert t % 2 == 0
    return DiscriminantDecomposition(-4 * s, t // 2)


# Largest D that hurwitz accepts; trace_formula(p, m) needs 4m <= it, so
# m <= 10^6.  hurwitz(D) walks about D/7 candidate forms in int64 arrays
# (4.6 MB each at the limit), and trace_formula at m = 10^6 takes about
# 4 s of CPU.
HURWITZ_D_LIMIT = 4_000_000

_hurwitz_cache = {}


def _isqrt_array(x):
    """Exact floor square roots of a nonnegative int64 array."""
    r = np.sqrt(x.astype(np.float64)).astype(np.int64)
    r -= r * r > x
    r += (r + 1) * (r + 1) <= x
    return r


def _reduced_form_count(D):
    """H(D) for D > 0, D = 0, 3 mod 4, by counting reduced forms.

    Every reduced form (a, b, c) with b^2 - 4ac = -D, primitive or not,
    counts 1, except multiples of x^2 + y^2 (1/2) and of x^2 + xy + y^2
    (1/3).  Enumerated as in Cohen, Algorithm 5.3.5: b = D mod 2 with
    3b^2 <= D, q = (b^2 + D)/4, max(b, 1) <= a <= sqrt(q) with a | q,
    c = q/a; the form with -b is reduced too unless b = 0, a = b or a = c.
    """
    b = np.arange(D % 2, math.isqrt(D // 3) + 1, 2, dtype=np.int64)
    q = (b * b + D) // 4
    lo = np.maximum(b, 1)
    n = np.maximum(_isqrt_array(q) - lo + 1, 0)
    # one flat candidate a per (b, a) pair; a runs from lo upwards per b
    first = np.cumsum(n) - n
    a = np.arange(int(n.sum()), dtype=np.int64) - np.repeat(first - lo, n)
    qa = np.repeat(q, n)
    hit = qa % a == 0
    a, qa, ba = a[hit], qa[hit], np.repeat(b, n)[hit]
    single = (ba == 0) | (a == ba) | (a * a == qa)
    sixths = 6 * (2 * a.size - int(np.count_nonzero(single)))
    if D % 4 == 0 and _is_square(D // 4):
        sixths -= 3      # (k, 0, k) was counted 1 and weighs 1/2
    if D % 3 == 0 and _is_square(D // 3):
        sixths -= 4      # (k, k, k) was counted 1 and weighs 1/3
    return Fraction(sixths, 6)


def _is_square(n):
    return math.isqrt(n) ** 2 == n


def hurwitz(D):
    """Hurwitz class number H(D) as an exact Fraction.

    H(0) = -1/12; for D > 0 the weighted count sum h(d)/u(d) over all
    d * f^2 = -D with d a negative discriminant (zero for D = 1, 2 mod 4),
    which is the weighted number of reduced forms of discriminant -D.
    D above HURWITZ_D_LIMIT raises DomainError.
    """
    if D < 0:
        raise DomainError(f"hurwitz requires D >= 0, got {D}")
    if D > HURWITZ_D_LIMIT:
        raise DomainError(
            f"hurwitz supports D <= HURWITZ_D_LIMIT = {HURWITZ_D_LIMIT}, got {D}"
        )
    if D == 0:
        return Fraction(-1, 12)
    if D not in _hurwitz_cache:
        _hurwitz_cache[D] = _reduced_form_count(D) if D % 4 in (0, 3) else Fraction(0)
    return _hurwitz_cache[D]


def hurwitz_modified(D, p):
    """Modified Hurwitz class number H_p(D).

    Zero if p splits in the order of discriminant -D, H(D) if inert,
    H(D)/2 if ramified (p not dividing the conductor), and H_p(D/p^2)
    when p divides the conductor (Gross, Heights and special values of
    L-series, 1987, section 1).  H_p(0) = (p-1)/24.
    """
    if p < 5 or not cached_is_prime(p):
        raise DomainError(f"hurwitz_modified requires a prime p >= 5, got {p}")
    if D < 0:
        raise DomainError(f"hurwitz_modified requires D >= 0, got {D}")
    if D == 0:
        return Fraction(p - 1, 24)
    if D % 4 in (1, 2):
        return Fraction(0)  # no order of discriminant -D; H(D) = 0 too
    # -D = d_fund f^2 with d_fund squarefree away from 2, so for odd p:
    # p | f exactly when p^2 | D, and otherwise (d_fund|p) = (-D|p).
    if D % (p * p) == 0:
        return hurwitz_modified(D // (p * p), p)
    sym = kronecker(-D, p)
    if sym == 1:
        return Fraction(0)
    if sym == -1:
        return hurwitz(D)
    return hurwitz(D) / 2
