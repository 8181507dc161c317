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
# (4.6 MB each at the limit).  trace_formula at m = 10^6 counts the forms
# of all 4m - s^2 at once in about 0.16 s of CPU, where counting each
# 4m - s^2 alone took about 2 s.
HURWITZ_D_LIMIT = 4_000_000

# Table entries plus forms per block of a in _reduced_form_family, taken
# as 2a + 2 sqrt(m) for each a.  The count peaks at 0.5 MB at m = 35^3 and
# 1.2 MB at m = 10^6; 2^14 peaked at 0.9 and 1.6 MB, no faster at 35^3.
FAMILY_BLOCK_ENTRIES = 1 << 13

_hurwitz_cache = {}


def _isqrt_array(x):
    """Exact floor square roots of a nonnegative int64 array."""
    r = np.sqrt(x.astype(np.float64)).astype(np.int64)
    r -= r * r > x
    r += (r + 1) * (r + 1) <= x
    return r


def _ranges(n):
    """0, 1, ..., n[i] - 1 for each i in turn, as one int64 array."""
    return np.arange(int(n.sum()), dtype=np.int64) - np.repeat(np.cumsum(n) - n, n)


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


def _reduced_form_family(m):
    """6 H(4m - s^2) for s = 0 .. isqrt(4m - 1), as an int64 array, from
    one count of the reduced forms of all those discriminants together.

    0 <= b <= a <= c and b^2 - 4ac = s^2 - 4m give a form exactly when
    s^2 = b^2 + 4m mod 4a, and then c >= a exactly when
    s^2 <= 4m + b^2 - 4a^2.  So a runs to sqrt(4m/3), and the s that
    (a, b) admits are the roots r in [0, 2a) of s^2 = b^2 + 4m mod 4a,
    stepped by 2a, since s^2 mod 4a depends only on s mod 2a.  The weights
    and the unit corrections are those of ``_reduced_form_count``.  The a
    go in blocks of about FAMILY_BLOCK_ENTRIES table entries plus forms.
    Needs 4m <= HURWITZ_D_LIMIT.
    """
    smax = math.isqrt(4 * m - 1)
    forms = np.zeros(smax + 1, dtype=np.int64)
    a = np.arange(1, math.isqrt(4 * m // 3) + 1, dtype=np.int64)
    size = 2 * a + smax
    block = (np.cumsum(size) - size) // FAMILY_BLOCK_ENTRIES
    for cut in np.split(a, np.flatnonzero(np.diff(block)) + 1):
        forms += _family_block(m, cut, smax)
    s = np.arange(smax + 1, dtype=np.int64)
    q4, q3 = m - (s // 2) ** 2, (4 * m - s * s) // 3
    sixths = 6 * forms - 3 * ((s % 2 == 0) & (_isqrt_array(q4) ** 2 == q4))
    return sixths - 4 * ((s * s % 3 == m % 3) & (_isqrt_array(q3) ** 2 == q3))


def _family_block(m, a, smax):
    """The weighted form counts of ``_reduced_form_family`` by s, over the
    consecutive values ``a`` only."""
    na, a0 = a.size, int(a[0])
    # every x in [0, 2a), grouped by (x^2 mod 4a, a) at slot (x^2 mod 4a) na + a - a0;
    # 4a < 2^15 for 4m <= HURWITZ_D_LIMIT, and the int16 argsort is a radix sort
    x, ax = _ranges(2 * a), np.repeat(a, 2 * a)
    sq = x * x % (4 * ax)
    roots = x[np.argsort(sq.astype(np.int16), kind="stable")]
    count = np.bincount(sq * na + ax - a0, minlength=4 * int(a[-1]) * na)
    start = np.cumsum(count) - count
    # the pairs (a, b), 0 <= b <= a, with c >= a for some s >= 0
    b, ab = _ranges(a + 1), np.repeat(a, a + 1)
    top = 4 * m + b * b - 4 * ab * ab
    keep = top >= 0
    b, ab, top = b[keep], ab[keep], top[keep]
    t = _isqrt_array(top)
    slot = (b * b + 4 * m) % (4 * ab) * na + ab - a0
    # (a, -b, c) is reduced too unless b = 0, a = b or, at s = t, a = c
    double = (b > 0) & (b < ab)
    forms = -np.bincount(t[double & (t * t == top)], minlength=smax + 1)
    # one entry per (pair, root), then one per (pair, root, s)
    nr = count[slot]
    r = roots[_ranges(nr) + np.repeat(start[slot], nr)]
    t, step, weight = (np.repeat(v, nr) for v in (t, 2 * ab, 1.0 + double))
    ns = np.where(r <= t, (t - r) // step + 1, 0)
    s = np.repeat(r, ns) + np.repeat(step, ns) * _ranges(ns)
    # the weights are 1 and 2, so every float sum is an exact integer
    return forms + np.bincount(s, np.repeat(weight, ns), smax + 1).astype(np.int64)


def _is_square(n):
    return math.isqrt(n) ** 2 == n


def hurwitz(D):
    """Hurwitz class number H(D) as an exact Fraction.

    H(0) = -1/12; for D > 0 the weighted count sum h(d)/u(d) over all
    d * f^2 = -D with d a negative discriminant (zero for D = 1, 2 mod 4),
    which is the weighted number of reduced forms of discriminant -D,
    counted for this D alone unless ``cache_trace_family`` has counted it
    with the rest of its trace family.  D above HURWITZ_D_LIMIT raises
    DomainError.
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


def cache_trace_family(m):
    """Put H(4m - s^2) for every s with 4m - s^2 > 0 into the cache that
    ``hurwitz`` reads, all from one ``_reduced_form_family(m)``, unless the
    cache holds every one of them already."""
    ds = [4 * m - s * s for s in range(math.isqrt(4 * m - 1) + 1)]
    if not all(d in _hurwitz_cache for d in ds):
        sixths = _reduced_form_family(m).tolist()
        _hurwitz_cache.update((d, Fraction(x, 6)) for d, x in zip(ds, sixths))


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
