"""Exact arithmetic: Kronecker symbols, primality, and the nonresidue that
fixes F_p^2."""

import functools

P_LIMIT = 1 << 31  # keeps every kernel product inside int64


class DomainError(ValueError):
    """Input outside an operation's stated domain."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic primality for 0 <= n < 2^63 (strong pseudoprime test)."""
    if n < 0 or n >= (1 << 63):
        raise DomainError(f"is_prime domain is [0, 2^63), got {n}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=None, typed=True)
def cached_is_prime(n):
    """``is_prime`` computed once per n: every graph, trace and class-number
    check asks about the same p again.  ``find_first_prime``'s scan of up
    to 10^6 candidates calls the uncached ``is_prime``."""
    return is_prime(n)


def kronecker(a, n):
    """Kronecker symbol (a|n) for n >= 1."""
    if n < 1:
        raise DomainError(f"kronecker requires n >= 1, got n={n}")
    if n == 1:
        return 1
    result = 1
    # factor out twos of n: (a|2) is 0 for even a, else chi_8(a)
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    if a < 0:
        a = -a
        if n % 4 == 3:
            result = -result
    a %= n
    # Jacobi symbol on odd n > 0
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def factor(n):
    """Prime factorisation [(q, e), ...] of n >= 1, q increasing, by trial
    division up to the square root of what is left."""
    if n < 1:
        raise DomainError(f"factor requires n >= 1, got {n}")
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            out.append((q, e))
        q += 1 if q == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def nonresidue(p):
    """The smallest positive quadratic nonresidue c mod p.

    F_p^2 is F_p[t]/(t^2 - c) with this c, which gives every j-invariant
    a reproducible coordinate pair across runs and machines; the
    arithmetic runs on int64 (c0, c1) arrays in ``kernels``.
    """
    if not cached_is_prime(p):
        raise DomainError(f"{p} is not prime")
    if p < 3 or p >= P_LIMIT:
        raise DomainError(f"p must be an odd prime below 2^31, got {p}")
    c = 2
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    return c
