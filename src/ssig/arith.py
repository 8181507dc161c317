"""Exact arithmetic: Kronecker symbols, primality, and F_p^2 algebra."""

from typing import NamedTuple

import numpy as np

from . import kernels

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


class Fp2Element(NamedTuple):
    """c0 + c1*t with t^2 = c, coefficients reduced into [0, p)."""

    c0: int
    c1: int

    def __str__(self):
        return f"{self.c0}+{self.c1}*t"


class Fp2:
    """The field F_p[t]/(t^2 - c), c the smallest positive nonresidue mod p.

    Fixing c canonically gives every j-invariant a reproducible coordinate
    pair across runs and machines.
    """

    def __init__(self, p):
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        if p < 3 or p >= P_LIMIT:
            raise DomainError(f"p must be an odd prime below 2^31, got {p}")
        self.p = p
        c = 2
        while pow(c, (p - 1) // 2, p) != p - 1:
            c += 1
        self.c = c

    def __eq__(self, other):
        return isinstance(other, Fp2) and other.p == self.p

    def __hash__(self):
        return hash(("Fp2", self.p))

    def __repr__(self):
        return f"Fp2(p={self.p}, c={self.c})"

    def element(self, c0, c1=0):
        return Fp2Element(c0 % self.p, c1 % self.p)

    def zero(self):
        return Fp2Element(0, 0)

    def one(self):
        return Fp2Element(1, 0)

    def add(self, a, b):
        return Fp2Element((a.c0 + b.c0) % self.p, (a.c1 + b.c1) % self.p)

    def sub(self, a, b):
        return Fp2Element((a.c0 - b.c0) % self.p, (a.c1 - b.c1) % self.p)

    def neg(self, a):
        return Fp2Element(-a.c0 % self.p, -a.c1 % self.p)

    def mul(self, a, b):
        p, c = self.p, self.c
        return Fp2Element(
            (a.c0 * b.c0 + c * (a.c1 * b.c1 % p)) % p,
            (a.c0 * b.c1 + a.c1 * b.c0) % p,
        )

    def inv(self, a):
        if a.c0 == 0 and a.c1 == 0:
            raise DomainError("inversion of zero in F_p^2")
        p = self.p
        norm = (a.c0 * a.c0 - self.c * (a.c1 * a.c1 % p)) % p
        ninv = pow(norm, p - 2, p)
        return Fp2Element(a.c0 * ninv % p, -a.c1 % p * ninv % p)

    def pow(self, a, e):
        if e < 0:
            a = self.inv(a)
            e = -e
        r = self.one()
        while e > 0:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def is_zero(self, a):
        return a.c0 == 0 and a.c1 == 0


class PolyFp2:
    """Univariate polynomial over F_p^2, coefficients lowest degree first."""

    def __init__(self, field, coeffs):
        self.field = field
        cs = list(coeffs)
        while cs and field.is_zero(cs[-1]):
            cs.pop()
        self.coeffs = cs

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __call__(self, x):
        F = self.field
        acc = F.zero()
        for coef in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), coef)
        return acc


def roots_with_multiplicity(poly, seed=0):
    """All roots of a nonzero PolyFp2 in F_p^2, mapped to multiplicities.

    Splits off the rational part with gcd(Y^(p^2) - Y, f), then extracts
    roots by randomized equal-degree splitting (deterministic given seed);
    a batch of one for ``kernels.fp2_poly_roots``.
    """
    if poly.degree < 0:
        raise DomainError("roots of the zero polynomial are undefined")
    if poly.degree > kernels.MAXD:
        raise DomainError(f"degree {poly.degree} exceeds supported bound {kernels.MAXD}")
    F = poly.field
    arr = np.zeros((1, kernels.MAXD + 1, 2), dtype=np.int64)
    arr[0, :poly.degree + 1] = poly.coeffs
    roots, mults, counts = kernels.fp2_poly_roots(
        arr, [poly.degree], F.p, F.c, seed & 0xFFFFFFFF
    )
    return {
        Fp2Element(*r): m
        for r, m in zip(roots[0, :counts[0]].tolist(), mults[0, :counts[0]].tolist())
    }
