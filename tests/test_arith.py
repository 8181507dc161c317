import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ssig import kernels
from ssig.arith import DomainError, factor, is_prime, kronecker, nonresidue

from _scalar_roots import _f2mul, _f2pow, horner, monic


def trial_division(n):
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


class TestIsPrime:
    def test_small_range_matches_trial_division(self):
        for n in range(10000):
            assert is_prime(n) == trial_division(n)

    def test_named_primes(self):
        assert is_prime(1009)
        assert is_prime(2689)

    def test_domain(self):
        with pytest.raises(DomainError):
            is_prime(-1)
        with pytest.raises(DomainError):
            is_prime(1 << 63)


class TestFactor:
    def test_products_of_increasing_primes(self):
        for n in range(1, 3000):
            fs = factor(n)
            assert math.prod(q**e for q, e in fs) == n
            assert [q for q, _ in fs] == sorted({q for q, _ in fs})
            assert all(trial_division(q) and e >= 1 for q, e in fs)

    def test_prime_powers(self):
        assert factor(35**5) == [(5, 5), (7, 5)]
        assert factor(2**40 * 3) == [(2, 40), (3, 1)]
        assert factor(2**31 - 1) == [(2**31 - 1, 1)]

    def test_domain(self):
        with pytest.raises(DomainError):
            factor(0)


class TestKronecker:
    def test_known_values(self):
        assert kronecker(-7, 113) == 1
        assert kronecker(-11, 109) == -1

    def test_euler_criterion_oracle(self):
        # (a|p) = a^((p-1)/2) mod p for odd primes p
        for p in (3, 5, 7, 11, 13, 109, 113, 193):
            for a in range(-30, 31):
                e = pow(a % p, (p - 1) // 2, p)
                expect = 0 if a % p == 0 else (1 if e == 1 else -1)
                assert kronecker(a, p) == expect, (a, p)

    def test_multiplicative_in_n(self):
        for a in range(-20, 21):
            for m in range(1, 30):
                for n in range(1, 30):
                    assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)

    def test_domain(self):
        with pytest.raises(DomainError):
            kronecker(3, 0)


def elements(p):
    return st.tuples(st.integers(0, p - 1), st.integers(0, p - 1))


def check_fp2_mul(a, b, c, p):
    """kernels.fp2_mul on (..., 2) arrays of reduced values against the
    scalar multiply, then the ring axioms it must obey; every product
    it returns is already reduced."""
    nr = nonresidue(p)

    def mul(x, y):
        xy = kernels.fp2_mul(x, y, p, nr)
        assert ((0 <= xy) & (xy < p)).all()
        return xy

    ab = mul(a, b)
    assert ab.tolist() == [list(_f2mul(*x, *y, p, nr))
                           for x, y in zip(a.tolist(), b.tolist())]
    assert np.array_equal(ab, mul(b, a))
    assert np.array_equal(mul(ab, c), mul(a, mul(b, c)))
    assert np.array_equal(mul(a, (b + c) % p), (ab + mul(a, c)) % p)


class TestFp2:
    def test_canonical_nonresidue(self):
        assert nonresidue(13) == 2
        assert pow(2, (13 - 1) // 2, 13) == 13 - 1

    def test_nonresidue_is_the_smallest(self):
        for p in (3, 5, 7, 13, 37, 71, 1009, 2**31 - 1):
            c = nonresidue(p)
            symbols = [pow(a, (p - 1) // 2, p) for a in range(1, c + 1)]
            assert symbols == [1] * (c - 1) + [p - 1]

    def test_nonresidue_domain(self):
        with pytest.raises(DomainError, match="15 is not prime"):
            nonresidue(15)
        with pytest.raises(DomainError, match="odd prime below 2\\^31, got 2$"):
            nonresidue(2)
        above = next(q for q in range(2**31, 2**31 + 100) if is_prime(q))
        with pytest.raises(DomainError, match=f"odd prime below 2\\^31, got {above}"):
            nonresidue(above)

    @given(a=elements(13), b=elements(13), c=elements(13))
    def test_ring_axioms(self, a, b, c):
        check_fp2_mul(*(np.array([x], np.int64) for x in (a, b, c)), 13)

    def test_ring_axioms_at_int64_headroom(self):
        # every product at p = 2^31 - 1 is close to 2^62, so each
        # component, a sum of two of them, is close to 2^63 before it is
        # reduced
        p = 2**31 - 1
        rng = np.random.default_rng(0)
        a, b, c = rng.integers(p - 1000, p, (3, 200, 2))
        check_fp2_mul(a, b, c, p)
        check_fp2_mul(*rng.integers(0, p, (3, 200, 2)), p)

    def test_multiplicative_order_divides_group_order(self):
        # every nonzero element of F_13^2 at once, raised to 13^2 - 1 by
        # square-and-multiply with kernels.fp2_mul
        p, c, a = 13, nonresidue(13), all_field_elements(13)[1:]
        x, r = np.array(a, np.int64), np.array([[1, 0]] * len(a), np.int64)
        e = p * p - 1
        while e:
            if e & 1:
                r = kernels.fp2_mul(r, x, p, c)
            x = kernels.fp2_mul(x, x, p, c)
            e >>= 1
        assert (r == (1, 0)).all()
        assert all(_f2pow(*v, p * p - 1, p, c) == (1, 0) for v in a)


def all_field_elements(p):
    return [(c0, c1) for c1 in range(p) for c0 in range(p)]


def roots_of(coeffs, p, c, seed):
    """Root-multiplicity map of one polynomial, given by its (c0, c1)
    coefficients lowest degree first, from kernels.fp2_poly_roots on a
    batch of one: the polynomial made monic, with no known roots."""
    owner, roots, mults = kernels.fp2_poly_roots(
        [monic(coeffs, p, c)], p, c, seed, np.zeros((1, 0, 2), np.int64), [0])
    assert not owner.any()
    return {tuple(r): m for r, m in zip(roots.tolist(), mults.tolist())}


def exhaustive_roots(coeffs, p, c):
    return {x for x in all_field_elements(p) if horner(coeffs, *x, p, c) == (0, 0)}


def times_linear(coeffs, r, p, c):
    """The coefficients of f * (Y - r)."""
    out = [(0, 0)] + coeffs
    for k, coef in enumerate(coeffs):
        r0, r1 = _f2mul(*r, *coef, p, c)
        out[k] = ((out[k][0] - r0) % p, (out[k][1] - r1) % p)
    return out


class TestRootFinding:
    @pytest.mark.parametrize("p", [13, 37])
    def test_random_polynomials_match_exhaustive_scan(self, p):
        rng = random.Random(p)
        c = nonresidue(p)
        for trial in range(50):
            deg = rng.randint(1, 8)
            coeffs = [(rng.randrange(p), rng.randrange(p)) for _ in range(deg)]
            coeffs.append((1 + rng.randrange(p - 1), rng.randrange(p)))
            found = roots_of(coeffs, p, c, seed=trial)
            assert set(found) == exhaustive_roots(coeffs, p, c)
            assert all(m >= 1 for m in found.values())
            assert sum(found.values()) <= deg

    def test_known_multiplicities_from_linear_factors(self):
        rng = random.Random(7)
        c = nonresidue(13)
        for trial in range(50):
            deg = rng.randint(1, 8)
            picked = [(rng.randrange(13), rng.randrange(13)) for _ in range(deg)]
            expected = {}
            coeffs = [(1, 0)]
            for r in picked:
                expected[r] = expected.get(r, 0) + 1
                coeffs = times_linear(coeffs, r, 13, c)
            assert roots_of(coeffs, 13, c, seed=trial) == expected

    def test_seed_independence(self):
        c = nonresidue(37)
        coeffs = [((k * k + 1) % 37, k) for k in range(9)]
        base = roots_of(coeffs, 37, c, seed=0)
        for seed in (1, 2, 12345):
            assert roots_of(coeffs, 37, c, seed=seed) == base

    def test_degree_9_product_of_linear_factors_matches_exhaustive_scan(self):
        # one degree past the scalar oracle's MAXD = 8; the root finder has
        # no degree bound
        c = nonresidue(13)
        picked = [(1, 0), (1, 0), (2, 3), (5, 7), (5, 7), (5, 7), (0, 1), (12, 12), (4, 9)]
        coeffs = [(1, 0)]
        for r in picked:
            coeffs = times_linear(coeffs, r, 13, c)
        found = roots_of(coeffs, 13, c, seed=0)
        assert found == {(1, 0): 2, (2, 3): 1, (5, 7): 3, (0, 1): 1, (12, 12): 1, (4, 9): 1}
        assert set(found) == exhaustive_roots(coeffs, 13, c)
