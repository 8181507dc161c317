import math

import pytest
from hypothesis import given, settings, strategies as st

from ssig.arith import (
    DomainError,
    Fp2,
    Fp2Element,
    PolyFp2,
    factor,
    is_prime,
    kronecker,
    roots_with_multiplicity,
)


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


@pytest.fixture(scope="module")
def F13():
    return Fp2(13)


def elements(p):
    return st.builds(Fp2Element, st.integers(0, p - 1), st.integers(0, p - 1))


class TestFp2:
    def test_canonical_nonresidue(self, F13):
        assert F13.c == 2
        assert pow(F13.c, (13 - 1) // 2, 13) == 13 - 1

    @given(a=elements(13), b=elements(13), c=elements(13))
    def test_ring_axioms(self, F13, a, b, c):
        F = F13
        assert F.mul(a, b) == F.mul(b, a)
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == F.zero()
        assert F.sub(a, b) == F.add(a, F.neg(b))

    @given(a=elements(13))
    def test_inverse(self, F13, a):
        if F13.is_zero(a):
            with pytest.raises(DomainError):
                F13.inv(a)
        else:
            assert F13.mul(a, F13.inv(a)) == F13.one()

    @given(a=elements(13))
    @settings(max_examples=20)
    def test_multiplicative_order_divides_group_order(self, F13, a):
        if not F13.is_zero(a):
            assert F13.pow(a, 13 * 13 - 1) == F13.one()

    def test_element_reduces(self, F13):
        assert F13.element(-1, 14) == Fp2Element(12, 1)

    def test_str(self):
        assert str(Fp2Element(5, 0)) == "5+0*t"


def all_field_elements(F):
    return [Fp2Element(c0, c1) for c0 in range(F.p) for c1 in range(F.p)]


def exhaustive_roots(poly):
    return {x for x in all_field_elements(poly.field) if poly.field.is_zero(poly(x))}


class TestRootFinding:
    @pytest.mark.parametrize("p", [13, 37])
    def test_random_polynomials_match_exhaustive_scan(self, p):
        import random

        rng = random.Random(p)
        F = Fp2(p)
        for trial in range(50):
            deg = rng.randint(1, 8)
            coeffs = [F.element(rng.randrange(p), rng.randrange(p)) for _ in range(deg)]
            coeffs.append(F.element(1 + rng.randrange(p - 1), rng.randrange(p)))
            poly = PolyFp2(F, coeffs)
            found = roots_with_multiplicity(poly, seed=trial)
            assert set(found) == exhaustive_roots(poly)
            assert all(m >= 1 for m in found.values())
            assert sum(found.values()) <= poly.degree

    def test_known_multiplicities_from_linear_factors(self):
        import random

        rng = random.Random(7)
        F = Fp2(13)
        for trial in range(50):
            deg = rng.randint(1, 8)
            picked = [F.element(rng.randrange(13), rng.randrange(13)) for _ in range(deg)]
            expected = {}
            poly = PolyFp2(F, [F.one()])
            for r in picked:
                expected[r] = expected.get(r, 0) + 1
                # multiply by (Y - r)
                cs = [F.zero()] + poly.coeffs
                for k, coef in enumerate(poly.coeffs):
                    cs[k] = F.sub(cs[k], F.mul(r, coef))
                poly = PolyFp2(F, cs)
            assert roots_with_multiplicity(poly, seed=trial) == expected

    def test_seed_independence(self):
        F = Fp2(37)
        poly = PolyFp2(F, [F.element(k * k + 1, k) for k in range(9)])
        base = roots_with_multiplicity(poly, seed=0)
        for seed in (1, 2, 12345):
            assert roots_with_multiplicity(poly, seed=seed) == base

    def test_degree_limits(self):
        F = Fp2(13)
        with pytest.raises(DomainError):
            roots_with_multiplicity(PolyFp2(F, []))
        too_big = [F.one()] * 10
        with pytest.raises(DomainError):
            roots_with_multiplicity(PolyFp2(F, too_big))
