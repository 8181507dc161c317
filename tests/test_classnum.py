import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from ssig import classnum
from ssig.arith import DomainError, kronecker
from ssig.classnum import (
    HURWITZ_D_LIMIT,
    _isqrt_array,
    _reduced_form_count,
    _reduced_form_family,
    cache_trace_family,
    decompose,
    hurwitz,
    hurwitz_modified,
)

from _oracles import class_number, is_fundamental, unit_factor


class TestClassNumber:
    def test_frozen_values(self):
        assert class_number(-3) == 1
        assert class_number(-4) == 1
        assert class_number(-23) == 3
        assert class_number(-47) == 5
        assert class_number(-71) == 7
        assert class_number(-163) == 1

    def test_domain(self):
        with pytest.raises(DomainError):
            class_number(5)
        with pytest.raises(DomainError):
            class_number(-5)  # -5 = 3 mod 4 is not a discriminant


class TestUnitsAndFundamental:
    def test_unit_factor(self):
        assert unit_factor(-3) == 3
        assert unit_factor(-4) == 2
        assert unit_factor(-7) == 1

    def test_is_fundamental(self):
        fundamentals = {-3, -4, -7, -8, -11, -15, -19, -20, -23, -24}
        for d in range(-25, 0):
            assert is_fundamental(d) == (d in fundamentals), d
        assert not is_fundamental(5)


class TestDecompose:
    def test_frozen_values(self):
        assert decompose(12) == (-3, 2)
        assert decompose(27) == (-3, 3)
        assert decompose(75) == (-3, 5)

    def test_reconstruction_property(self):
        for D in range(3, 400):
            if (-D) % 4 not in (0, 1):
                continue
            d_fund, f = decompose(D)
            assert d_fund * f * f == -D
            assert is_fundamental(d_fund)

    def test_domain(self):
        with pytest.raises(DomainError):
            decompose(-3)
        with pytest.raises(DomainError):
            decompose(5)


class TestHurwitz:
    def test_frozen_values(self):
        expected = {
            0: Fraction(-1, 12),
            3: Fraction(1, 3),
            4: Fraction(1, 2),
            7: 1,
            8: 1,
            11: 1,
            12: Fraction(4, 3),
            15: 2,
            16: Fraction(3, 2),
            20: 2,
            23: 3,
            24: 2,
            27: Fraction(4, 3),
        }
        for D, value in expected.items():
            assert hurwitz(D) == value, D

    def test_vanishes_off_discriminants(self):
        for D in (1, 2, 5, 6, 9, 10, 13, 14):
            assert hurwitz(D) == 0

    def test_24_times_h_is_integral(self):
        for D in range(0, 300):
            assert (24 * hurwitz(D)).denominator == 1

    def test_domain(self):
        with pytest.raises(DomainError):
            hurwitz(-1)

    def test_limit(self):
        assert hurwitz(HURWITZ_D_LIMIT) == hurwitz_by_class_numbers(HURWITZ_D_LIMIT)
        for D in (HURWITZ_D_LIMIT + 1, 10**12):
            with pytest.raises(DomainError, match="HURWITZ_D_LIMIT"):
                hurwitz(D)


def test_isqrt_array_is_exact_where_floats_round():
    # near 9e18 a float64 cannot tell k^2 - 1 from k^2
    k = 3_000_000_000
    xs = [0, 1, 2, 3, 4, 99, 100, k * k - 1, k * k, k * k + 1, (k + 1) ** 2 - 1]
    roots = _isqrt_array(np.array(xs, dtype=np.int64))
    assert roots.tolist() == [math.isqrt(x) for x in xs]


def hurwitz_by_class_numbers(D):
    """H(D) as the sum of h(d)/u(d) over orders d f^2 = -D, by the
    brute-force class_number."""
    total = Fraction(0)
    f = 1
    while f * f <= D:
        if D % (f * f) == 0 and (-D // (f * f)) % 4 in (0, 1):
            d = -D // (f * f)
            total += Fraction(class_number(d), unit_factor(d))
        f += 1
    return total


class TestHurwitzOracle:
    def test_every_small_discriminant(self):
        for D in range(1, 5001):
            assert hurwitz(D) == hurwitz_by_class_numbers(D), D

    def test_trace_discriminants_at_35_cubed(self):
        # D = 4m - s^2 for m = 35^3, the largest trace the benchmark runs
        for s in range(0, math.isqrt(171500) + 1, 16):
            D = 171500 - s * s
            assert hurwitz(D) == hurwitz_by_class_numbers(D), D


def sigma(m):
    return sum(d for d in range(1, m + 1) if m % d == 0)


def min_sum(m):
    return sum(min(d, m // d) for d in range(1, m + 1) if m % d == 0)


def hurwitz_kronecker_lhs(m):
    smax = math.isqrt(4 * m)
    return sum(hurwitz(4 * m - s * s) for s in range(-smax, smax + 1))


class TestHurwitzKronecker:
    def test_identity_small_range(self):
        for m in range(1, 300):
            assert hurwitz_kronecker_lhs(m) == 2 * sigma(m) - min_sum(m), m

    def test_prime_specialization(self):
        # for prime ell the right side collapses to 2*ell
        for ell in (2, 3, 5, 7, 11, 13, 97):
            assert hurwitz_kronecker_lhs(ell) == 2 * ell


@functools.lru_cache(maxsize=None)
def family(m):
    return _reduced_form_family(m).tolist()


def per_discriminant(m, s):
    """6 H(4m - s^2) by the count of the forms of that one discriminant."""
    sixths = 6 * _reduced_form_count(4 * m - s * s)
    assert sixths.denominator == 1
    return int(sixths)


class TestTraceFamily:
    """``_reduced_form_family(m)`` against ``_reduced_form_count``, called
    directly, so that neither reads the cache of ``hurwitz``."""

    def test_every_s_of_every_small_m(self):
        for m in range(1, 501):
            assert len(family(m)) == math.isqrt(4 * m - 1) + 1, m
            assert family(m) == [per_discriminant(m, s) for s in range(len(family(m)))], m

    @pytest.mark.parametrize("m", [35**3, 10**5, 10**6])
    def test_sampled_s_up_to_the_limit(self, m):
        smax = math.isqrt(4 * m - 1)
        samples = sorted({*range(0, smax + 1, 37), *range(smax - 5, smax + 1)})
        for s in samples:
            assert family(m)[s] == per_discriminant(m, s), (m, s)

    def test_hurwitz_kronecker_identity(self):
        # 6 times the sum over s in [-S, S] of H(4m - s^2), where the
        # family leaves out H(0) = -1/12 at s = +-2 sqrt(m) for square m
        for m in [*range(1, 1001), 35**3, 10**6]:
            square = math.isqrt(m) ** 2 == m
            lhs = 2 * sum(family(m)) - family(m)[0] - square
            assert lhs == 6 * (2 * sigma(m) - min_sum(m)), m

    def test_each_a_in_a_block_of_its_own(self, monkeypatch):
        monkeypatch.setattr(classnum, "FAMILY_BLOCK_ENTRIES", 1)
        for m in [*range(1, 201), 7776, 35**3]:
            assert _reduced_form_family(m).tolist() == family(m), m

    def test_unit_corrections(self):
        # D/4 is a square at D = 36 = 4 * 9; D/3 at 27 = 4 * 7 - 1^2 and
        # at 12 = 4 * 3
        for m, s, D in ((9, 0, 36), (7, 1, 27), (3, 0, 12)):
            assert family(m)[s] == 6 * hurwitz_by_class_numbers(D), D


class TestCacheTraceFamily:
    def test_fills_the_cache_of_hurwitz(self, monkeypatch):
        monkeypatch.setattr(classnum, "_hurwitz_cache", {})
        cache_trace_family(183)
        smax = math.isqrt(4 * 183 - 1)
        assert classnum._hurwitz_cache == {
            4 * 183 - s * s: Fraction(per_discriminant(183, s), 6) for s in range(smax + 1)}
        assert hurwitz(4 * 183 - 11**2) == hurwitz_by_class_numbers(4 * 183 - 11**2)

    def test_counts_nothing_when_the_cache_holds_the_family(self, monkeypatch):
        monkeypatch.setattr(classnum, "_hurwitz_cache", {})
        for s in range(math.isqrt(4 * 50 - 1) + 1):
            hurwitz(200 - s * s)
        counted = []
        monkeypatch.setattr(classnum, "_reduced_form_family", counted.append)
        cache_trace_family(50)
        assert counted == []

    def test_counts_the_family_when_one_value_is_missing(self, monkeypatch):
        monkeypatch.setattr(classnum, "_hurwitz_cache", {})
        for s in range(1, math.isqrt(4 * 50 - 1) + 1):
            hurwitz(200 - s * s)
        cache_trace_family(50)
        assert classnum._hurwitz_cache[200] == hurwitz_by_class_numbers(200)


class TestHurwitzModified:
    def test_h0(self):
        assert hurwitz_modified(0, 109) == Fraction(108, 24)

    def test_split_branch(self):
        assert hurwitz_modified(7, 109) == 0

    def test_inert_branch(self):
        assert hurwitz_modified(11, 109) == 1
        assert hurwitz_modified(11, 109) == hurwitz(11)

    def test_ramified_branch(self):
        # p divides the fundamental discriminant but not the conductor
        assert hurwitz_modified(7, 7) == Fraction(1, 2)
        assert hurwitz_modified(11, 11) == hurwitz(11) / 2

    def test_conductor_branch(self):
        # -75 = -3 * 5^2; p = 5 divides the conductor
        assert hurwitz_modified(75, 5) == hurwitz(3)
        # -48 = -3 * 4^2 with p dividing the conductor is impossible for p >= 5;
        # -300 = -3 * 10^2 and p = 5 gives H(12)
        assert hurwitz_modified(300, 5) == hurwitz(12)

    def test_conductor_branch_recurses(self):
        # -275 = -11 * 5^2 and 5 splits in Q(sqrt(-11)): H_5(275) = H_5(11) = 0
        assert hurwitz_modified(275, 5) == 0 != hurwitz(11)
        # -7 * 13^4 = -7 * (13^2)^2, and 13 is inert in Q(sqrt(-7))
        assert hurwitz_modified(7 * 13**4, 13) == hurwitz(7) == 1

    def test_vanishes_off_discriminants(self):
        for D in (1, 2, 5, 6):
            assert hurwitz_modified(D, 13) == 0

    def test_never_exceeds_hurwitz(self):
        for D in range(1, 200):
            for p in (5, 13, 109):
                assert 0 <= hurwitz_modified(D, p) <= hurwitz(D)

    def test_matches_branches_of_the_decomposition(self):
        # the branch formula on -D = d_fund f^2, as in the definition
        def by_decomposition(D, p):
            if D == 0:
                return Fraction(p - 1, 24)
            if D % 4 in (1, 2):
                return Fraction(0)
            d_fund, f = decompose(D)
            if f % p == 0:
                return by_decomposition(D // (p * p), p)
            return {1: Fraction(0), -1: hurwitz(D), 0: hurwitz(D) / 2}[
                kronecker(d_fund, p)
            ]

        for p in (5, 7, 11, 13, 37, 109):
            for D in range(6000):
                assert hurwitz_modified(D, p) == by_decomposition(D, p), (D, p)

    def test_domain(self):
        with pytest.raises(DomainError):
            hurwitz_modified(3, 4)
        with pytest.raises(DomainError):
            hurwitz_modified(-1, 13)
