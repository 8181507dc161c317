import math

import numpy as np
import pytest

from ssig import classnum
from ssig.arith import DomainError, is_prime
from ssig.classnum import HURWITZ_D_LIMIT
from ssig.brandt import TheoremViolation, brandt_powers, trace_formula, vertex_count
from ssig.ssgraph import IsogenyGraph

from _dense import dense
from _oracles import sigma_coprime
from _oracles import trace_formula as trace_by_fractions


class TestSigmaCoprime:
    def test_values(self):
        assert sigma_coprime(6, 5) == 12
        assert sigma_coprime(6, 3) == 3  # only 1 and 2 are coprime to 3
        assert sigma_coprime(8, 109) == 15

    def test_matches_divisor_loop(self):
        for m in range(1, 400):
            for p in (2, 3, 5, 6, 7, 109):
                assert sigma_coprime(m, p) == sum(
                    d for d in range(1, m + 1) if m % d == 0 and math.gcd(d, p) == 1
                ), (m, p)

    def test_row_sums_of_prime_powers(self, graphs):
        g = graphs(109, 2)
        for k, m in enumerate(brandt_powers(g, 3)):
            assert set(m.sum(axis=1).tolist()) == {sigma_coprime(2**k, 109)}


class TestVertexCount:
    def test_congruence_one_mod_twelve(self):
        assert vertex_count(13) == 1
        assert vertex_count(109) == 9
        assert vertex_count(1009) == 84

    def test_other_residues(self):
        assert vertex_count(5) == 1
        assert vertex_count(7) == 1
        assert vertex_count(11) == 2
        assert vertex_count(23) == 3

    def test_domain(self):
        with pytest.raises(DomainError):
            vertex_count(4)


class TestTraceFormula:
    def test_frozen_values(self):
        assert trace_formula(109, 1) == 9
        assert trace_formula(109, 2) == 1
        assert trace_formula(109, 3) == 4
        assert trace_formula(109, 6) == 10
        assert trace_formula(109, 9) == 17
        assert trace_formula(193, 2) == 0
        assert trace_formula(1009, 2) == 0
        assert trace_formula(1009, 4) == 84

    def test_single_vertex_prime(self):
        # p = 13 has one supersingular j, with ell + 1 loops, so
        # Tr B(ell^k) = sigma(ell^k).  Each of these m has terms with
        # 13^2 | 4m - s^2, where H_13 must recurse on (4m - s^2) / 13^2
        for ell, k in ((2, 12), (3, 8), (5, 6), (7, 4), (7, 6)):
            assert trace_formula(13, ell**k) == sigma_coprime(ell**k, 13)

    def test_two_levels_of_p_in_the_conductor(self, graphs):
        # 4 * 9261 - 9^2 = 37^2 * 27, so the term is H_37(27), which is 0
        # because 37 splits in Q(sqrt(-3)); the matrices give the reference
        a = brandt_powers(graphs(37, 3), 3)[-1]
        b = brandt_powers(graphs(37, 7), 3)[-1]
        assert trace_formula(37, 9261) == np.trace(a @ b)

    def test_matches_the_fraction_sum_over_every_s(self, monkeypatch):
        # each side from a cache of its own, so that trace_formula counts
        # every family and the oracle every discriminant alone
        for m in range(1, 401):
            monkeypatch.setattr(classnum, "_hurwitz_cache", {})
            got = {p: trace_formula(p, m) for p in (5, 13, 37, 109) if m % p}
            monkeypatch.setattr(classnum, "_hurwitz_cache", {})
            assert got == {p: trace_by_fractions(p, m) for p in got}, m

    def test_terms_with_p_squared_in_d_and_with_d_zero(self, monkeypatch):
        # H_13 recurses on D / 13^2 at s = 15; D = 0 at s = 2 sqrt(m)
        assert 4 * 183 - 15**2 == 3 * 13**2
        for p, m in ((13, 183), (13, 14**2), (109, 42**2)):
            monkeypatch.setattr(classnum, "_hurwitz_cache", {})
            got = trace_formula(p, m)
            monkeypatch.setattr(classnum, "_hurwitz_cache", {})
            assert got == trace_by_fractions(p, m), (p, m)

    def test_degree_one_gives_vertex_count(self):
        for p in (13, 37, 109, 193, 433, 1009):
            assert trace_formula(p, 1) == vertex_count(p)

    def test_domain(self):
        with pytest.raises(DomainError):
            trace_formula(12, 2)
        with pytest.raises(DomainError):
            trace_formula(109, 0)
        with pytest.raises(DomainError):
            trace_formula(109, 109)
        with pytest.raises(DomainError, match="HURWITZ_D_LIMIT"):
            trace_formula(109, HURWITZ_D_LIMIT // 4 + 1)


@pytest.mark.parametrize("p", [109, 193, 433, 1009])
@pytest.mark.parametrize("ell", [2, 3])
class TestRouteAgreement:
    def test_prime_power_traces_match_formula(self, graphs, p, ell):
        for k, m in enumerate(brandt_powers(graphs(p, ell), 3)):
            assert np.trace(m) == trace_formula(p, ell**k)

    def test_coprime_product_trace_matches_formula(self, graphs, p, ell):
        other = 5 if ell == 3 else 3
        a = brandt_powers(graphs(p, ell), 1)[1]
        b = brandt_powers(graphs(p, other), 1)[1]
        assert np.trace(a @ b) == trace_formula(p, ell * other)

    def test_entrywise_product_equals_mixed_trace(self, graphs, p, ell):
        other = 5 if ell == 3 else 3
        a = dense(graphs(p, ell))
        b = dense(graphs(p, other))
        assert int((a * b).sum()) == trace_formula(p, ell * other)


class TestBrandtMatrixAlgebra:
    def test_recurrence_base_cases(self, graphs):
        g = graphs(109, 2)
        (identity,) = brandt_powers(g, 0)
        assert np.array_equal(identity, np.eye(9, dtype=np.int64))
        assert np.array_equal(brandt_powers(g, 1)[1], dense(g))

    def test_symmetry_preserved(self, graphs):
        m = brandt_powers(graphs(109, 3), 3)[-1]
        assert np.array_equal(m, m.T)

    def test_power_domain(self, graphs):
        g = graphs(109, 2)
        with pytest.raises(DomainError):
            brandt_powers(g, -1)
        with pytest.raises(DomainError):
            brandt_powers(g, 99)  # entries would leave int64 range


def dense_powers(A, ell, k):
    """B(ell^0..k) by the dense recurrence B(ell^j) = B(ell^(j-1)) A - ell B(ell^(j-2))."""
    out = [np.eye(len(A), dtype=np.int64), A]
    for _ in range(k - 1):
        out.append(out[-1] @ A - ell * out[-2])
    return out[: k + 1]


class TestGatherRecurrence:
    @pytest.mark.parametrize("ell", [2, 3, 5, 7])
    def test_matches_dense_products_and_trace_formula(self, graphs, ell):
        for p in range(13, 400, 12):
            if not is_prime(p):
                continue
            g = graphs(p, ell)
            powers = brandt_powers(g, 4)
            want = dense_powers(dense(g), ell, 4)
            assert len(powers) == 5
            for k, (got, oracle) in enumerate(zip(powers, want)):
                assert got.dtype == np.int64
                assert np.array_equal(got, oracle), (p, ell, k)
                assert (got.sum(axis=1) == sigma_coprime(ell**k, p)).all()
                assert np.trace(got) == trace_formula(p, ell**k), (p, ell, k)

    @pytest.mark.parametrize("ell", [2, 7])
    def test_shuffled_columns_match_dense_products(self, graphs, ell):
        g = graphs(1009, ell)
        cols = np.random.default_rng(ell).permutation(g.n)[:20]
        want = dense_powers(dense(g), ell, 4)
        for k, got in enumerate(brandt_powers(g, 4, cols)):
            assert got.shape == (g.n, 20)
            assert np.array_equal(got, want[k][:, cols]), k

    def test_rejects_irregular_base(self, graphs):
        g = graphs(109, 2)
        with pytest.raises(TheoremViolation, match="sum to 3"):
            IsogenyGraph(p=g.p, ell=g.ell, vertices=g.vertices,
                         table=np.c_[g.table, np.arange(g.n)])  # ell + 2 neighbours

    def test_rejects_asymmetric_base(self, graphs):
        # rows [[1, 2, 0], [0, 1, 2], [2, 0, 1]] of B(2) sum to 3, but the
        # matrix is not symmetric
        with pytest.raises(TheoremViolation, match="symmetric"):
            IsogenyGraph(p=109, ell=2, vertices=np.arange(3),
                         table=np.array([[0, 1, 1], [1, 2, 2], [0, 0, 2]]))
