import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ssig import analytics
from ssig.analytics import (
    biroute,
    biroute_bound,
    biroute_bound_closed,
    edit_distance,
    graph_stats,
    intersection_number,
)
from ssig.arith import DomainError, is_prime
from ssig.brandt import TheoremViolation, trace_formula
from ssig.ssgraph import IsogenyGraph

from _dense import dense

ELLS = (2, 3, 5, 7)
SMALL_PRIMES = [p for p in range(13, 400, 12) if is_prime(p)]


def dense_stats(g):
    """graph_stats' figures from the dense B(ell): triu/diag views, one
    mask per multiplicity and Tr B(ell^2) from the full matrix B(ell^2)."""
    A = dense(g)
    diag, upper = np.diag(A), np.triu(A, 1)

    def pairs(x):
        return int((x * (x - 1) // 2).sum())

    re_offdiag, re_loops = {}, {}
    for m in range(2, int(A.max()) + 1):
        if (upper == m).any():
            re_offdiag[m] = int((upper == m).sum()) * (m - 1)
        if (diag == m).any():
            re_loops[m] = int((diag == m).sum()) * (m - 1)
    return dict(
        loop_count=int(np.trace(A)),
        multi_edge_pair_count=pairs(upper) + pairs(diag),
        redundant_edges=int(np.maximum(upper - 1, 0).sum()
                            + np.maximum(diag - 1, 0).sum()),
        re_offdiag=re_offdiag,
        re_loops=re_loops,
        trace_l2=int(np.trace(A @ A - g.ell * np.eye(g.n, dtype=np.int64))),
    )


def dense_intersection(g1, g2):
    m = np.minimum(dense(g1), dense(g2))
    return int(np.triu(m, 1).sum() + np.diag(m).sum())


def dense_edit_distance(g1, g2):
    diff = np.abs(dense(g1) - dense(g2))
    return int(np.triu(diff, 1).sum() + np.diag(diff).sum())


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("ell", ELLS)
    def test_graph_stats_and_edges(self, graphs, ell):
        for p in SMALL_PRIMES:
            g = graphs(p, ell)
            s = graph_stats(g)
            for field, want in dense_stats(g).items():
                assert getattr(s, field) == want, (p, ell, field)
            upper = np.triu(dense(g))
            rows, cols = np.nonzero(upper)
            i, k, m = g.edges()
            assert np.array_equal(i, rows) and np.array_equal(k, cols)
            assert np.array_equal(m, upper[rows, cols])

    @pytest.mark.parametrize("ells", list(itertools.combinations(ELLS, 2)))
    def test_intersection_and_edit_distance(self, graphs, ells):
        for p in SMALL_PRIMES:
            g1, g2 = graphs(p, ells[0]), graphs(p, ells[1])
            for a, b in ((g1, g2), (g2, g1)):
                assert intersection_number(a, b) == dense_intersection(a, b)
                assert edit_distance(a, b) == dense_edit_distance(a, b)

    def test_every_one_unit_asymmetric_move_raises(self, graphs):
        """One table entry j of row i moved to k != j keeps the row at
        ell+1 entries but breaks symmetry; no such graph can be made, so
        none reaches graph_stats."""
        g = graphs(109, 3)
        moves = 0
        for i, row in enumerate(g.table):
            for j in np.unique(row):
                for k in range(g.n):
                    if k == j:
                        continue
                    table = g.table.copy()
                    table[i, np.flatnonzero(row == j)[0]] = k
                    table[i].sort()
                    with pytest.raises(TheoremViolation, match="symmetric"):
                        IsogenyGraph(p=g.p, ell=g.ell, vertices=g.vertices, table=table)
                    moves += 1
        assert moves == 256


class TestGraphStats109:
    def test_ell2(self, graphs):
        s = graph_stats(graphs(109, 2))
        assert s.n == 9
        assert s.loop_count == 1
        assert s.redundant_edges == 0
        assert s.multi_edge_pair_count == 0
        assert not s.is_simple

    def test_ell3(self, graphs):
        s = graph_stats(graphs(109, 3))
        assert s.loop_count == 4
        assert s.redundant_edges == 3
        # trace excess 8 decomposes over one double edge and two double loops
        assert s.trace_l2 - s.n == 8
        assert s.re_offdiag == {2: 1}
        assert s.re_loops == {2: 2}

    def test_p1009_simple(self, graphs):
        s = graph_stats(graphs(1009, 2))
        assert s.is_simple
        assert s.loop_count == 0
        assert s.redundant_edges == 0
        assert s.trace_l2 == s.n

    def test_bounds(self, graphs):
        s = graph_stats(graphs(109, 3))
        assert s.loop_bound() == 6
        assert s.redundant_bound() == 9
        lo, hi = s.redundant_bracket()
        assert lo <= s.redundant_edges <= hi


class TestIntersectionAndEditDistance:
    def test_p109_values(self, graphs):
        g2, g3 = graphs(109, 2), graphs(109, 3)
        assert intersection_number(g2, g3) == 5
        assert edit_distance(g2, g3) == 34 - 2 * 5

    def test_self_intersection_is_edge_count(self, graphs):
        g = graphs(109, 2)
        assert intersection_number(g, g) == g.edge_count()
        assert edit_distance(g, g) == 0

    def test_upper_bound(self, graphs):
        assert intersection_number(graphs(109, 2), graphs(109, 3)) <= 2 * 3 + 2 + 3

    def test_edit_distance_bracket(self, graphs):
        g2, g3 = graphs(109, 2), graphs(109, 3)
        centered = edit_distance(g2, g3) - Fraction(g2.n * (2 + 3 + 2), 2)
        assert -2 * (2 * 3 + 2 + 3) <= centered <= 2 + 3

    def test_rejects_mismatched_graphs(self, graphs):
        with pytest.raises(DomainError):
            intersection_number(graphs(109, 2), graphs(193, 2))


class TestBiroute:
    def test_p109_values(self, graphs):
        g2, g3 = graphs(109, 2), graphs(109, 3)
        expected = {1: 10, 2: 136, 3: 1068}
        for R, value in expected.items():
            rep = biroute(g2, g3, R)
            assert rep.value_definitional == value
            assert rep.value_telescoped == value
            assert rep.value_hurwitz == value
            assert value <= rep.upper_bound

    def test_r1_equals_mixed_trace(self, graphs):
        rep = biroute(graphs(109, 2), graphs(109, 3), 1)
        assert rep.value_hurwitz == trace_formula(109, 6) == 10

    @pytest.mark.parametrize("p", [109, 193, 433])
    @pytest.mark.parametrize("R", [1, 2, 3])
    def test_route_agreement_and_bound(self, graphs, p, R):
        rep = biroute(graphs(p, 2), graphs(p, 3), R)
        assert rep.value_definitional == rep.value_telescoped == rep.value_hurwitz
        assert rep.value_hurwitz <= rep.upper_bound
        assert rep.value_hurwitz <= biroute_bound_closed(2, 3, R)

    def test_single_method(self, graphs):
        rep = biroute(graphs(109, 2), graphs(109, 3), 2, method="hurwitz")
        assert rep.value_hurwitz == 136

    @pytest.mark.parametrize("method", ["definitional", "telescoped", "hurwitz"])
    def test_routes_not_run_hold_none(self, graphs, method):
        rep = biroute(graphs(109, 2), graphs(109, 3), 2, method=method)
        assert rep.routes() == [(method, 136)]
        assert rep.value == 136
        for name in ("definitional", "telescoped", "hurwitz"):
            got = getattr(rep, f"value_{name}")
            assert got == (136 if name == method else None)

    def test_large_prime(self, graphs):
        g2, g3 = graphs(10009, 2), graphs(10009, 3)
        rep = biroute(g2, g3, 3)
        assert rep.value_definitional == rep.value_telescoped == rep.value_hurwitz
        assert rep.value <= rep.upper_bound
        assert graph_stats(g2).trace_l2 == trace_formula(10009, 4)

    @pytest.mark.parametrize("width", [1, 8])
    @pytest.mark.parametrize("p", [109, 1009])
    def test_routes_agree_over_column_blocks(self, graphs, monkeypatch, p, width):
        # 8 columns leave a ragged last block at n = 9 and at n = 84
        monkeypatch.setattr(analytics, "BLOCK_ENTRIES", width * graphs(p, 2).n)
        for l1, l2 in itertools.combinations(ELLS, 2):
            for R in (1, 2, 3):
                rep = biroute(graphs(p, l1), graphs(p, l2), R)
                assert rep.value_definitional == rep.value_telescoped == rep.value_hurwitz

    def test_domain(self, graphs):
        g2, g3 = graphs(109, 2), graphs(109, 3)
        with pytest.raises(DomainError):
            biroute(g2, g2, 1)
        with pytest.raises(DomainError):
            biroute(g2, g3, 0)
        with pytest.raises(DomainError):
            biroute(g2, g3, 2, method="guess")

    def test_trace_limit_is_checked_before_any_route(self, graphs, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a route ran before the trace-degree check")

        monkeypatch.setattr("ssig.analytics.brandt_powers", unreachable)
        g5, g7 = graphs(109, 5), graphs(109, 7)
        for R in (4, 5):
            with pytest.raises(DomainError, match="HURWITZ_D_LIMIT"):
                biroute(g5, g7, R)


def divisor_tail_sum(l1, l2, r, s):
    """sum of divisors of l1^r l2^s above the square root of the product."""
    m = l1**r * l2**s
    return sum(d for d in range(1, m + 1) if m % d == 0 and d * d > m)


def sqrt_lower(x, scale=10**9):
    return Fraction(math.isqrt(x * scale * scale), scale)


class TestBirouteBounds:
    def test_frozen_values(self):
        assert [biroute_bound(2, 3, R) for R in (1, 2, 3)] == [29, 284, 2118]
        assert [biroute_bound_closed(2, 3, R) for R in (1, 2, 3)] == [39, 324, 2239]

    @pytest.mark.parametrize("rs", [(1, 1), (2, 2), (2, 3)])
    def test_divisor_tail_closed_form_inequality(self, rs):
        r, s = rs
        l1, l2 = 2, 3
        lhs = divisor_tail_sum(l1, l2, r, s)
        # the subtracted square root is replaced by a rational lower bound,
        # which only enlarges the right-hand side
        root = sqrt_lower(l1**r * l2**s)
        rhs = Fraction(
            l1 ** (r + 1) * l2 ** (s + 1) - l2 ** (s + 1), (l1 - 1) * (l2 - 1)
        ) - Fraction(r + 1, l2 - 1) * root
        assert lhs <= rhs

    @pytest.mark.parametrize("ells", [(2, 3), (2, 7), (3, 5), (5, 7)])
    def test_matches_divisor_loop(self, ells):
        l1, l2 = ells
        for R in (1, 2, 3):
            tails = sum(divisor_tail_sum(l1, l2, r, s) for r, s in
                        ((R, R), (R - 1, R), (R, R - 1), (R - 1, R - 1)))
            assert biroute_bound(l1, l2, R) == (l1 * l2) ** (R // 2) + 2 * tails

    def test_growth_rate_approaches_product(self):
        bounds = [biroute_bound_closed(2, 3, R) for R in range(1, 8)]
        ratios = [bounds[k + 1] / bounds[k] for k in range(6)]
        deviations = [abs(r - 6) for r in ratios]
        assert all(deviations[k + 1] < deviations[k] for k in range(5))
        assert deviations[-1] < 0.1

    def test_domain(self):
        with pytest.raises(DomainError):
            biroute_bound(3, 2, 1)
        with pytest.raises(DomainError):
            biroute_bound(2, 3, 0)
        with pytest.raises(DomainError):
            biroute_bound_closed(3, 3, 1)
