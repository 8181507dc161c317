import math
from fractions import Fraction

import pytest

from ssig.analytics import (
    BIROUTE_BYTES_LIMIT,
    biroute,
    biroute_bound,
    biroute_bound_closed,
    edit_distance,
    graph_stats,
    intersection_number,
)
from ssig.arith import DomainError
from ssig.brandt import trace_formula


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

    def test_byte_limit_admits_p30013_up_to_r3(self):
        n = 2501  # vertex count at p = 30013
        assert 2 * (3 + 1) * n * n * 8 <= BIROUTE_BYTES_LIMIT
        assert 2 * (5 + 1) * n * n * 8 > BIROUTE_BYTES_LIMIT

    def test_byte_limit_is_checked_before_any_route(self, graphs, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a matrix route ran before the byte-limit check")

        monkeypatch.setattr("ssig.analytics._cyclic_counts", unreachable)
        monkeypatch.setattr("ssig.analytics.brandt_powers", unreachable)
        g2, g3 = graphs(109, 2), graphs(109, 3)
        held = 2 * (2 + 1) * 9 * 9 * 8
        monkeypatch.setattr("ssig.analytics.BIROUTE_BYTES_LIMIT", held - 1)
        for method in ("definitional", "telescoped", "all"):
            with pytest.raises(DomainError, match="BIROUTE_BYTES_LIMIT"):
                biroute(g2, g3, 2, method=method)
        assert biroute(g2, g3, 2, method="hurwitz").value == 136

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

        monkeypatch.setattr("ssig.analytics._cyclic_counts", unreachable)
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
