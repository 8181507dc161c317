"""End-to-end acceptance suite.

Each test covers one release criterion, checks it with tolerance zero,
and prints a single PASS line on success (pytest fails the test, and
thus withholds the line, otherwise).  Run with ``pytest -v`` for the
per-criterion verdicts or ``-s`` to see the printed lines.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from ssig import (
    GraphProperty,
    biroute,
    brandt_powers,
    build_graph,
    derive_congruences,
    edit_distance,
    find_first_prime,
    graph_stats,
    hurwitz,
    intersection_number,
    is_prime,
    trace_formula,
    vertex_count,
)
from ssig import kernels
from ssig.arith import nonresidue
from ssig.ssgraph import SUPPORTED_ELLS, validate_modpoly_table
from _residue_lists import NO_COMMON_23_RESIDUES, SIMPLE3_RESIDUES
from _scalar_roots import horner, monic


def report(num, text):
    print(f"criterion {num}: PASS — {text}")


def primes_1_mod_12(lo, hi):
    return [p for p in range(lo, hi, 12) if is_prime(p)]


@pytest.fixture(scope="module")
def sweep_graphs(graphs):
    """All graphs needed by the large sweeps, built once."""
    out = {}
    t0 = time.monotonic()
    for p in primes_1_mod_12(13, 3000):
        for ell in (2, 3):
            out[p, ell] = graphs(p, ell)
    out["elapsed"] = time.monotonic() - t0
    return out


def test_criterion_01_vertex_counts(sweep_graphs):
    checked = 0
    for (key, g) in sweep_graphs.items():
        if key == "elapsed":
            continue
        p, _ = key
        assert g.n == (p - 1) // 12, key
        checked += 1
    assert sweep_graphs["elapsed"] < 300
    report(1, f"{checked} graphs up to p = 3000 match the (p-1)/12 vertex count "
              f"in {sweep_graphs['elapsed']:.1f}s")


def test_criterion_02_named_first_primes():
    searches = [
        (GraphProperty("noLoops", (3,)), 97),
        (GraphProperty("noLoops", (2,)), 193),
        (GraphProperty("noLoops", (2,), undirected=False), 113),
        (GraphProperty("simple", (2,)), 1009),
        ([GraphProperty("noLoops", (2,)), GraphProperty("noLoops", (3,))], 1873),
        ([GraphProperty("simple", (2,)), GraphProperty("simple", (3,))], 2689),
    ]
    for props, expected in searches:
        t0 = time.monotonic()
        assert find_first_prime(props) == expected
        assert time.monotonic() - t0 < 10
    report(2, "first primes 97, 193, 113, 1009, 1873, 2689 all reproduced")


def test_criterion_03_congruence_lists():
    expected = [
        (GraphProperty("noLoops", (2,)), 168, (1, 25, 121)),
        (GraphProperty("noLoops", (3,)), 264, (1, 25, 49, 97, 169)),
        (GraphProperty("noMultiEdges", (2,)), 420, (1, 109, 121, 169, 289, 361)),
        (GraphProperty("simple", (2,)), 840, (1, 121, 169, 289, 361, 529)),
        (GraphProperty("simple", (3,)), 9240, SIMPLE3_RESIDUES),
        (GraphProperty("noCommonEdges", (2, 3)), 2760, NO_COMMON_23_RESIDUES),
    ]
    for prop, modulus, residues in expected:
        cs = derive_congruences(prop)
        assert cs.modulus == modulus, prop
        assert cs.residues == tuple(residues), prop
    report(3, "all six congruence lists match, set and modulus both exact")


def test_criterion_04_p109_dossier(graphs):
    s2 = graph_stats(graphs(109, 2))
    assert (s2.loop_count, s2.redundant_edges) == (1, 0)
    s3 = graph_stats(graphs(109, 3))
    assert (s3.loop_count, s3.redundant_edges) == (4, 3)
    assert s3.trace_l2 - 9 == 8
    # 8 = 2 + 2 + 4: two double loops (2 each) and one double edge (4)
    assert s3.re_loops == {2: 2}
    assert s3.re_offdiag == {2: 1}
    assert 2 * 2 * s3.re_offdiag[2] + 2 * s3.re_loops[2] == 8
    report(4, "p = 109 loop/redundant-edge ledger and its 2+2+4 "
              "decomposition reproduced")


def test_criterion_05_trace_route_agreement(graphs):
    for p in (109, 193, 433, 1009, 2689):
        _, b2, b4 = brandt_powers(graphs(p, 2), 2)
        _, b3, b9 = brandt_powers(graphs(p, 3), 2)
        assert np.trace(b2) == trace_formula(p, 2)
        assert np.trace(b3) == trace_formula(p, 3)
        assert np.trace(b4) == trace_formula(p, 4)
        assert np.trace(b9) == trace_formula(p, 9)
        assert np.trace(b2 @ b3) == trace_formula(p, 6)
        assert trace_formula(p, 1) == vertex_count(p) == len(b2)
    report(5, "graph traces equal class-number traces for all five primes")


def test_criterion_06_hurwitz_kronecker():
    t0 = time.monotonic()
    for m in range(1, 2001):
        lhs = Fraction(0)
        smax = math.isqrt(4 * m)
        for s in range(-smax, smax + 1):
            lhs += hurwitz(4 * m - s * s)
        divisors = [d for d in range(1, m + 1) if m % d == 0]
        rhs = 2 * sum(divisors) - sum(min(d, m // d) for d in divisors)
        assert lhs == rhs, m
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    for ell in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                59, 61, 67, 71, 73, 79, 83, 89, 97):
        smax = math.isqrt(4 * ell)
        assert sum(hurwitz(4 * ell - s * s)
                   for s in range(-smax, smax + 1)) == 2 * ell
    report(6, f"class-number identity exact for m <= 2000 in {elapsed:.1f}s, "
              "prime specialization exact for ell <= 97")


def test_criterion_07_bound_sweep(sweep_graphs):
    violations = 0
    for p in primes_1_mod_12(13, 2000):
        pair = {}
        for ell in (2, 3):
            g = sweep_graphs[p, ell]
            s = graph_stats(g)
            lo, hi = s.redundant_bracket()
            if s.loop_count > 2 * ell:
                violations += 1
            if not (lo <= s.redundant_edges <= hi):
                violations += 1
            if s.redundant_edges > s.redundant_bound():
                violations += 1
            pair[ell] = g
        inter = intersection_number(pair[2], pair[3])
        if inter > 11:
            violations += 1
        centered = edit_distance(pair[2], pair[3]) - Fraction(pair[2].n * 7, 2)
        if not (-22 <= centered <= 5):
            violations += 1
    assert violations == 0
    report(7, "loop, redundant-edge, intersection and edit-distance bounds "
              "hold below p = 2000 with zero violations")


def test_criterion_08_biroute(graphs):
    for p in (109, 193, 433):
        for R in (1, 2, 3):
            rep = biroute(graphs(p, 2), graphs(p, 3), R)
            assert rep.value_definitional == rep.value_telescoped
            assert rep.value_telescoped == rep.value_hurwitz
            assert rep.value_hurwitz <= rep.upper_bound
    assert biroute(graphs(109, 2), graphs(109, 3), 1).value_hurwitz == 10
    assert trace_formula(109, 6) == 10
    report(8, "three bi-route routes agree and respect the divisor-sum bound; "
              "R = 1 value at p = 109 equals Tr B(6) = 10")


def test_criterion_09_modpoly_and_root_finder():
    import random

    for ell in SUPPORTED_ELLS:
        validate_modpoly_table(ell)
    for p in (13, 37):
        rng = random.Random(p)
        c = nonresidue(p)
        for trial in range(50):
            deg = rng.randint(1, 8)
            coeffs = [(rng.randrange(p), rng.randrange(p)) for _ in range(deg)]
            coeffs.append((1 + rng.randrange(p - 1), rng.randrange(p)))
            _, roots, _ = kernels.fp2_poly_roots([monic(coeffs, p, c)], p, c, trial,
                                                 np.zeros((1, 0, 2), np.int64), [0])
            found = {tuple(r) for r in roots.tolist()}
            scan = {
                (c0, c1)
                for c0 in range(p)
                for c1 in range(p)
                if horner(coeffs, c0, c1, p, c) == (0, 0)
            }
            assert found == scan
    report(9, "modular-polynomial self-checks and 100 root-finder scan "
              "comparisons all pass")


def test_criterion_10_exact_identity_scope():
    """Every criterion above is an exact identity or bound check at desk
    scale; no tolerance parameter exists anywhere in the suite."""
    import ssig.analytics, ssig.brandt, ssig.classnum, ssig.congruence
    import inspect

    for mod in (ssig.analytics, ssig.brandt, ssig.classnum, ssig.congruence):
        source = inspect.getsource(mod)
        for tolerance_marker in ("isclose", "allclose", "pytest.approx",
                                 "rtol", "atol"):
            assert tolerance_marker not in source
    report(10, "acceptance is exact-identity/property-based throughout; "
               "no tolerances in the computational modules")
