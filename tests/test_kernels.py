"""The batched root finder against the per-polynomial scalar kernel."""

import random

import numpy as np
import pytest

from ssig import batched_roots, kernels
from ssig.arith import DomainError, nonresidue
from ssig.brandt import TheoremViolation

from _scalar_roots import MAXD, _f2mul, _pdiv_linear, horner, monic
from _scalar_roots import _fp2_poly_roots_one as scalar_roots


def times_linear(poly, r, p, c):
    """poly * (Y - r) for a list of (c0, c1) coefficients, lowest first."""
    cs = [(0, 0)] + poly
    for k, coef in enumerate(poly):
        r0, r1 = _f2mul(*r, *coef, p, c)
        cs[k] = ((cs[k][0] - r0) % p, (cs[k][1] - r1) % p)
    return cs


def random_batch(p, rng, rows):
    """Polynomials of every degree 1 to 8 in turn: a random monic cofactor
    times random linear factors, some repeated, times a unit."""
    c = nonresidue(p)
    coeffs = np.zeros((rows, MAXD + 1, 2), np.int64)
    degs = np.zeros(rows, np.int64)
    for i in range(rows):
        deg = 1 + i % MAXD
        poly = [(rng.randrange(p), rng.randrange(p))
                for _ in range(rng.randint(0, deg - 1))] + [(1, 0)]
        while len(poly) <= deg:
            r = (rng.randrange(p), rng.randrange(p))
            for _ in range(rng.randint(1, deg + 1 - len(poly))):
                poly = times_linear(poly, r, p, c)
        lead = (1 + rng.randrange(p - 1), rng.randrange(p))
        coeffs[i, :deg + 1] = [_f2mul(*lead, *coef, p, c) for coef in poly]
        degs[i] = deg
    return coeffs, degs


def no_known(rows):
    return np.zeros((rows, 0, 2), np.int64), np.zeros(rows, np.int64)


def as_maps(found, rows):
    """Root-multiplicity maps of the ``rows`` rows of a kernels.fp2_poly_roots
    output, which lists each distinct root once, sorted by owner and then
    by root in (c1, c0) order."""
    owner, roots, mults = (a.tolist() for a in found)
    order = [(i, r1, r0) for i, (r0, r1) in zip(owner, roots)]
    assert order == sorted(set(order))
    maps = [{} for _ in range(rows)]
    for i, r, m in zip(owner, roots, mults):
        maps[i][tuple(r)] = m
    return maps


def batched_maps(coeffs, degs, p, seed, known=None, known_counts=None):
    """The maps of kernels.fp2_poly_roots on every row made monic, one call
    per degree, with its known roots or none."""
    c = nonresidue(p)
    if known is None:
        known, known_counts = no_known(len(coeffs))
    maps = [None] * len(coeffs)
    for deg in sorted(set(degs.tolist())):
        rows = np.flatnonzero(degs == deg)
        found = kernels.fp2_poly_roots([monic(coeffs[i, :deg + 1], p, c) for i in rows], p, c,
                                       seed, known[rows], known_counts[rows])
        for i, m in zip(rows, as_maps(found, len(rows))):
            maps[i] = m
    return maps


def scalar_maps(coeffs, degs, p, seed):
    return [{tuple(r): m for r, m in zip(rs[:k].tolist(), ms[:k].tolist())}
            for rs, ms, k in (scalar_roots(row, deg, p, nonresidue(p), seed)
                              for row, deg in zip(coeffs, degs))]


@pytest.mark.parametrize("p,rows", [(13, 40), (37, 40), (10007, 30), (2**31 - 1, 12)])
def test_batched_matches_scalar_kernel(p, rows):
    rng = random.Random(p)
    coeffs, degs = random_batch(p, rng, rows)
    assert batched_maps(coeffs, degs, p, seed=5) == scalar_maps(coeffs, degs, p, seed=5)


def test_int64_headroom_roots_checked_by_evaluation():
    p = 2**31 - 1
    c = nonresidue(p)
    coeffs, degs = random_batch(p, random.Random(1), 12)
    maps = batched_maps(coeffs, degs, p, seed=0)
    assert sum(len(m) for m in maps) > 12
    for row, deg, found in zip(coeffs, degs, maps):
        for root, mult in found.items():
            # divide (Y - root) out mult times; each division is exact and
            # the last quotient no longer vanishes at the root
            quotient = row.copy()
            for d in range(deg, deg - mult, -1):
                assert horner(quotient[:d + 1], *root, p, c) == (0, 0)
                assert _pdiv_linear(quotient, d, *root, p, c) == 1
            assert horner(quotient[:deg - mult + 1], *root, p, c) != (0, 0)


def test_a_linear_and_a_quadratic_row():
    c = nonresidue(13)
    linear = [[(1, 0), (1, 0)]]  # Y + 1
    quadratic = [[(1, 0), (0, 0), (1, 0)]]  # Y^2 + 1 splits in F_13
    assert as_maps(kernels.fp2_poly_roots(linear, 13, c, 0, *no_known(1)), 1) == [
        {(12, 0): 1}]
    assert as_maps(kernels.fp2_poly_roots(quadratic, 13, c, 0, *no_known(1)), 1) == [
        {(5, 0): 1, (8, 0): 1}]


@pytest.mark.parametrize("coeffs,message", [
    ([[(1, 0), (2, 0)]], "row 0 is not monic"),  # 2Y + 1
    ([[(1, 0), (1, 0)], [(0, 0), (0, 0)]], "row 1 is not monic"),  # the zero row
    ([[(1, 0)]], r"shape \(N, d \+ 1, 2\), d >= 1; got \(1, 1, 2\)"),  # degree 0
])
def test_rows_that_are_not_monic_of_degree_at_least_1_are_refused(coeffs, message):
    with pytest.raises(DomainError, match=message):
        kernels.fp2_poly_roots(coeffs, 13, nonresidue(13), 0, *no_known(len(coeffs)))


# Y^2 - 1 at p = 13 with known roots of shape (N, K, 2) and counts that do
# not fit it: a count past K (with K = 0, too), more counts or more known
# rows than polynomials, a negative count, no root axis, a scalar count
@pytest.mark.parametrize("known_shape, counts", [
    ((1, 2, 2), [3]), ((1, 0, 2), [1]), ((1, 1, 2), [1, 1]), ((2, 1, 2), [0]),
    ((1, 1, 2), [-1]), ((1, 1), [0]), ((1, 0, 2), 0)])
def test_known_roots_that_do_not_fit_the_batch_are_refused(known_shape, counts):
    row = [[(12, 0), (0, 0), (1, 0)]]
    with pytest.raises(DomainError, match=r"not \(N, K, 2\) and \(N,\) with counts in \[0, K\]"):
        kernels.fp2_poly_roots(row, 13, nonresidue(13), 0, np.zeros(known_shape, np.int64),
                               counts)


def all_of_fp2(p):
    """Every element of F_p^2, as an (p^2, 2) array."""
    return np.stack(np.meshgrid(np.arange(p), np.arange(p), indexing="ij"),
                    axis=-1).reshape(-1, 2).astype(np.int64)


def fp2_square(x, p, c):
    return np.array([_f2mul(*a, *a, p, c) for a in x.tolist()],
                    np.int64).reshape(-1, 2)


@pytest.mark.parametrize("p", [13, 37, 257])
def test_fp2_sqrt_matches_brute_force_on_all_of_fp2(p):
    # 257 - 1 = 2^8: Tonelli-Shanks takes every one of its steps
    c = nonresidue(p)
    field = all_of_fp2(p)
    squares = {tuple(v) for v in fp2_square(field, p, c).tolist()}
    x, ok = batched_roots._fp2_sqrt(field, p, c)
    assert ok.tolist() == [tuple(a) in squares for a in field.tolist()]
    assert len(squares) == (p * p + 1) // 2
    assert np.array_equal(fp2_square(x[ok], p, c), field[ok])


@pytest.mark.parametrize("p", [2**31 - 1, 998244353])
def test_fp2_sqrt_on_random_elements(p):
    # 998244353 - 1 = 119 * 2^23
    c = nonresidue(p)
    rng = np.random.default_rng(p)
    roots = rng.integers(0, p, (200, 2))
    squares = fp2_square(roots, p, c)
    x, ok = batched_roots._fp2_sqrt(squares, p, c)
    assert ok.all()
    assert all(tuple(a) in (tuple(r), tuple(-r % p))
               for a, r in zip(x.tolist(), roots))
    # a is a square in F_p^2 exactly when its norm is a square in F_p
    a = rng.integers(0, p, (200, 2))
    x, ok = batched_roots._fp2_sqrt(a, p, c)
    norms = [(a0 * a0 - c * a1 * a1) % p for a0, a1 in a.tolist()]
    assert ok.tolist() == [pow(n, (p - 1) // 2, p) in (0, 1) for n in norms]
    assert 50 < ok.sum() < 150
    assert np.array_equal(fp2_square(x[ok], p, c), a[ok])


@pytest.mark.parametrize("p,rows", [(13, 40), (37, 40), (10007, 30), (2**31 - 1, 12)])
def test_known_roots_deflated_match_scalar_kernel(p, rows):
    # each row told some of its distinct roots, in shuffled order
    rng = random.Random(p + 1)
    coeffs, degs = random_batch(p, rng, rows)
    expected = scalar_maps(coeffs, degs, p, seed=5)
    known = np.zeros((rows, MAXD, 2), np.int64)
    known_counts = np.zeros(rows, np.int64)
    for i, row in enumerate(expected):
        told = rng.sample(sorted(row), rng.randint(0, len(row)))
        known[i, :len(told)] = np.reshape(told, (-1, 2))
        known_counts[i] = len(told)
    assert known_counts.sum() > rows // 2
    # as_maps asserts each root once: a known root the residual has too is
    # not repeated
    assert batched_maps(coeffs, degs, p, 5, known, known_counts) == expected


def test_known_root_that_leaves_a_remainder_raises():
    c = nonresidue(13)
    coeffs = [[(12, 0), (0, 0), (1, 0)]] * 2  # Y^2 - 1
    known = np.array([[(1, 0), (12, 0)], [(1, 0), (2, 0)]])
    with pytest.raises(TheoremViolation, match=r"known root \(2, 0\) of row 1"):
        kernels.fp2_poly_roots(coeffs, 13, c, 0, known, [2, 2])


def test_quadratics_in_closed_form():
    c = nonresidue(13)
    coeffs = np.zeros((3, 3, 2), np.int64)
    coeffs[0, :3] = [(4, 0), (4, 0), (1, 0)]  # (Y + 2)^2
    coeffs[1, :3] = [(c, 0), (0, 0), (12, 0)]  # c - Y^2: roots +-t
    # Y^2 - t has no root in F_p^2: t is not a square there, its norm -c
    # not being a square mod 13
    coeffs[2, :3] = [(0, 12), (0, 0), (1, 0)]
    assert pow(-c % 13, 6, 13) == 12
    assert batched_maps(coeffs, np.full(3, 2), 13, 0) == [
        {(11, 0): 2}, {(0, 1): 1, (0, 12): 1}, {}]


# Eight distinct roots in F_13^2 that the four shifts of the first
# splitting round leave with a factor of degree >= 3 for every seed 0 to 3
LATER_ROUND_ROOTS = [(0, 11), (1, 2), (1, 12), (2, 11), (3, 4), (4, 4), (6, 7), (8, 5)]


@pytest.mark.parametrize("seed", range(4))
def test_factors_left_by_the_first_round_split_in_later_rounds(seed, monkeypatch):
    p, c = 13, nonresidue(13)
    poly = [(1, 0)]
    for r in LATER_ROUND_ROOTS:
        poly = times_linear(poly, r, p, c)
    coeffs = np.array([poly], np.int64)
    chains = []
    powmod = batched_roots._powmod_shift

    def counted(low, *args):
        chains.append(len(low))
        return powmod(low, *args)

    monkeypatch.setattr(batched_roots, "_powmod_shift", counted)
    found = kernels.fp2_poly_roots(coeffs, p, c, seed, *no_known(1))
    # one chain for the four first-round shifts, then single-shift rounds
    assert chains[0] == 4 and chains[1:] and set(chains[1:]) == {1}
    assert as_maps(found, 1) == scalar_maps(coeffs, [8], p, seed) == [
        dict.fromkeys(LATER_ROUND_ROOTS, 1)]
