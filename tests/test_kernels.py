"""The batched root finder against the per-polynomial scalar kernel."""

import random

import numpy as np
import pytest

from ssig import batched_roots, kernels
from ssig.arith import Fp2, PolyFp2

# the scalar kernel run interpreted, also where numba compiled it
scalar_roots = getattr(kernels._fp2_poly_roots_one, "py_func",
                       kernels._fp2_poly_roots_one)


def random_batch(F, rng, rows):
    """Polynomials of every degree 1 to 8 in turn: a random monic cofactor
    times random linear factors, some repeated, times a unit."""
    p = F.p
    coeffs = np.zeros((rows, kernels.MAXD + 1, 2), np.int64)
    degs = np.zeros(rows, np.int64)
    for i in range(rows):
        deg = 1 + i % kernels.MAXD
        poly = PolyFp2(F, [F.element(rng.randrange(p), rng.randrange(p))
                           for _ in range(rng.randint(0, deg - 1))] + [F.one()])
        while poly.degree < deg:
            r = F.element(rng.randrange(p), rng.randrange(p))
            for _ in range(rng.randint(1, deg - poly.degree)):
                cs = [F.zero()] + poly.coeffs
                for k, coef in enumerate(poly.coeffs):
                    cs[k] = F.sub(cs[k], F.mul(r, coef))
                poly = PolyFp2(F, cs)
        lead = F.element(1 + rng.randrange(p - 1), rng.randrange(p))
        coeffs[i, :deg + 1] = [F.mul(lead, coef) for coef in poly.coeffs]
        degs[i] = deg
    return coeffs, degs


def as_maps(roots, mults, counts):
    return [{tuple(r): m for r, m in zip(rs[:k], ms[:k])}
            for rs, ms, k in zip(roots.tolist(), mults.tolist(), counts.tolist())]


def scalar_maps(coeffs, degs, F, seed):
    return [{tuple(r): m for r, m in zip(rs[:k].tolist(), ms[:k].tolist())}
            for rs, ms, k in (scalar_roots(row, deg, F.p, F.c, seed)
                              for row, deg in zip(coeffs, degs))]


@pytest.mark.parametrize("p,rows", [(13, 40), (37, 40), (10007, 30), (2**31 - 1, 12)])
def test_batched_matches_scalar_kernel(p, rows):
    F = Fp2(p)
    rng = random.Random(p)
    coeffs, degs = random_batch(F, rng, rows)
    batched = batched_roots.find_roots(coeffs, degs, p, F.c, seed=5)
    assert as_maps(*batched) == scalar_maps(coeffs, degs, F, seed=5)


def test_int64_headroom_roots_checked_by_evaluation():
    p = 2**31 - 1
    F = Fp2(p)
    coeffs, degs = random_batch(F, random.Random(1), 12)
    maps = as_maps(*batched_roots.find_roots(coeffs, degs, p, F.c, seed=0))
    assert sum(len(m) for m in maps) > 12
    for row, deg, found in zip(coeffs, degs, maps):
        poly = PolyFp2(F, [F.element(*c) for c in row[:deg + 1].tolist()])
        for root, mult in found.items():
            root = F.element(*root)
            # divide (Y - root) out mult times; each division is exact and
            # the last quotient no longer vanishes at the root
            quotient = poly
            for _ in range(mult):
                assert F.is_zero(quotient(root))
                cs, acc = [], F.zero()
                for coef in reversed(quotient.coeffs[1:]):
                    acc = F.add(F.mul(acc, root), coef)
                    cs.append(acc)
                quotient = PolyFp2(F, cs[::-1])
            assert not F.is_zero(quotient(root))


def test_compiled_backend_row_loop_matches_batched():
    F = Fp2(109)
    coeffs, degs = random_batch(F, random.Random(2), 20)
    by_row = kernels._roots_by_row(coeffs, degs, F.p, F.c, 3)
    batched = batched_roots.find_roots(coeffs, degs, F.p, F.c, 3)
    assert as_maps(*by_row) == as_maps(*batched)


def test_rows_without_roots_and_ignored_high_coefficients():
    F = Fp2(13)
    coeffs = np.zeros((3, kernels.MAXD + 1, 2), np.int64)
    coeffs[0, 0] = (5, 1)            # nonzero constant
    coeffs[1, :2] = [(1, 0), (1, 0)]   # Y + 1 ...
    coeffs[1, 5] = (7, 7)            # ... above its stated degree
    coeffs[2, :3] = [(1, 0), (0, 0), (1, 0)]  # Y^2 + 1 splits in F_13
    roots, mults, counts = kernels.fp2_poly_roots(coeffs, [0, 1, 2], 13, F.c, 0)
    assert as_maps(roots, mults, counts) == [{}, {(12, 0): 1},
                                             {(5, 0): 1, (8, 0): 1}]
