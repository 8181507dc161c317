"""The F_p^2 multiply, the batched root finder and the seed scan.

``fp2_poly_roots`` finds the roots of a batch of monic polynomials of one
degree.  ``build_graph`` calls it on Phi_ell(j, Y) at up to
``ssgraph.ROOT_BATCH_ROWS`` Frobenius-orbit representatives of a BFS
layer, the keys c1*p + c0 with c1 <= (p - c1) mod p, with their
neighbours in earlier layers as known roots; the row of the conjugate
key ((p - c1) mod p)*p + c0 is the conj of its representative's row,
and is not root-found.  The numpy root finder of ``batched_roots``
divides the known roots out and solves a residual of degree <= 2 in
closed form, so only residuals of degree >= 3 need Cantor-Zassenhaus.
The seed scan counts the points of each candidate curve by a numpy sum
of the quadratic character.

F_p^2 is F_p[t]/(t^2 - c); an element is the int64 pair (c0, c1) meaning
c0 + c1*t, and ``fp2_mul`` is the one multiply on it, on whole arrays.
A polynomial is an int64 array of shape (deg+1, 2), lowest degree first.
All moduli fit in 31 bits so every intermediate product stays below 2^63.
"""

import numpy as np

from .arith import DomainError
from .brandt import TheoremViolation


class InexactDeflation(TheoremViolation):
    """A known root of batch row ``row`` that is not a root: dividing it
    out leaves the nonzero ``remainder``."""

    def __init__(self, row, root, remainder):
        super().__init__(f"known root {root} of row {row} leaves the remainder {remainder}")
        self.row, self.root, self.remainder = row, root, remainder


def _lcg(state):
    # MINSTD; products stay below 2^48 so int64 suffices
    return state * 48271 % 2147483647


def fp2_mul(a, b, p, c):
    """a * b in F_p^2 for broadcastable (..., 2) arrays of reduced values,
    itself reduced: each component is a sum of two products below p^2,
    so below 2^63 for p < 2^31, and is reduced once."""
    a0, a1 = a[..., 0], a[..., 1]
    b0, b1 = b[..., 0], b[..., 1]
    real = (a0 * b0 + c * a1 % p * b1) % p
    out = np.empty(real.shape + (2,), np.int64)
    out[..., 0] = real
    out[..., 1] = (a0 * b1 + a1 * b0) % p
    return out


def fp2_poly_roots(coeffs, p, c, seed, known, known_counts):
    """Roots in F_p^2 of a batch of monic polynomials of one degree, with
    multiplicities.

    ``coeffs`` has shape (N, d + 1, 2), d >= 1, each row monic, lowest
    degree first; another shape, or a row that is not monic (the zero row
    is not), is a ``DomainError``.  known[i, :known_counts[i]], from
    ``known`` of shape (N, K, 2), are distinct roots of row i the caller
    already knows, 0 <= known_counts[i] <= K (other shapes or counts are
    a ``DomainError``).  Each must be a root, or ``InexactDeflation``, a
    ``TheoremViolation`` naming the row, is raised.  Returns flat (owner,
    roots, mults): roots[k] is the (c0, c1) pair of a root of row owner[k]
    and mults[k] its multiplicity, each distinct root once, sorted by
    owner and then by root in (c1, c0) order.  ``seed`` picks the random
    shifts of the splitting rounds; no output depends on it, and
    ``build_graph`` passes 0.
    """
    coeffs = np.asarray(coeffs, dtype=np.int64) % p
    if coeffs.ndim != 3 or coeffs.shape[1] < 2 or coeffs.shape[2] != 2:
        raise DomainError("coefficients must have shape (N, d + 1, 2), d >= 1; "
                          f"got {coeffs.shape}")
    bad = np.flatnonzero((coeffs[:, -1] != (1, 0)).any(axis=1))
    if len(bad):
        raise DomainError(f"row {bad[0]} is not monic")
    # imported on first use: with no bytecode cache its source compile
    # costs a few ms, which commands that build no graph should not pay
    from . import batched_roots

    return batched_roots.find_roots(coeffs, p, c, seed, np.asarray(known, dtype=np.int64),
                                    np.asarray(known_counts, dtype=np.int64))


def _chi_table(p):
    """x = 0 .. p-1 and the quadratic character chi(x) mod p, as numpy arrays."""
    x = np.arange(p, dtype=np.int64)
    chi = np.full(p, -1, dtype=np.int8)
    chi[x[1:] * x[1:] % p] = 1
    chi[0] = 0
    return x, chi


def supersingular_scan(p):
    """Smallest j in F_p (j != 0, 1728) whose curve has trace zero.

    Uses the family y^2 = x^3 + 3j(1728-j) x + 2j(1728-j)^2 and the
    quadratic-character point count #E = p + 1 + sum_x chi(x^3+ax+b).
    """
    x, chi = _chi_table(p)
    x3 = x * x % p * x % p
    j1728 = 1728 % p
    # one buffer each for x^3 + ax + b and its characters, reused for every
    # j, so no candidate allocates: a * x < p^2, so the sum stays below 2^63
    # before it is reduced.  The outputs are passed by position, which costs
    # less per call than the out= keyword at small p.
    values = np.empty(p, np.int64)
    signs = np.empty(p, np.int8)
    for j in range(1, p):
        if j == j1728:
            continue
        k = (j1728 - j) % p
        a = 3 * j % p * k % p
        b = 2 * j % p * (k * k % p) % p
        np.multiply(x, a, values)
        np.add(values, x3, values)
        np.add(values, b, values)
        np.remainder(values, p, values)
        chi.take(values, None, signs)
        if int(signs.sum()) == 0:
            return j
    return -1
