"""Batched numpy root finder over F_p^2: the python backend of
``kernels.fp2_poly_roots``.

Cantor-Zassenhaus root finding for a batch of polynomials f.  Its
powmods, Y^(p^2) and (Y + r)^((p^2 - 1)/2) mod f, have exponents every
row shares, so each runs once for all rows of one degree: the latter
once per splitting round, with one random shift r for the batch.  The
Frobenius map x -> x^p mod f, a matrix per row, halves the squarings of
both.  Gcds and quotients run per row in Python ints, and multiplicities
come from batched synthetic division of the undeflated polynomials.

A batch of polynomials is an int64 array of shape (G, d + 1, 2) and a
batch of residues mod the batch an array of shape (G, d, 2), in the
``kernels`` layout.  Every product of two reduced values is reduced mod
p before it is summed, so every intermediate stays below 2^63 for
p < 2^31.
"""

import numpy as np

from .kernels import MAXD, _lcg


def _fp2_mul(a, b, p, c):
    """a * b in F_p^2 for broadcastable (..., 2) arrays of reduced values;
    each component is a sum of two reduced products, so below 2p."""
    a0, a1 = a[..., 0], a[..., 1]
    b0, b1 = b[..., 0], b[..., 1]
    ca1 = c * a1 % p
    real = a0 * b0 % p + ca1 * b1 % p
    out = np.empty(real.shape + (2,), np.int64)
    out[..., 0] = real
    out[..., 1] = a0 * b1 % p + a1 * b0 % p
    return out


def _times_y(a, low, p, c):
    """a * Y mod f for the batch of monic f with Y^d = low mod f."""
    out = _fp2_mul(a[:, -1:], low, p, c)
    out[:, 1:] += a[:, :-1]
    return out % p


def _mulmod(a, b, high, p, c):
    """a * b mod f, where high[:, k] = Y^(d + k) mod f for k < d - 1."""
    g, d = a.shape[:2]
    # coefficient i of a times coefficient j of b, then the sums over
    # i + j = k: row i of the skewed array starts i places to the right
    prod = np.zeros((g, d, 2 * d, 2), np.int64)
    prod[:, :, :d] = _fp2_mul(a[:, :, None], b[:, None, :], p, c)
    skew = prod.reshape(g, 2 * d * d, 2)[:, :d * (2 * d - 1)]
    full = skew.reshape(g, d, 2 * d - 1, 2).sum(axis=1) % p
    folded = _fp2_mul(full[:, d:, None], high, p, c).sum(axis=1)
    return (full[:, :d] + folded) % p


def _modulus_tables(f, p, c):
    """(low, high, frob) for a batch f of monic polynomials of degree
    d >= 2: Y^d = low, Y^(d + k) = high[:, k] for k < d - 1, and
    Y^(i p) = frob[:, i] for i < d, all mod f."""
    d = f.shape[1] - 1
    low = -f[:, :d] % p
    high = [low]
    for _ in range(d - 2):
        high.append(_times_y(high[-1], low, p, c))
    high = np.stack(high, axis=1)
    frob = [np.zeros_like(low), _powmod_shift(low, high, (0, 0), p, p, c)]
    frob[0][:, 0, 0] = 1
    for _ in range(d - 2):
        frob.append(_mulmod(frob[-1], frob[1], high, p, c))
    return low, high, np.stack(frob, axis=1)


def _frobenius(x, frob, p, c):
    """x^p mod f.  Since t^p = -t, the p-th power of sum x_i Y^i is
    sum conj(x_i) Y^(i p), with conj(a0 + a1 t) = a0 - a1 t."""
    conj = x.copy()
    conj[..., 1] = -x[..., 1] % p
    return _fp2_mul(conj[:, :, None], frob, p, c).sum(axis=1) % p


def _powmod_shift(low, high, r, e, p, c):
    """(Y + r)^e mod f, f given by its tables (low, high), for one shift
    r = (r0, r1) and one exponent e >= 1 shared by the whole batch."""
    r = np.array(r, np.int64)
    res = np.zeros(low.shape, np.int64)
    res[:, 0] = r
    res[:, 1, 0] = 1
    for bit in bin(e)[3:]:
        res = _mulmod(res, res, high, p, c)
        if bit == "1":
            res = (_times_y(res, low, p, c) + _fp2_mul(r, res, p, c)) % p
    return res


# One polynomial in Python ints: a list of (c0, c1) pairs, lowest degree
# first, with a nonzero last entry (the empty list is zero).

def _row(values):
    f = [tuple(v) for v in values]
    while f and f[-1] == (0, 0):
        f.pop()
    return f


def _row_monic(f, p, c):
    a0, a1 = f[-1]
    ni = pow((a0 * a0 - c * a1 * a1) % p, p - 2, p)
    i0, i1 = a0 * ni % p, -a1 * ni % p
    return [((x0 * i0 + c * x1 * i1) % p, (x0 * i1 + x1 * i0) % p)
            for x0, x1 in f]


def _row_divmod(a, b, p, c):
    """(quotient, remainder) of a by monic b."""
    a = list(a)
    db = len(b) - 1
    q = [(0, 0)] * max(len(a) - db, 0)
    for k in range(len(a) - 1, db - 1, -1):
        q0, q1 = a[k]
        q[k - db] = (q0, q1)
        if q0 or q1:
            for i in range(db):
                b0, b1 = b[i]
                x0, x1 = a[k - db + i]
                a[k - db + i] = ((x0 - q0 * b0 - c * q1 * b1) % p,
                                 (x1 - q0 * b1 - q1 * b0) % p)
    return q, _row(a[:db])


def _row_gcd(a, b, p, c):
    """Monic gcd of a and the monic b."""
    while b:
        a, b = b, _row_divmod(a, b, p, c)[1]
        if b:
            b = _row_monic(b, p, c)
    return a


def find_roots(coeffs, degs, p, c, seed):
    """``kernels.fp2_poly_roots`` with one numpy powmod per round and row
    degree.

    Every powmod runs mod the row's own polynomial f: a factor g of f
    being split takes its (Y + r)^((p^2 - 1)/2) mod g as the remainder
    mod g of that mod f, so one powmod per row serves all its factors.
    """
    n, width = coeffs.shape[:2]
    f = coeffs % p
    f[np.arange(width) > degs[:, None]] = 0
    by_degree = {}
    for i, v in enumerate(f.tolist()):
        v = _row(v)
        if len(v) > 1:
            by_degree.setdefault(len(v) - 1, []).append((i, _row_monic(v, p, c)))

    # separable rational part of each row: gcd(Y^(p^2) - Y, f)
    factors = {}  # row -> factors of its rational part still to split
    groups = []  # (rows, modulus tables) per row degree >= 2
    for d, group in sorted(by_degree.items()):
        if d == 1:
            factors.update((i, [g]) for i, g in group)
            continue
        low, high, frob = _modulus_tables(np.array([g for _, g in group]), p, c)
        w = _frobenius(frob[:, 1], frob, p, c)
        w[:, 1, 0] -= 1
        w %= p
        for (i, g), wi in zip(group, w.tolist()):
            factors[i] = [_row_gcd(_row(wi), g, p, c)]
        groups.append((np.array([i for i, _ in group]), low, high, frob))

    # equal-degree splitting, one shared random shift per round
    roots = [[] for _ in range(n)]
    state = seed % 2147483646 + 1
    while True:
        for i, gs in factors.items():
            roots[i] += [(-g[0][0] % p, -g[0][1] % p) for g in gs if len(g) == 2]
            factors[i] = [g for g in gs if len(g) > 2]
        if not any(factors.values()):
            break
        state = _lcg(state)
        r0 = state % p
        state = _lcg(state)
        r1 = state % p
        for rows, low, high, frob in groups:
            live = [k for k, i in enumerate(rows.tolist()) if factors[i]]
            if not live:
                continue
            # (Y + r)^((p^2 - 1)/2) = y^(p + 1) with y = (Y + r)^((p - 1)/2)
            y = _powmod_shift(low[live], high[live], (r0, r1), (p - 1) // 2, p, c)
            w = _mulmod(_frobenius(y, frob[live], p, c), y, high[live], p, c)
            w[:, 0, 0] -= 1
            w %= p
            for i, wi in zip(rows[live].tolist(), w.tolist()):
                wi = _row(wi)
                split = []
                for g in factors[i]:
                    part = _row_gcd(_row_divmod(wi, g, p, c)[1], g, p, c)
                    if 1 < len(part) < len(g):
                        split += [part, _row_divmod(g, part, p, c)[0]]
                    else:
                        split.append(g)
                factors[i] = split

    # multiplicities: divide each row by (Y - root) while it divides exactly
    owner = np.array([i for i in range(n) for _ in roots[i]], np.int64)
    root = np.array([r for rs in roots for r in rs], np.int64).reshape(-1, 2)
    h = f[owner, :degs.max(initial=0) + 1]
    mult = np.zeros(len(owner), np.int64)
    live = np.arange(len(owner))
    while len(live):
        hl, rl = h[live], root[live]
        quot = np.zeros_like(hl)
        acc = hl[:, -1]
        for k in range(h.shape[1] - 1, 0, -1):
            quot[:, k - 1] = acc
            acc = (_fp2_mul(acc, rl, p, c) + hl[:, k - 1]) % p
        exact = ~acc.any(axis=1)
        live = live[exact]
        h[live] = quot[exact]
        mult[live] += 1

    out_roots = np.zeros((n, MAXD, 2), np.int64)
    out_mults = np.zeros((n, MAXD), np.int64)
    counts = np.array([len(rs) for rs in roots], np.int64)
    slot = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    out_roots[owner, slot] = root
    out_mults[owner, slot] = mult
    return out_roots, out_mults, counts
