"""Batched numpy root finder over F_p^2, behind ``kernels.fp2_poly_roots``.

The rows of a batch are monic, all of one degree, and the roots their
caller already knows are divided out of them, each once, by one batched
synthetic division per slot; a division that leaves a remainder raises
``InexactDeflation``.
``build_graph`` passes the neighbours found in earlier BFS layers, which
are roots because Phi_ell is symmetric.  What is left, the residual, is
solved by its degree:

- degree 1 gives its root directly;
- degree 2 goes through the quadratic formula, with a vectorised square
  root in F_p^2: a Tonelli-Shanks square root of the norm in F_p, then
  one more (Cohen, GTM 138, section 1.5).  A discriminant that is not a
  square in F_p^2 gives no roots;
- degree >= 3 goes through Cantor-Zassenhaus until every factor has
  degree <= 2, and its quadratic factors join the quadratic formula.  Its
  powmods run mod the undeflated polynomial f, whose exponents every row
  shares, so one chain of y = (Y + r)^((p - 1)/2) serves all such rows
  and K shifts r at once.  From r = 0 comes Y^p, hence the Frobenius
  map x -> x^p mod f, a matrix per row, and from each r a first-round
  splitting element y^(p + 1) - 1; a later round has one shift and one
  chain.  Gcds and quotients run per row in Python ints.

Multiplicities come from one batched synthetic division pass over the
undeflated polynomials, for known and new roots alike.

A batch of polynomials is an int64 array of shape (G, d + 1, 2) and a
batch of residues mod the batch an array of shape (G, d, 2), in the
``kernels`` layout.  A sum is of a few reduced values or of two products
of them, as in ``fp2_mul``, so every intermediate stays below 2^63 for
p < 2^31.
"""

import numpy as np

from .arith import DomainError
from .kernels import InexactDeflation, _lcg, fp2_mul


def _fp_pow(a, e, p):
    """a^e mod p for every entry of an int64 array of reduced values."""
    res = np.ones_like(a)
    for bit in bin(e)[2:]:
        res = res * res % p
        if bit == "1":
            res = res * a % p
    return res


def _fp_sqrt(a, p, c):
    """A square root mod p of every square in the int64 array ``a``, by
    Tonelli-Shanks with the nonresidue c; an entry that is not a square
    gets a value whose square is not that entry."""
    s = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> s
    t = _fp_pow(a, (q - 1) // 2, p)
    x = t * a % p  # a^((q + 1)/2)
    b = t * x % p  # a^q, so that x^2 = a b
    g = pow(c, q, p)  # of order 2^s
    # while b has order dividing 2^k, multiply x by a power y of g whose
    # square turns b^(2^(k - 1)) = -1 into 1
    for k in range(s - 1, 0, -1):
        e = b
        for _ in range(k - 1):
            e = e * e % p
        y = pow(g, 1 << (s - k - 1), p)
        flip = e != 1
        x = np.where(flip, x * y % p, x)
        b = np.where(flip, b * (y * y % p) % p, b)
    return x


def _fp2_sqrt(a, p, c):
    """(x, ok) for a batch ``a`` of shape (N, 2): ok marks the squares of
    F_p^2, and x^2 = a where ok.

    If x = x0 + x1 t squares to a, then x0^2 + c x1^2 = a0, and
    x0^2 - c x1^2 = +-n for n a square root of the norm a0^2 - c a1^2.
    So {x0^2, c x1^2} = {(a0 + n)/2, (a0 - n)/2}.  Both pairings are
    tried, x1 takes the sign that makes 2 x0 x1 = a1, and x^2 = a is
    checked.
    """
    a0, a1 = a[:, 0], a[:, 1]
    n = _fp_sqrt((a0 * a0 - c * (a1 * a1 % p)) % p, p, c)
    half, inv_c = (p + 1) // 2, pow(c, p - 2, p)
    u = (a0 + n) * half % p
    v = (a0 - n) * half % p
    r = _fp_sqrt(np.concatenate([u, v, u * inv_c % p, v * inv_c % p]), p, c)
    r = r.reshape(4, -1)
    x = np.zeros_like(a)
    ok = np.zeros(len(a), bool)
    for x0, x1 in ((r[0], r[3]), (r[1], r[2])):
        x1 = np.where(x0 * x1 % p * 2 % p == a1, x1, -x1 % p)
        cand = np.stack([x0, x1], axis=1)
        good = ~ok & (fp2_mul(cand, cand, p, c) == a).all(axis=1)
        x[good] = cand[good]
        ok |= good
    return x, ok


def _quadratic_roots(h, p, c):
    """(y, ok) for a batch h of monic quadratics Y^2 + h1 Y + h0, shape
    (N, 3, 2): ok marks the rows with roots in F_p^2, and y[i, 0] and
    y[i, 1] are the roots of row i (equal for a double root)."""
    b = h[:, 1]
    disc = (fp2_mul(b, b, p, c) - 4 * h[:, 0]) % p
    s, ok = _fp2_sqrt(disc, p, c)
    half = (p + 1) // 2
    return np.stack([(s - b) * half % p, (-s - b) * half % p], axis=1), ok


def _divide_linear(h, r, p, c):
    """(quotient, remainder) of every row of the batch h by Y - r[row]."""
    quot = np.zeros_like(h)
    acc = h[:, -1]
    for k in range(h.shape[1] - 1, 0, -1):
        quot[:, k - 1] = acc
        acc = (fp2_mul(acc, r, p, c) + h[:, k - 1]) % p
    return quot, acc


def _times_y(a, low, p, c):
    """a * Y mod f for the batch of monic f with Y^d = low mod f."""
    out = fp2_mul(a[:, -1:], low, p, c)
    out[:, 1:] += a[:, :-1]
    return out % p


def _mulmod(a, b, high, p, c):
    """a * b mod f, where high[:, k] = Y^(d + k) mod f for k < d - 1."""
    g, d = a.shape[:2]
    # coefficient i of a times coefficient j of b, then the sums over
    # i + j = k: row i of the skewed array starts i places to the right
    prod = np.zeros((g, d, 2 * d, 2), np.int64)
    prod[:, :, :d] = fp2_mul(a[:, :, None], b[:, None, :], p, c)
    skew = prod.reshape(g, 2 * d * d, 2)[:, :d * (2 * d - 1)]
    full = skew.reshape(g, d, 2 * d - 1, 2).sum(axis=1) % p
    folded = fp2_mul(full[:, d:, None], high, p, c).sum(axis=1)
    return (full[:, :d] + folded) % p


def _modulus_tables(f, shifts, p, c):
    """(low, high, frob, y) for a batch f of G monic polynomials of degree
    d >= 2 and K shifts r_k, r_0 = 0: Y^d = low, Y^(d + k) = high[:, k] for
    k < d - 1, Y^(i p) = frob[:, i] for i < d and, in one chain, y[k G + i]
    = (Y + r_k)^((p - 1)/2), all mod f[i]; low and high are stacked K times."""
    g, d = len(f), f.shape[1] - 1
    low = np.tile(-f[:, :d] % p, (len(shifts), 1, 1))
    high = [low]
    for _ in range(d - 2):
        high.append(_times_y(high[-1], low, p, c))
    high = np.stack(high, axis=1)
    y = _powmod_shift(low, high, np.repeat(shifts, g, axis=0), (p - 1) // 2, p, c)
    yp = _times_y(_mulmod(y[:g], y[:g], high[:g], p, c), low[:g], p, c)  # Y^p = y_0^2 Y
    frob = [np.zeros_like(yp), yp]
    frob[0][:, 0, 0] = 1
    for _ in range(d - 2):
        frob.append(_mulmod(frob[-1], yp, high[:g], p, c))
    return low, high, np.stack(frob, axis=1), y


def _frobenius(x, frob, p, c):
    """x^p mod f.  Since t^p = -t, the p-th power of sum x_i Y^i is
    sum conj(x_i) Y^(i p), with conj(a0 + a1 t) = a0 - a1 t."""
    conj = x * (1, -1) % p
    return fp2_mul(conj[:, :, None], frob, p, c).sum(axis=1) % p


def _powmod_shift(low, high, r, e, p, c):
    """(Y + r)^e mod f, f given by its tables (low, high), for a shift r
    per row, shape (G, 2), or one, shape (2,), and one exponent e >= 1."""
    r = np.broadcast_to(np.asarray(r, np.int64), (len(low), 2))
    res = np.zeros(low.shape, np.int64)
    res[:, 0] = r
    res[:, 1, 0] = 1
    for bit in bin(e)[3:]:
        res = _mulmod(res, res, high, p, c)
        if bit == "1":
            res = (_times_y(res, low, p, c) + fp2_mul(r[:, None], res, p, c)) % p
    return res


def _splitting_elements(y, frob, high, p, c):
    """(Y + r)^((p^2 - 1)/2) - 1 = y^(p + 1) - 1 for y = (Y + r)^((p - 1)/2)."""
    w = _mulmod(_frobenius(y, frob, p, c), y, high, p, c)
    w[:, 0, 0] -= 1
    return w % p


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


def _shifts(seed, p):
    """The splitting rounds' shifts (r0, r1) of F_p^2: 0, then random ones
    drawn from the seed."""
    yield 0, 0
    state = seed % 2147483646 + 1
    while True:
        r0 = _lcg(state)
        state = _lcg(r0)
        yield r0 % p, state % p


def _split_residuals(f, h, p, c, seed):
    """Cantor-Zassenhaus on the residuals h, all of degree >= 3, of the
    monic rows f, until every factor of their rational parts has degree
    <= 2: returns (owner, root) arrays of the linear factors' roots and
    (owner, g) of the quadratic factors g, which are left to the quadratic
    formula; owner indexes the rows.

    Every powmod runs mod the row's undeflated f, so one serves all the
    factors g of a row: (Y + r)^((p^2 - 1)/2) mod g is the remainder mod
    g of that mod f.  The chain of ``_modulus_tables`` gives the first
    K = 4 splitting elements, from r = 0 and three random shifts; each
    later one takes its own powmod.
    """
    first = [r for r, _ in zip(_shifts(seed, p), range(4))]
    low, high, frob, y = _modulus_tables(f, first, p, c)
    ws = _splitting_elements(y, np.tile(frob, (len(first), 1, 1, 1)), high, p, c)
    ws = ws.reshape(len(first), len(f), -1, 2)
    # separable rational part of each residual: gcd(Y^(p^2) - Y, h)
    w = _frobenius(frob[:, 1], frob, p, c)
    w[:, 1, 0] -= 1
    w %= p
    factors = [[_row_gcd(_row(wi), _row(hi), p, c)]  # of each rational part
               for wi, hi in zip(w.tolist(), h.tolist())]

    # equal-degree splitting, one shift per round shared by the batch: the
    # first K rounds take their elements from the chain
    roots, quadratics = [], []  # (row, root) and (row, quadratic factor)
    for rnd, r in enumerate(_shifts(seed, p)):
        for i, gs in enumerate(factors):
            roots += [(i, (-g[0][0] % p, -g[0][1] % p)) for g in gs if len(g) == 2]
            quadratics += [(i, g) for g in gs if len(g) == 3]
            factors[i] = [g for g in gs if len(g) > 3]
        live = [i for i, gs in enumerate(factors) if gs]
        if not live:
            break
        if rnd < len(first):
            w = ws[rnd, live]
        else:
            y = _powmod_shift(low[live], high[live], r, (p - 1) // 2, p, c)
            w = _splitting_elements(y, frob[live], high[live], p, c)
        for i, wi in zip(live, map(_row, w.tolist())):
            split = []
            for g in factors[i]:
                part = _row_gcd(_row_divmod(wi, g, p, c)[1], g, p, c)
                proper = 1 < len(part) < len(g)
                split += [part, _row_divmod(g, part, p, c)[0]] if proper else [g]
            factors[i] = split

    def flat(pairs, shape):
        return (np.array([i for i, _ in pairs], np.int64),
                np.array([x for _, x in pairs], np.int64).reshape((-1,) + shape))

    return flat(roots, (2,)), flat(quadratics, (3, 2))


def find_roots(f, p, c, seed, known, known_counts):
    """``kernels.fp2_poly_roots`` on reduced rows f: known roots deflated,
    residuals of degree <= 2 solved in closed form and the rest by
    Cantor-Zassenhaus, with one numpy powmod chain per round."""
    if (known.ndim != 3 or known.shape[::2] != (len(f), 2)
            or known_counts.shape != (len(f),) or (known_counts < 0).any()
            or (known_counts > known.shape[1]).any()):
        raise DomainError(f"known roots {known.shape} and counts {known_counts.shape} "
                          "are not (N, K, 2) and (N,) with counts in [0, K]")
    deg = f.shape[1] - 1

    # deflation: divide each known root out once
    owners, found = [], []
    h = f.copy()
    for k in range(known_counts.max(initial=0)):
        rows = np.flatnonzero(known_counts > k)
        r = known[rows, k] % p
        h[rows], rem = _divide_linear(h[rows], r, p, c)
        bad = np.flatnonzero(rem.any(axis=1))
        if len(bad):
            i = bad[0]
            raise InexactDeflation(int(rows[i]), tuple(r[i].tolist()),
                                   tuple(rem[i].tolist()))
        owners.append(rows)
        found.append(r)

    # the residual, by its degree
    e = deg - known_counts
    linear = np.flatnonzero(e == 1)
    owners.append(linear)
    found.append(-h[linear, 0] % p)
    quadratic = np.flatnonzero(e == 2)
    quad_owners, quads = [quadratic], [h[quadratic, :3].reshape(-1, 3, 2)]
    higher = np.flatnonzero(e >= 3)
    if len(higher):
        (rows, r), (quad_rows, g) = _split_residuals(f[higher], h[higher], p, c, seed)
        owners.append(higher[rows])
        found.append(r)
        quad_owners.append(higher[quad_rows])
        quads.append(g)
    quadratic = np.concatenate(quad_owners)
    if len(quadratic):
        y, ok = _quadratic_roots(np.concatenate(quads), p, c)
        owners.append(np.repeat(quadratic[ok], 2))
        found.append(y[ok].reshape(-1, 2))

    # distinct roots, by row: a new root may repeat a known one, and a
    # double root of a quadratic appears twice
    owner, root = np.concatenate(owners), np.concatenate(found)
    order = np.lexsort((root[:, 1] * p + root[:, 0], owner))
    owner, root = owner[order], root[order]
    keep = np.ones(len(owner), bool)
    keep[1:] = (owner[1:] != owner[:-1]) | (root[1:] != root[:-1]).any(axis=1)
    owner, root = owner[keep], root[keep]

    # multiplicities: divide the undeflated row by (Y - root) while it
    # divides exactly
    h = f[owner]
    mult = np.zeros(len(owner), np.int64)
    live = np.arange(len(owner))
    for _ in range(deg):
        quot, rem = _divide_linear(h[live], root[live], p, c)
        exact = ~rem.any(axis=1)
        live = live[exact]
        if not len(live):
            break
        h[live] = quot[exact]
        mult[live] += 1
    return owner, root, mult
