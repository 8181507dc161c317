"""The per-polynomial scalar root finder over F_p^2, the tests' oracle.

Flat int64 loop code in the ``kernels`` layout: F_p^2 is F_p[t]/(t^2 - c),
an element the pair (c0, c1), a polynomial an array of shape
(MAXD + 1, 2), lowest degree first.  MAXD = 8 is the oracle's own bound,
which Phi_ell(j, Y) meets for ell <= 7; the batched root finder has
none.  It finds the roots of one polynomial by Y^(p^2) - Y gcds and
Cantor-Zassenhaus splitting, and their multiplicities by repeated exact
division, independently of the batched numpy root finder it is compared
with.
"""

import numpy as np

from ssig._modpoly_data import MODULAR_POLYNOMIALS
from ssig.kernels import _lcg

MAXD = 8  # largest polynomial degree the oracle handles


def pow_mod(a, e, p):
    a %= p
    r = 1
    while e > 0:
        if e & 1:
            r = r * a % p
        a = a * a % p
        e >>= 1
    return r


def inv_mod(a, p):
    return pow_mod(a % p, p - 2, p)


def _f2mul(a0, a1, b0, b1, p, c):
    r0 = (a0 * b0 % p + c * (a1 * b1 % p)) % p
    r1 = (a0 * b1 % p + a1 * b0 % p) % p
    return r0, r1


def _f2inv(a0, a1, p, c):
    n = (a0 * a0 % p - c * (a1 * a1 % p)) % p
    ni = inv_mod(n, p)
    return a0 * ni % p, (p - a1) % p * ni % p


def _pdeg(f, d):
    while d >= 0 and f[d, 0] == 0 and f[d, 1] == 0:
        d -= 1
    return d


def _pmonic(f, d, p, c):
    i0, i1 = _f2inv(f[d, 0], f[d, 1], p, c)
    for k in range(d + 1):
        f[k, 0], f[k, 1] = _f2mul(f[k, 0], f[k, 1], i0, i1, p, c)


def _pmulmod(a, da, b, db, m, dm, p, c, out):
    """out = a*b mod m (m monic, dm >= 1, da, db < dm). Returns degree."""
    t = np.zeros((2 * MAXD + 1, 2), np.int64)
    for i in range(da + 1):
        a0 = a[i, 0]
        a1 = a[i, 1]
        if a0 == 0 and a1 == 0:
            continue
        for k in range(db + 1):
            r0, r1 = _f2mul(a0, a1, b[k, 0], b[k, 1], p, c)
            t[i + k, 0] = (t[i + k, 0] + r0) % p
            t[i + k, 1] = (t[i + k, 1] + r1) % p
    for k in range(da + db, dm - 1, -1):
        q0 = t[k, 0]
        q1 = t[k, 1]
        if q0 == 0 and q1 == 0:
            continue
        t[k, 0] = 0
        t[k, 1] = 0
        for i in range(dm):
            r0, r1 = _f2mul(q0, q1, m[i, 0], m[i, 1], p, c)
            t[k - dm + i, 0] = (t[k - dm + i, 0] - r0) % p
            t[k - dm + i, 1] = (t[k - dm + i, 1] - r1) % p
    for k in range(dm):
        out[k, 0] = t[k, 0]
        out[k, 1] = t[k, 1]
    return _pdeg(out, dm - 1)


def _ppowmod(base, db, e, m, dm, p, c, out):
    """out = base^e mod m (m monic). Returns degree."""
    res = np.zeros((MAXD + 1, 2), np.int64)
    res[0, 0] = 1
    dr = 0
    cur = np.zeros((MAXD + 1, 2), np.int64)
    for k in range(db + 1):
        cur[k, 0] = base[k, 0]
        cur[k, 1] = base[k, 1]
    dc = db
    tmp = np.zeros((MAXD + 1, 2), np.int64)
    while e > 0:
        if e & 1:
            dt = _pmulmod(res, dr, cur, dc, m, dm, p, c, tmp)
            for k in range(dm):
                res[k, 0] = tmp[k, 0]
                res[k, 1] = tmp[k, 1]
            dr = dt
        e >>= 1
        if e > 0:
            dt = _pmulmod(cur, dc, cur, dc, m, dm, p, c, tmp)
            for k in range(dm):
                cur[k, 0] = tmp[k, 0]
                cur[k, 1] = tmp[k, 1]
            dc = dt
    for k in range(dm):
        out[k, 0] = res[k, 0]
        out[k, 1] = res[k, 1]
    return dr


def _prem(a, da, b, db, p, c):
    """a := a mod b in place (b monic). Returns degree of remainder."""
    for k in range(da, db - 1, -1):
        q0 = a[k, 0]
        q1 = a[k, 1]
        if q0 == 0 and q1 == 0:
            continue
        a[k, 0] = 0
        a[k, 1] = 0
        for i in range(db):
            r0, r1 = _f2mul(q0, q1, b[i, 0], b[i, 1], p, c)
            a[k - db + i, 0] = (a[k - db + i, 0] - r0) % p
            a[k - db + i, 1] = (a[k - db + i, 1] - r1) % p
    return _pdeg(a, db - 1)


def _pgcd(a, da, b, db, p, c, out):
    """out = monic gcd(a, b). Returns degree (or -1 for gcd of zeros)."""
    u = np.zeros((MAXD + 1, 2), np.int64)
    v = np.zeros((MAXD + 1, 2), np.int64)
    for k in range(da + 1):
        u[k, 0] = a[k, 0]
        u[k, 1] = a[k, 1]
    for k in range(db + 1):
        v[k, 0] = b[k, 0]
        v[k, 1] = b[k, 1]
    du = _pdeg(u, da)
    dv = _pdeg(v, db)
    while dv >= 0:
        _pmonic(v, dv, p, c)
        dr = _prem(u, du, v, dv, p, c)
        for k in range(MAXD + 1):
            u[k, 0], v[k, 0] = v[k, 0], u[k, 0]
            u[k, 1], v[k, 1] = v[k, 1], u[k, 1]
        du = dv
        dv = dr
    if du >= 0:
        _pmonic(u, du, p, c)
    for k in range(MAXD + 1):
        out[k, 0] = u[k, 0]
        out[k, 1] = u[k, 1]
    return du


def _pdiv_linear(f, d, r0, r1, p, c):
    """Synthetic division of f by (Y - r).  f := quotient.

    Returns 1 if the division was exact (remainder zero), else 0 and
    leaves f unspecified.
    """
    q = np.zeros((MAXD + 1, 2), np.int64)
    a0 = np.int64(0)
    a1 = np.int64(0)
    for k in range(d, 0, -1):
        a0, a1 = _f2mul(a0, a1, r0, r1, p, c)
        a0 = (a0 + f[k, 0]) % p
        a1 = (a1 + f[k, 1]) % p
        q[k - 1, 0] = a0
        q[k - 1, 1] = a1
    a0, a1 = _f2mul(a0, a1, r0, r1, p, c)
    a0 = (a0 + f[0, 0]) % p
    a1 = (a1 + f[0, 1]) % p
    for k in range(MAXD + 1):
        f[k, 0] = q[k, 0]
        f[k, 1] = q[k, 1]
    return 1 if a0 == 0 and a1 == 0 else 0


def _pquot(f, df, g, dg, p, c):
    """f := f / g for monic g dividing f exactly. Returns quotient degree."""
    q = np.zeros((MAXD + 1, 2), np.int64)
    w = np.zeros((MAXD + 1, 2), np.int64)
    for k in range(df + 1):
        w[k, 0] = f[k, 0]
        w[k, 1] = f[k, 1]
    for k in range(df, dg - 1, -1):
        q0 = w[k, 0]
        q1 = w[k, 1]
        q[k - dg, 0] = q0
        q[k - dg, 1] = q1
        if q0 == 0 and q1 == 0:
            continue
        for i in range(dg + 1):
            r0, r1 = _f2mul(q0, q1, g[i, 0], g[i, 1], p, c)
            w[k - dg + i, 0] = (w[k - dg + i, 0] - r0) % p
            w[k - dg + i, 1] = (w[k - dg + i, 1] - r1) % p
    for k in range(MAXD + 1):
        f[k, 0] = q[k, 0]
        f[k, 1] = q[k, 1]
    return df - dg


def _fp2_poly_roots_one(coeffs, deg, p, c, seed):
    """Roots in F_p^2 of one nonzero polynomial, with multiplicities.

    Returns (roots, mults, count) where roots[i] is the (c0, c1) pair of
    the i-th distinct root, for i < count.
    """
    roots = np.zeros((MAXD, 2), np.int64)
    mults = np.zeros(MAXD, np.int64)
    f = np.zeros((MAXD + 1, 2), np.int64)
    for k in range(deg + 1):
        f[k, 0] = coeffs[k, 0] % p
        f[k, 1] = coeffs[k, 1] % p
    df = _pdeg(f, deg)
    if df <= 0:
        return roots, mults, 0
    _pmonic(f, df, p, c)

    # separable rational part: gcd(Y^(p^2) - Y, f)
    ybase = np.zeros((MAXD + 1, 2), np.int64)
    ybase[1, 0] = 1
    frob = np.zeros((MAXD + 1, 2), np.int64)
    sq = np.zeros((MAXD + 1, 2), np.int64)
    if df == 1:
        sq[0, 0] = f[0, 0]
        sq[0, 1] = f[0, 1]
        sq[1, 0] = 1
        dsq = 1
    else:
        dfr = _ppowmod(ybase, 1, p * p, f, df, p, c, frob)
        frob[1, 0] = (frob[1, 0] - 1) % p
        dfr = _pdeg(frob, max(dfr, 1))
        dsq = _pgcd(frob, dfr, f, df, p, c, sq)
    if dsq <= 0:
        return roots, mults, 0

    # split the squarefree rational part into linear factors
    stack = np.zeros((MAXD, MAXD + 1, 2), np.int64)
    sdeg = np.zeros(MAXD, np.int64)
    for k in range(dsq + 1):
        stack[0, k, 0] = sq[k, 0]
        stack[0, k, 1] = sq[k, 1]
    sdeg[0] = dsq
    top = 1
    count = 0
    state = (seed % 2147483646) + 1
    half = (p * p - 1) // 2
    g = np.zeros((MAXD + 1, 2), np.int64)
    w = np.zeros((MAXD + 1, 2), np.int64)
    d2 = np.zeros((MAXD + 1, 2), np.int64)
    shift = np.zeros((MAXD + 1, 2), np.int64)
    while top > 0:
        top -= 1
        dg = sdeg[top]
        for k in range(MAXD + 1):
            g[k, 0] = stack[top, k, 0]
            g[k, 1] = stack[top, k, 1]
        if dg == 1:
            roots[count, 0] = (p - g[0, 0]) % p
            roots[count, 1] = (p - g[0, 1]) % p
            count += 1
            continue
        while True:
            state = _lcg(state)
            r0 = state % p
            state = _lcg(state)
            r1 = state % p
            for k in range(MAXD + 1):
                shift[k, 0] = 0
                shift[k, 1] = 0
            shift[0, 0] = r0
            shift[0, 1] = r1
            shift[1, 0] = 1
            _ppowmod(shift, 1, half, g, dg, p, c, w)
            w[0, 0] = (w[0, 0] - 1) % p
            dw = _pdeg(w, dg - 1)
            if dw < 0:
                continue
            dd = _pgcd(w, dw, g, dg, p, c, d2)
            if dd <= 0 or dd >= dg:
                continue
            for k in range(MAXD + 1):
                stack[top, k, 0] = d2[k, 0]
                stack[top, k, 1] = d2[k, 1]
            sdeg[top] = dd
            top += 1
            dq = _pquot(g, dg, d2, dd, p, c)
            for k in range(MAXD + 1):
                stack[top, k, 0] = g[k, 0]
                stack[top, k, 1] = g[k, 1]
            sdeg[top] = dq
            top += 1
            break

    # multiplicities by repeated exact division of the original polynomial
    h = np.zeros((MAXD + 1, 2), np.int64)
    for i in range(count):
        for k in range(deg + 1):
            h[k, 0] = coeffs[k, 0] % p
            h[k, 1] = coeffs[k, 1] % p
        dh = _pdeg(h, deg)
        m = 0
        while dh >= 1:
            if _pdiv_linear(h, dh, roots[i, 0], roots[i, 1], p, c) == 1:
                m += 1
                dh -= 1
            else:
                break
        mults[i] = m
    return roots, mults, count


def _f2pow(a0, a1, e, p, c):
    """(a0 + a1*t)^e by square-and-multiply, for e >= 0."""
    r0, r1 = 1, 0
    while e > 0:
        if e & 1:
            r0, r1 = _f2mul(r0, r1, a0, a1, p, c)
        a0, a1 = _f2mul(a0, a1, a0, a1, p, c)
        e >>= 1
    return r0, r1


def horner(coeffs, x0, x1, p, c):
    """f(x) for a sequence of (c0, c1) coefficients, lowest degree first."""
    a0, a1 = 0, 0
    for k0, k1 in reversed([(int(k0), int(k1)) for k0, k1 in coeffs]):
        a0, a1 = _f2mul(a0, a1, x0, x1, p, c)
        a0, a1 = (a0 + k0) % p, (a1 + k1) % p
    return a0, a1


def monic(coeffs, p, c):
    """(c0, c1) coefficients, lowest degree first, times the inverse of the
    last: the monic polynomial with the same roots and multiplicities."""
    inv = _f2inv(*(int(x) for x in coeffs[-1]), p, c)
    return [_f2mul(*inv, int(x0), int(x1), p, c) for x0, x1 in coeffs]


def scalar_specialize(p, c, j, ell):
    """Phi_ell(j, Y) as a (MAXD + 1, 2) coefficient array: every term
    coef * j^xi * Y^yi of the table, j^xi by scalar square-and-multiply."""
    f = np.zeros((MAXD + 1, 2), np.int64)
    for (xi, yi), coef in MODULAR_POLYNOMIALS[ell].items():
        r0, r1 = _f2mul(coef % p, 0, *_f2pow(int(j[0]), int(j[1]), xi, p, c), p, c)
        f[yi] = (int(f[yi, 0]) + r0) % p, (int(f[yi, 1]) + r1) % p
    return f


def scalar_neighbors(p, c, key, ell):
    """Root-multiplicity map of the undeflated Phi_ell(j, Y) at the j-key
    ``key`` = c1*p + c0, specialized and solved by the scalar kernel, with
    the roots as j-keys."""
    roots, mults, count = _fp2_poly_roots_one(
        scalar_specialize(p, c, (key % p, key // p), ell), ell + 1, p, c, 0)
    return {r1 * p + r0: m
            for (r0, r1), m in zip(roots[:count].tolist(), mults[:count].tolist())}
