"""Hot integer kernels: F_p^2 polynomial arithmetic and curve point counts.

The scalar kernels are flat int64 loop code so they can be compiled with
numba's ``@njit``.  Set ``SSIG_BACKEND=python`` to skip compilation,
``SSIG_BACKEND=numba`` to require it (raising if numba is missing); the
default is numba when available.

``fp2_poly_roots`` finds the roots of a whole batch of polynomials, and
``build_graph`` calls it once per BFS layer, passing for every vertex
the neighbours found in earlier layers as known roots.  Under numba the
rows go through the compiled per-polynomial kernel
``_fp2_poly_roots_one`` one at a time, and the known roots are only
checked against what it finds.  The python backend runs the whole batch
through the vectorized numpy root finder of ``batched_roots`` instead:
it divides the known roots out and solves a residual of degree <= 2 in
closed form, so that only residuals of degree >= 3 need
Cantor-Zassenhaus.  The point-count scan also has a numpy path.  Results
are identical on both backends.

F_p^2 is F_p[t]/(t^2 - c); an element is the int64 pair (c0, c1) meaning
c0 + c1*t.  A polynomial is an int64 array of shape (deg+1, 2), lowest
degree first.  All moduli fit in 31 bits so every intermediate product
stays below 2^63.
"""

import os

import numpy as np

MAXD = 8  # largest polynomial degree handled (ell + 1 with ell <= 7)

_env = os.environ.get("SSIG_BACKEND", "").strip().lower()
if _env not in ("", "numba", "python"):
    raise RuntimeError(f"SSIG_BACKEND must be 'numba' or 'python', got {_env!r}")

if _env == "python":
    _numba = None
else:
    try:
        import numba as _numba
    except ImportError:
        if _env == "numba":
            raise
        _numba = None

BACKEND = "numba" if _numba is not None else "python"

if _numba is not None:
    jit = _numba.njit(cache=True)
else:
    def jit(fn):
        return fn


@jit
def pow_mod(a, e, p):
    a %= p
    r = 1
    while e > 0:
        if e & 1:
            r = r * a % p
        a = a * a % p
        e >>= 1
    return r


@jit
def inv_mod(a, p):
    return pow_mod(a % p, p - 2, p)


@jit
def _f2mul(a0, a1, b0, b1, p, c):
    r0 = (a0 * b0 % p + c * (a1 * b1 % p)) % p
    r1 = (a0 * b1 % p + a1 * b0 % p) % p
    return r0, r1


@jit
def _f2inv(a0, a1, p, c):
    n = (a0 * a0 % p - c * (a1 * a1 % p)) % p
    ni = inv_mod(n, p)
    return a0 * ni % p, (p - a1) % p * ni % p


@jit
def _pdeg(f, d):
    while d >= 0 and f[d, 0] == 0 and f[d, 1] == 0:
        d -= 1
    return d


@jit
def _pmonic(f, d, p, c):
    i0, i1 = _f2inv(f[d, 0], f[d, 1], p, c)
    for k in range(d + 1):
        f[k, 0], f[k, 1] = _f2mul(f[k, 0], f[k, 1], i0, i1, p, c)


@jit
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


@jit
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


@jit
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


@jit
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


@jit
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


@jit
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


@jit
def _lcg(state):
    # MINSTD; products stay below 2^48 so int64 suffices on both backends
    return state * 48271 % 2147483647


@jit
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


def _roots_by_row(coeffs, degs, p, c, seed):
    """``fp2_poly_roots`` through the compiled per-polynomial kernel."""
    n = len(degs)
    roots = np.zeros((n, MAXD, 2), np.int64)
    mults = np.zeros((n, MAXD), np.int64)
    counts = np.zeros(n, np.int64)
    for i in range(n):
        roots[i], mults[i], counts[i] = _fp2_poly_roots_one(
            coeffs[i], degs[i], p, c, seed)
    return roots, mults, counts


def fp2_poly_roots(coeffs, degs, p, c, seed, known=None, known_counts=None):
    """Roots in F_p^2 of a batch of nonzero polynomials, with multiplicities.

    ``coeffs`` has shape (N, MAXD + 1, 2), row i holding a polynomial of
    degree ``degs[i]`` lowest degree first; coefficients above the degree
    are ignored.  Returns (roots, mults, counts): for i < N and k <
    counts[i], roots[i, k] is the (c0, c1) pair of a distinct root of row
    i and mults[i, k] its multiplicity.  Rows of degree <= 0 have no roots.

    ``known``, of shape (N, K, 2), with ``known_counts`` of shape (N,),
    optionally gives distinct roots the caller already knows:
    known[i, :known_counts[i]] for row i.  Each must be a root, or
    ``TheoremViolation`` is raised; they count among the roots returned,
    with multiplicities taken on the row as given.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=np.int64)
    degs = np.asarray(degs, dtype=np.int64)
    if known is not None:
        known = np.asarray(known, dtype=np.int64)
        known_counts = np.asarray(known_counts, dtype=np.int64)
    if BACKEND == "numba":
        roots, mults, counts = _roots_by_row(coeffs, degs, p, c, seed)
        if known is not None:
            for i, k in zip(*np.nonzero(np.arange(known.shape[1]) < known_counts[:, None])):
                if not (roots[i, :counts[i]] == known[i, k] % p).all(axis=1).any():
                    from .brandt import TheoremViolation

                    raise TheoremViolation(
                        f"known root {tuple(known[i, k].tolist())} of row {i} is not a root")
        return roots, mults, counts
    # imported on first use, so that commands which build no graph do not
    # pay for compiling it
    from . import batched_roots

    return batched_roots.find_roots(coeffs, degs, p, c, seed, known, known_counts)


@jit
def _char_sum_scan(p):
    """Smallest j in F_p (j != 0, 1728) whose curve has trace zero.

    Uses the family y^2 = x^3 + 3j(1728-j) x + 2j(1728-j)^2 and the
    quadratic-character point count #E = p + 1 + sum_x chi(x^3+ax+b).
    """
    qr = np.zeros(p, np.uint8)
    for x in range(1, p):
        qr[x * x % p] = 1
    j1728 = 1728 % p
    for j in range(1, p):
        if j == j1728:
            continue
        k = (j1728 - j) % p
        a = 3 * j % p * k % p
        b = 2 * j % p * (k * k % p) % p
        s = 0
        for x in range(p):
            v = (x * x % p * x % p + a * x % p + b) % p
            if v != 0:
                s += 1 if qr[v] else -1
        if s == 0:
            return j
    return -1


def _chi_table(p):
    """x = 0 .. p-1 and the quadratic character chi(x) mod p, as numpy arrays."""
    x = np.arange(p, dtype=np.int64)
    chi = np.full(p, -1, dtype=np.int8)
    chi[x[1:] * x[1:] % p] = 1
    chi[0] = 0
    return x, chi


def _char_sum_scan_numpy(p):
    """Vectorized fallback for the supersingular seed scan."""
    x, chi = _chi_table(p)
    x3 = x * x % p * x % p
    j1728 = 1728 % p
    for j in range(1, p):
        if j == j1728:
            continue
        k = (j1728 - j) % p
        a = 3 * j % p * k % p
        b = 2 * j % p * (k * k % p) % p
        if int(chi[(x3 + a * x + b) % p].sum()) == 0:
            return j
    return -1


@jit
def _point_count_sum(p, a, b):
    qr = np.zeros(p, np.uint8)
    for x in range(1, p):
        qr[x * x % p] = 1
    s = 0
    for x in range(p):
        v = (x * x % p * x % p + a * x % p + b) % p
        if v != 0:
            s += 1 if qr[v] else -1
    return s


def curve_trace_sum(p, a, b):
    """sum_x chi(x^3 + a x + b); the curve has p + 1 + sum points."""
    if BACKEND == "numba":
        return int(_point_count_sum(p, a % p, b % p))
    x, chi = _chi_table(p)
    return int(chi[(x * x % p * x % p + (a % p) * x + b % p) % p].sum())


def supersingular_scan(p):
    """Backend-dispatched scan for the smallest supersingular j in F_p."""
    if BACKEND == "numba":
        return int(_char_sum_scan(p))
    return int(_char_sum_scan_numpy(p))
