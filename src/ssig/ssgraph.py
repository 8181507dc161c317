"""Supersingular ell-isogeny graph construction over F_p^2.

Vertices are supersingular j-invariants found by BFS from a seed curve;
edge multiplicities are root multiplicities of the classical modular
polynomial specialized at a vertex.  A j-invariant is its j-key: j = c0 +
c1*t in F_p^2 = F_p[t]/(t^2 - c), c = ``arith.nonresidue(p)``, is the
integer c1*p + c0, below p^2, so keys sort in the canonical (c1, c0)
order.  A graph is its sorted int64 array of vertex keys and its
(n, ell+1) neighbour table, which holds the Brandt matrix B(ell) row by
row; making an ``IsogenyGraph`` runs ``check_structure``, which asserts
every structural theorem about it.  ``j_labels`` and ``parse_j_labels``
are the one text spelling of a key, c0+c1*t.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .arith import DomainError, cached_is_prime, nonresidue
from .brandt import TheoremViolation, trace_formula, vertex_count
from ._modpoly_data import MODULAR_POLYNOMIALS

SUPPORTED_ELLS = (2, 3, 5, 7)

# Largest vertex count of a graph; larger p is refused before anything is
# allocated.  The graph is only its n x (ell+1) table, so the limit bounds
# the build: at p = 98269 (n = 8189), ``ssig verify`` at ell = 7 takes about
# 4 s of CPU and peaks at 66 MB RSS, with ROOT_BATCH_ROWS bounding the root
# finder's share.
GRAPH_VERTEX_LIMIT = 8192

# Most orbit representatives of a BFS layer handed to one root-finder call;
# more go in chunks, so the root finder's working set stays bounded as p grows.
ROOT_BATCH_ROWS = 1024


def validate_modpoly_table(ell):
    """Structural self-checks on the shipped Phi_ell coefficient table."""
    table = MODULAR_POLYNOMIALS[ell]
    for (i, j), coef in table.items():
        if table.get((j, i), 0) != coef:
            raise TheoremViolation(f"Phi_{ell} table is not symmetric at {(i, j)}")
        if i > ell + 1 or j > ell + 1:
            raise TheoremViolation(f"Phi_{ell} table degree exceeds {ell + 1}")
    if table.get((ell + 1, 0), 0) != 1:
        raise TheoremViolation(f"Phi_{ell} is not monic of degree {ell + 1}")
    kronecker_target = {
        (ell + 1, 0): 1,
        (0, ell + 1): 1,
        (ell, ell): -1,
        (1, 1): -1,
    }
    for key in set(table) | set(kronecker_target):
        if (table.get(key, 0) - kronecker_target.get(key, 0)) % ell != 0:
            raise TheoremViolation(
                f"Phi_{ell} fails the Kronecker congruence at {key}"
            )


for _ell in SUPPORTED_ELLS:
    validate_modpoly_table(_ell)


@dataclass(frozen=True)
class IsogenyGraph:
    """Multigraph Lambda_p(ell): the strictly increasing int64 array of
    vertex j-keys, and the neighbour table, the (n, ell+1) int64 array
    whose sorted row i lists the neighbours of vertex i, an m-fold one m
    times: row i of B(ell), spelled out.  Making one runs
    ``check_structure``, so what is not a Lambda_p(ell) is refused."""

    p: int
    ell: int
    vertices: np.ndarray
    table: np.ndarray

    def __post_init__(self):
        check_structure(self)
        for name in ("vertices", "table"):  # so the checked arrays stay as checked
            object.__setattr__(self, name, getattr(self, name).copy())
            getattr(self, name).setflags(write=False)

    @property
    def n(self):
        return len(self.vertices)

    def keys(self):
        """Row-major keys i*n + k of the table, sorted as its rows are."""
        return (np.arange(self.n)[:, None] * self.n + self.table).ravel()

    def multiplicity(self, i, k):
        """Multiplicity of the edge (i, k), elementwise over arrays."""
        keys, q = self.keys(), i * self.n + k
        return (np.searchsorted(keys, q, side="right")
                - np.searchsorted(keys, q, side="left"))

    def trace(self):
        return int(np.count_nonzero(self.table == np.arange(self.n)[:, None]))

    def edges(self):
        """Undirected edges as arrays (i, k, m) with i <= k, in row-major
        order; a loop is listed once."""
        keys = self.keys()
        first = np.concatenate(([True], keys[1:] != keys[:-1])).nonzero()[0]
        mult = np.searchsorted(keys, keys[first], side="right") - first
        i, k = np.divmod(keys[first], self.n)
        upper = i <= k
        return i[upper], k[upper], mult[upper]

    def edge_count(self):
        """Undirected edge count, loops counted once."""
        return (self.n * (self.ell + 1) + self.trace()) // 2


def find_supersingular_seed(p):
    """Smallest j in F_p whose curve y^2 = x^3 + 3j(1728-j)x + 2j(1728-j)^2
    has exactly p + 1 points (trace zero implies supersingular); j lies in
    F_p, so it is its own j-key."""
    _check_graph_prime(p)
    j = kernels.supersingular_scan(p)
    if j < 0:
        raise TheoremViolation(
            f"no supersingular j-invariant found in F_{p}; one must exist"
        )
    return j


def _check_int(name, x):
    # a bool is an int but no prime or degree; pow(c, e, p) refuses a
    # numpy integer p
    if not isinstance(x, int) or isinstance(x, bool):
        raise DomainError(f"{name} must be an int, got {x!r} of type {type(x).__name__}")


def _check_graph_prime(p):
    _check_int("p", p)
    if not cached_is_prime(p):
        raise DomainError(f"{p} is not prime")
    if p % 12 != 1:
        raise DomainError(
            f"graph construction requires p = 1 mod 12 (got p={p}); "
            "j = 0 and 1728 would carry extra automorphisms otherwise"
        )
    if p < 13:
        raise DomainError(f"p must be at least 13, got {p}")
    if vertex_count(p) > GRAPH_VERTEX_LIMIT:
        raise DomainError(f"p={p} gives {vertex_count(p)} vertices, above "
                          f"GRAPH_VERTEX_LIMIT = {GRAPH_VERTEX_LIMIT}")


def check_graph_args(p, ell):
    """Raise ``DomainError`` unless ``build_graph(p, ell)`` accepts (p, ell);
    costs no more than a primality test."""
    _check_graph_prime(p)
    _check_int("ell", ell)
    if ell not in SUPPORTED_ELLS:
        raise DomainError(f"ell must be one of {SUPPORTED_ELLS}, got {ell}")
    if p == ell:
        raise DomainError("ell must differ from p")


def _modpoly_matrix(ell, p):
    """Phi_ell mod p as an (ell + 2, ell + 2) matrix indexed [X power, Y power]."""
    table = np.zeros((ell + 2, ell + 2), dtype=np.int64)
    for (xi, yi), coef in MODULAR_POLYNOMIALS[ell].items():
        table[xi, yi] = coef % p
    return table


def j_labels(keys, p):
    """The text c0+c1*t of every j-key c1*p + c0 in ``keys``."""
    return [f"{k % p}+{k // p}*t" for k in np.asarray(keys).tolist()]


def parse_j_labels(texts, p):
    """The int64 j-keys of texts as ``j_labels`` writes them; any other
    text, or a coordinate outside [0, p), is a ``DomainError``.  A text
    that ``j_labels`` writes back unchanged from a key in [0, p^2) has
    both coordinates in [0, p)."""
    texts = list(texts)
    try:
        keys = [int(c1.removesuffix("*t")) * p + int(c0)
                for c0, c1 in (text.split("+") for text in texts)]
    except (AttributeError, ValueError) as err:
        raise DomainError(f"a j label is not c0+c1*t: {err}") from err
    if not all(0 <= k < p * p for k in keys) or j_labels(keys, p) != texts:
        raise DomainError(f"a j label is not c0+c1*t with c0, c1 in [0, {p})")
    return np.array(keys, dtype=np.int64)


def _specialize(p, c, table, keys):
    """Phi_ell(j, Y) for every j-key in ``keys``, as the (N, ell + 2, 2)
    array of monic rows that ``kernels.fp2_poly_roots`` takes: the powers
    j^0 .. j^(ell+1) of the whole batch, one ``kernels.fp2_mul`` per
    power, times the coefficient matrix, reduced term by term."""
    keys = np.asarray(keys, dtype=np.int64)
    j = np.stack((keys % p, keys // p), axis=-1)
    jpow = np.zeros((len(j), len(table), 2), dtype=np.int64)
    jpow[:, 0, 0] = 1
    for k in range(1, len(table)):
        jpow[:, k] = kernels.fp2_mul(jpow[:, k - 1], j, p, c)
    return (jpow[:, :, None, :] * table[None, :, :, None] % p).sum(axis=1) % p


def _conj_keys(keys, p):
    """The j-key of j^p for every j-key in ``keys``, elementwise: conj
    maps c1*p + c0 to ((p - c1) mod p)*p + c0, as t^p = -t."""
    c1, c0 = np.divmod(np.asarray(keys, dtype=np.int64), p)
    return -c1 % p * p + c0


def _neighbour_keys(p, c, table, keys, known):
    """The (N, ell+1) array of neighbour j-keys of every j-key in ``keys``:
    row i lists the roots of Phi_ell(j, Y) at j = keys[i], each repeated
    by its multiplicity, all found in one batched root-finder call.
    ``build_graph`` passes only Frobenius-orbit representatives, and
    derives the rows of their conjugates from these.

    ``known[i]`` lists distinct j-keys already known to be neighbours of
    ``keys[i]``; the root finder divides them out first.
    """
    ell = len(table) - 2
    keys = np.asarray(keys, dtype=np.int64)
    known_counts = np.array([len(ks) for ks in known], dtype=np.int64)
    known_keys = np.zeros((len(keys), known_counts.max(initial=0)), dtype=np.int64)
    for i, ks in enumerate(known):
        known_keys[i, :len(ks)] = ks
    try:
        owner, roots, mults = kernels.fp2_poly_roots(
            _specialize(p, c, table, keys), p, c, 0,
            np.stack((known_keys % p, known_keys // p), axis=2), known_counts)
    except kernels.InexactDeflation as err:
        root, j, remainder = j_labels(
            [err.root[1] * p + err.root[0], keys[err.row],
             err.remainder[1] * p + err.remainder[0]], p)
        raise TheoremViolation(
            f"known neighbour {root} of j={j} (p={p}, ell={ell}) leaves the "
            f"remainder {remainder} in Phi_{ell}(j, Y); "
            "contradicts the symmetry of Phi_ell") from err
    bad = np.flatnonzero(np.bincount(np.repeat(owner, mults), minlength=len(keys))
                         != ell + 1)
    if len(bad):
        raise TheoremViolation(
            f"out-degree is not {ell + 1} at j={j_labels(keys[bad], p)[0]} "
            f"(p={p}, ell={ell}); contradicts the (ell+1)-regularity of "
            "Lambda_p(ell)")
    # the roots come sorted by owner, so row i is the i-th run of ell + 1
    return np.repeat(roots[:, 1] * p + roots[:, 0], mults).reshape(len(keys), ell + 1)


def build_graph(p, ell):
    """Construct Lambda_p(ell) by BFS and verify all structural theorems.

    The BFS runs on j-keys (see the module docstring), one layer at a
    time.  j -> j^p fixes the seed, which lies in F_p, and is a graph
    automorphism: the roots of Phi_ell(j^p, Y), multiplicities included,
    are the conjugates of those of Phi_ell(j, Y).  So every layer is
    closed under conj (``_conj_keys``), or ``TheoremViolation`` is
    raised, and only its Frobenius-orbit representatives, the keys with
    key <= conj(key), are root-found, one batched root-finder call per
    ``ROOT_BATCH_ROWS`` of them; the row of each other vertex is the conj
    of its representative's row.  Phi_ell is symmetric, so every vertex
    of the previous layer adjacent to a representative j' is a known
    root of Phi_ell(j', Y).  The root finder divides those out, raising
    ``TheoremViolation`` if one leaves a remainder, and solves what is
    left, in closed form when its degree is at most 2.  Multiplicities
    are taken on the undeflated Phi_ell(j', Y), so the symmetry check of
    ``check_structure`` rests neither on the symmetry used here nor on
    conj.  The sorted keys are the vertices, and one ``np.searchsorted``
    turns the neighbour keys into the table.
    """
    check_graph_args(p, ell)
    c = nonresidue(p)
    table = _modpoly_matrix(ell, p)
    rows = {}  # j-key -> its neighbours' j-keys, with repetition
    # frontier j-key -> its distinct neighbours in the previous layer
    layer = {find_supersingular_seed(p): ()}
    while layer:
        frontier = np.fromiter(layer, np.int64, len(layer))
        partner = _conj_keys(frontier, p)
        if layer.keys() != set(partner.tolist()):
            raise TheoremViolation(f"BFS layer not closed under Frobenius "
                                   f"(p={p}, ell={ell})")
        is_rep = frontier <= partner
        reps, mates = frontier[is_rep], partner[is_rep]
        known = [layer[k] for k in reps.tolist()]
        found = np.concatenate([
            _neighbour_keys(p, c, table, reps[s:s + ROOT_BATCH_ROWS],
                            known[s:s + ROOT_BATCH_ROWS])
            for s in range(0, len(reps), ROOT_BATCH_ROWS)])
        moved = reps < mates  # the rest lie in F_p, their own partners
        solved = np.concatenate((reps, mates[moved]))
        found = np.concatenate((found, _conj_keys(found[moved], p)))
        rows.update(zip(solved.tolist(), found))
        layer = {}
        for u, row in zip(solved.tolist(), found.tolist()):
            for k in dict.fromkeys(row):
                if k not in rows:
                    layer.setdefault(k, []).append(u)

    keys = sorted(rows)
    nbr = np.searchsorted(keys, np.array([rows[k] for k in keys]))
    nbr.sort(axis=1)
    return IsogenyGraph(p=p, ell=ell, vertices=np.array(keys, dtype=np.int64), table=nbr)


def check_structure(g):
    """Raise ``DomainError`` unless ``build_graph`` accepts (p, ell), and
    ``TheoremViolation`` unless ``g`` is a well-formed Lambda_p(ell);
    ``IsogenyGraph`` runs it on every graph it makes."""
    check_graph_args(g.p, g.ell)
    for ok, what in _structure(g):
        if not ok:
            raise TheoremViolation(f"p={g.p}, ell={g.ell}: {what}")


def _structure(g):
    """(holds, what it says) of each structural theorem about ``g``, each
    computed only once those before it hold.  Both arrays must first be
    int64 ndarrays, of 1 and 2 dimensions.  The table comes next, as the
    trace is read off it: rows of ell+1 sorted entries in [0, n), and
    B(ell) symmetric, as its transposed keys k*n + i, sorted, equal the
    row-major keys i*n + k."""
    p, ell, t = g.p, g.ell, g.table
    for name, a, ndim in (("vertices", g.vertices, 1), ("table", t, 2)):
        yield (isinstance(a, np.ndarray) and a.dtype == np.int64 and a.ndim == ndim,
               f"{name} must be a {ndim}-d int64 array")
    n = g.n
    yield t.shape == (n, ell + 1), f"rows of B({ell}) must all sum to {ell + 1}"
    yield ((t[:, 1:] >= t[:, :-1]).all(),
           f"rows of the neighbour table of B({ell}) must be sorted")
    yield ((t[:, 0] >= 0).all() and (t[:, -1] < n).all(),  # the rows are sorted
           f"neighbours in B({ell}) must lie in [0, {n})")
    yield (np.array_equal(np.sort((t * n + np.arange(n)[:, None]).ravel()), g.keys()),
           f"B({ell}) must be symmetric")
    keys = g.vertices  # a key in [0, p^2) has both coordinates in [0, p)
    n_formula = vertex_count(p)
    yield n == n_formula, f"vertex count {n} != class-number formula {n_formula}"
    yield ((0 <= keys) & (keys < p * p)).all(), "a vertex coordinate lies outside [0, p)"
    yield ((keys[1:] > keys[:-1]).all(),
           "vertices are not strictly increasing in (c1, c0) order")
    yield not ((keys == 0) | (keys == 1728 % p)).any(), "a vertex is j = 0 or 1728"
    loops, trace = g.trace(), trace_formula(p, ell)
    yield loops == trace, f"loop count {loops} != trace formula {trace}"
