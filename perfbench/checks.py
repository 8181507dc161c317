"""Output checkers that share no code with ssig.

Every checker takes the text ssig printed (or the graph document it
exported) and raises ``CheckFailed`` when the output is wrong.  The
arithmetic here is the benchmark's own: F_p^2 and the modular-polynomial
specialisation for graphs, numpy Brandt recurrences for traces, divisor
sums for the Hurwitz identity, and the paper's published values for the
first primes and congruence lists.  Only the coefficient table of the
classical modular polynomials is read from ssig's source tree, as data.
"""

import ast
import json
import math
import re
from collections import Counter, deque
from fractions import Fraction

import numpy as np


class CheckFailed(AssertionError):
    """An output of ssig disagrees with the independent computation."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def load_modpoly_table(path):
    """The MODULAR_POLYNOMIALS literal of ``_modpoly_data.py``, read without
    importing it."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "MODULAR_POLYNOMIALS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise CheckFailed(f"no MODULAR_POLYNOMIALS table in {path}")


# ---------------------------------------------------------------- graphs

class _Fp2:
    """F_p[t]/(t^2 - c) on (a, b) pairs meaning a + b t."""

    def __init__(self, p, c):
        self.p, self.c = p, c

    def add(self, x, y):
        return ((x[0] + y[0]) % self.p, (x[1] + y[1]) % self.p)

    def mul(self, x, y):
        p = self.p
        return ((x[0] * y[0] + self.c * x[1] * y[1]) % p,
                (x[0] * y[1] + x[1] * y[0]) % p)


def _specialise(F, table, j):
    """Coefficients in Y of Phi_ell(j, Y), lowest degree first."""
    deg = max(yi for _, yi in table)
    powers = [(1, 0)]
    for _ in range(deg):
        powers.append(F.mul(powers[-1], j))
    coeffs = [(0, 0)] * (deg + 1)
    for (xi, yi), coef in table.items():
        coeffs[yi] = F.add(coeffs[yi], F.mul((coef % F.p, 0), powers[xi]))
    return coeffs


def _root_multiplicity(F, coeffs, r):
    """Largest m with (Y - r)^m dividing the polynomial."""
    m = 0
    f = list(coeffs)
    while len(f) > 1:
        quotient = [(0, 0)] * (len(f) - 1)
        acc = (0, 0)
        for k in range(len(f) - 1, 0, -1):
            acc = F.add(F.mul(acc, r), f[k])
            quotient[k - 1] = acc
        if F.add(F.mul(acc, r), f[0]) != (0, 0):
            break
        f = quotient
        m += 1
    return m


def _parse_j(text, p):
    match = re.fullmatch(r"(\d+)\+(\d+)\*t", text)
    _require(match is not None, f"malformed j-invariant {text!r}")
    a, b = int(match[1]), int(match[2])
    _require(a < p and b < p, f"j-invariant {text} is not reduced mod {p}")
    return a, b


def _legendre(v, p):
    v %= p
    return 0 if v == 0 else (1 if pow(v, (p - 1) // 2, p) == 1 else -1)


def _is_supersingular_fp(j, p):
    """#E(F_p) = p + 1 for y^2 = x^3 + 3j(1728-j) x + 2j(1728-j)^2."""
    k = (1728 - j) % p
    a, b = 3 * j * k % p, 2 * j * k * k % p
    return sum(_legendre(x * x * x + a * x + b, p) for x in range(p)) == 0


def graph_edges(doc):
    """{(i, k): m} with i <= k, from an exported graph document."""
    edges = {}
    for e in doc["edges"]:
        i, k, m = e["i"], e["j"], e["m"]
        _require(i <= k and (i, k) not in edges and m >= 1,
                 f"bad edge record {e}")
        edges[i, k] = m
    return edges


def adjacency(doc):
    n = len(doc["vertices"])
    A = np.zeros((n, n), dtype=np.int64)
    for (i, k), m in graph_edges(doc).items():
        A[i, k] = A[k, i] = m
    return A


def check_graph(doc, p, ell, table):
    """Lambda_p(ell) as exported by ``ssig graph --format json``."""
    _require((doc.get("p"), doc.get("ell")) == (p, ell),
             f"document is for p={doc.get('p')}, ell={doc.get('ell')}, "
             f"not p={p}, ell={ell}")
    c = doc["c"]
    _require(0 < c < p and pow(c, (p - 1) // 2, p) == p - 1,
             f"c={c} is not a quadratic nonresidue mod {p}")
    F = _Fp2(p, c)
    n = (p - 1) // 12
    verts = sorted(doc["vertices"], key=lambda v: v["index"])
    _require([v["index"] for v in verts] == list(range(n)),
             f"expected vertices 0..{n - 1}, got {len(verts)} vertex records")
    js = [_parse_j(v["j"], p) for v in verts]
    _require(len(set(js)) == n, "repeated j-invariant")
    for bad in (0, 1728 % p):
        _require((bad, 0) not in js, f"vertex j={bad} present")

    edges = graph_edges(doc)
    nbrs = [Counter() for _ in range(n)]
    for (i, k), m in edges.items():
        _require(0 <= i < n and 0 <= k < n, f"edge ({i}, {k}) out of range")
        nbrs[i][k] += m
        if k != i:
            nbrs[k][i] += m
    for i in range(n):
        _require(sum(nbrs[i].values()) == ell + 1,
                 f"vertex {i} has degree {sum(nbrs[i].values())}, not {ell + 1}")

    seen, todo = {0}, deque([0])
    while todo:
        for k in nbrs[todo.popleft()]:
            if k not in seen:
                seen.add(k)
                todo.append(k)
    _require(len(seen) == n, f"graph is not connected ({len(seen)} of {n})")

    tab = table[ell]
    for i in range(n):
        phi = _specialise(F, tab, js[i])
        for k, m in nbrs[i].items():
            mult = _root_multiplicity(F, phi, js[k])
            _require(mult == m,
                     f"edge ({i}, {k}) has m={m} but j_{k} is a root of "
                     f"multiplicity {mult} of Phi_{ell}(j_{i}, Y)")

    fp_vertex = next((a for a, b in js if b == 0), None)
    _require(fp_vertex is not None, "no vertex lies in F_p")
    _require(_is_supersingular_fp(fp_vertex, p),
             f"the curve of j={fp_vertex} does not have p + 1 points")


# ---------------------------------------------------------------- traces

def _brandt_power(A, ell, k):
    """B(ell^k) from B(ell) = A by the Hecke recurrence."""
    prev, cur = np.eye(len(A), dtype=np.int64), A
    if k == 0:
        return prev
    for _ in range(k - 1):
        prev, cur = cur, cur @ A - ell * prev
    return cur


def _factor(M, ells):
    out = {}
    for ell in ells:
        while M % ell == 0:
            out[ell] = out.get(ell, 0) + 1
            M //= ell
    _require(M == 1, f"degree has a prime factor outside {tuple(ells)}")
    return out


def brandt_trace(M, adjacency_by_ell):
    """Tr B(M) for M a product of the ells whose adjacency is given."""
    _require(_sigma(M) < 1 << 40, f"B({M}) entries could overflow int64")
    n = len(next(iter(adjacency_by_ell.values())))
    B = np.eye(n, dtype=np.int64)
    for ell, k in _factor(M, adjacency_by_ell).items():
        B = B @ _brandt_power(adjacency_by_ell[ell], ell, k)
    return int(np.trace(B))


def check_trace(text, M, adjacency_by_ell):
    """``ssig trace --p P --m M`` against the Brandt recurrence."""
    want = brandt_trace(M, adjacency_by_ell)
    _require(text == f"{want}\n", f"Tr B({M}) printed {text!r}, want {want}")


# ---------------------------------------------------------- class numbers

def _divisors(m):
    small = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    return sorted(set(small + [m // d for d in small]))


def _sigma(m):
    return sum(_divisors(m))


def parse_fraction(text):
    match = re.fullmatch(r"(-?\d+)/(\d+)\n", text)
    _require(match is not None, f"not a fraction: {text!r}")
    return Fraction(int(match[1]), int(match[2]))


def check_hurwitz_sum(m, values):
    """sum over s in Z of H(4m - s^2) = 2 sigma(m) - sum_{d|m} min(d, m/d).

    ``values`` maps each D = 4m - s^2 (s >= 0) to the printed H(D).
    """
    smax = math.isqrt(4 * m)
    lhs = sum((values[4 * m - s * s] for s in range(-smax, smax + 1)),
              Fraction(0))
    divs = _divisors(m)
    rhs = 2 * sum(divs) - sum(min(d, m // d) for d in divs)
    _require(lhs == rhs, f"Hurwitz sum for m={m} is {lhs}, want {rhs}")


# ------------------------------------------------- the paper's published values

FIRST_PRIMES = {
    ("no-loops", (3,), True): 97,
    ("no-loops", (2,), True): 193,
    ("no-loops", (2,), False): 113,
    ("simple", (2,), True): 1009,
    ("no-loops", (2, 3), True): 1873,
    ("simple", (2, 3), True): 2689,
}

CONGRUENCE_LISTS = {
    ("no-loops", (2,)): (168, (1, 25, 121)),
    ("no-loops", (3,)): (264, (1, 25, 49, 97, 169)),
    ("no-multi-edges", (2,)): (420, (1, 109, 121, 169, 289, 361)),
    ("simple", (2,)): (840, (1, 121, 169, 289, 361, 529)),
    ("simple", (3,)): (9240, (
        1, 169, 289, 361, 529, 841, 961, 1369, 1681, 1849, 2209, 2641, 2689,
        2809, 3481, 3529, 3721, 4321, 4489, 5041, 5329, 5569, 6169, 6241,
        6889, 7561, 7681, 7921, 8089, 8761)),
    ("no-common-edges", (2, 3)): (2760, (
        1, 49, 121, 169, 289, 361, 409, 601, 721, 841, 961, 1129, 1369, 1681,
        1729, 1849, 1921, 2209, 2281, 2329, 2401, 2569)),
}


def check_first_prime(text, prop, ells, undirected):
    want = FIRST_PRIMES[prop, tuple(ells), undirected]
    _require(text == f"{want}\n", f"first prime for {prop} {ells} "
             f"printed {text!r}, want {want}")


def check_congruence(text, prop, ells):
    modulus, residues = CONGRUENCE_LISTS[prop, tuple(ells)]
    match = re.match(r"\w+\(ell=[\d,]+\): p = ([\d, ]+) mod (\d+) ", text)
    _require(match is not None and text.count("\n") == 1,
             f"unexpected congruence output {text!r}")
    got = tuple(int(r) for r in match[1].split(", "))
    _require((int(match[2]), got) == (modulus, residues),
             f"{prop} {ells}: got {got} mod {match[2]}, "
             f"want {residues} mod {modulus}")


# ---------------------------------------------------------------- queries

def _edge_total(doc):
    return sum(graph_edges(doc).values())


def check_stats(text, doc):
    """``ssig stats --json`` against the exported edges."""
    s = json.loads(text)
    edges = graph_edges(doc)
    n, ell = len(doc["vertices"]), doc["ell"]
    loops = sum(m for (i, k), m in edges.items() if i == k)
    trace_a2 = sum(m * m * (1 if i == k else 2) for (i, k), m in edges.items())
    pairs = sum(m * (m - 1) // 2 for m in edges.values())
    want = {
        "p": doc["p"], "ell": ell, "n": n, "loops": loops,
        "multi_edge_pairs": pairs,
        "redundant_edges": sum(m - 1 for m in edges.values()),
        "is_simple": loops == 0 and pairs == 0,
        "trace_l": loops, "trace_l2": trace_a2 - ell * n,
    }
    _require(s == want, f"stats printed {s}, want {want}")


def _same_vertices(doc1, doc2):
    _require(doc1["p"] == doc2["p"] and doc1["vertices"] == doc2["vertices"],
             "the two graphs do not share a vertex order")


def check_intersect(text, doc1, doc2):
    """Shared edges from the exports, and edit = |E1| + |E2| - 2 I."""
    _same_vertices(doc1, doc2)
    match = re.fullmatch(r"intersection (\d+)\nedit-distance (\d+)\n", text)
    _require(match is not None, f"unexpected intersect output {text!r}")
    inter, edit = int(match[1]), int(match[2])
    e1, e2 = graph_edges(doc1), graph_edges(doc2)
    shared = sum(min(m, e2.get(key, 0)) for key, m in e1.items())
    _require(inter == shared, f"intersection {inter}, exports share {shared}")
    _require(edit == _edge_total(doc1) + _edge_total(doc2) - 2 * inter,
             f"edit distance {edit} != |E1| + |E2| - 2 I")


def _biroute_bound(l1, l2, R):
    l1, l2 = sorted((l1, l2))
    total = (l1 * l2) ** (R // 2)
    for a, b in ((R, R), (R - 1, R), (R, R - 1), (R - 1, R - 1)):
        m = l1**a * l2**b
        total += 2 * sum(d for d in _divisors(m) if d * d > m)
    return total


def check_biroute(text, R, doc1, doc2):
    """Three routes agree, respect the bound, and match numpy's Brandt
    powers of the exported adjacencies."""
    _same_vertices(doc1, doc2)
    l1, l2, p = doc1["ell"], doc2["ell"], doc1["p"]
    match = re.fullmatch(
        rf"I_{p}\({l1},{l2},{R}\) = (\d+)\n  definitional (\d+)\n"
        r"  telescoped   (\d+)\n  hurwitz      (\d+)\n  upper bound  (\d+)\n",
        text)
    _require(match is not None, f"unexpected biroute output {text!r}")
    value, *routes, bound = (int(x) for x in match.groups())
    _require(routes == [value] * 3, f"bi-route routes disagree: {routes}")
    _require(bound == _biroute_bound(l1, l2, R),
             f"printed bound {bound} != {_biroute_bound(l1, l2, R)}")
    _require(value <= bound, f"bi-route value {value} exceeds bound {bound}")
    A1, A2 = adjacency(doc1), adjacency(doc2)
    n = len(A1)
    P1 = [_brandt_power(A1, l1, a) for a in range(R + 1)]
    P2 = [_brandt_power(A2, l2, b) for b in range(R + 1)]

    def tr(a, b):
        return int(np.trace(P1[a] @ P2[b]))

    want = (tr(R, R) + tr(R - 1, R) + tr(R, R - 1) + tr(R - 1, R - 1)
            - tr(R, 0) - tr(R - 1, 0) - tr(0, R) - tr(0, R - 1) + n)
    _require(value == want, f"bi-route value {value}, Brandt powers give {want}")


def check_dot(text, doc1, doc2):
    """Two-graph DOT overlay: labels and per-pair edge counts per colour."""
    _same_vertices(doc1, doc2)
    lines = text.splitlines()
    _require(lines[0] == f'graph "lambda_{doc1["p"]}" {{' and lines[-1] == "}",
             "DOT header or footer missing")
    labels = {}
    counts = {"blue": Counter(), "green": Counter()}
    for line in lines[1:-1]:
        node = re.fullmatch(r'  v(\d+) \[label="([^"]*)"\];', line)
        edge = re.fullmatch(r"  v(\d+) -- v(\d+) \[color=(blue|green)\];", line)
        _require(node or edge, f"unexpected DOT line {line!r}")
        if node:
            labels[int(node[1])] = node[2]
        else:
            counts[edge[3]][int(edge[1]), int(edge[2])] += 1
    _require(labels == {v["index"]: v["j"] for v in doc1["vertices"]},
             "DOT vertex labels differ from the export")
    for colour, doc in (("blue", doc1), ("green", doc2)):
        _require(dict(counts[colour]) == graph_edges(doc),
                 f"{colour} DOT edges differ from the ell={doc['ell']} export")


def check_verify(text, p, ell):
    want = f"p={p} ell={ell}: all invariants hold\n"
    _require(text == want, f"verify printed {text!r}, want {want!r}")
