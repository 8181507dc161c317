"""The three workloads: seeded inputs, one round of CLI items, and checks.

A round is a fixed list of ``ssig`` argument lists.  Every run repeats the
same round, so each round costs the same work whatever the run length.
The seed shuffles the order and picks among inputs of nearly the same
cost, so the work in a round barely depends on it.  ``CACHE`` in an
argument list stands for the cache directory of the round.
"""

import json
import math
import os
import random

from checks import (
    adjacency,
    check_biroute,
    check_congruence,
    check_dot,
    check_first_prime,
    check_graph,
    check_hurwitz_sum,
    check_intersect,
    check_stats,
    check_trace,
    check_verify,
    parse_fraction,
)

CACHE = "<cache>"
ELLS = (2, 3, 5, 7)


def _args(*parts):
    return [str(x) for x in parts]


def _cached(*parts):
    return _args(*parts) + ["--cache-dir", CACHE]


def _graph_doc(call, p, ell, cache):
    rc, out, err = call(_args("graph", "--p", p, "--ell", ell, "--cache-dir", cache))
    if rc != 0:
        raise AssertionError(f"graph --p {p} --ell {ell} exited {rc}: {err}")
    return json.loads(out)


class Workload:
    """Items of one round as (key, argv); ``key`` names what to check."""

    fresh_cache_per_round = False

    def __init__(self, seed):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.items = self.order(self.plan())

    def order(self, items):
        self.rng.shuffle(items)
        return items

    def setup(self, call, cache):
        """Work users pay before the first item; runs inside set-up time."""

    def check(self, outputs, call, cache, table):
        raise NotImplementedError


class BuildSweep(Workload):
    """``ssig verify`` into a fresh cache: graph construction end to end."""

    name = "build_sweep"
    fresh_cache_per_round = True
    # Per ell, two small graphs (n = 15, 16) and one large one, plus two more
    # ell = 2 graphs: 14 items, the two ell = 7 graphs at p = 181 and 193
    # costing about the same and having six items on either side, so the
    # median item is one of them in every round.  The primes are fixed and
    # the seed orders the round: root finding costs up to 15 % more or less
    # per vertex from one prime to the next at equal n, so seeded primes
    # moved a round's cost by 15 % between seeds.
    GRAPHS = [(181, ell) for ell in ELLS] + [(193, ell) for ell in ELLS] + [
        (1009, 2), (1873, 2), (2689, 2), (1009, 3), (433, 5), (433, 7)]

    def plan(self):
        return [(("verify", p, ell), _cached("verify", "--p", p, "--ell", ell))
                for p, ell in self.GRAPHS]

    def check(self, outputs, call, cache, table):
        for (_, p, ell), text in outputs.items():
            check_verify(text, p, ell)
            check_graph(_graph_doc(call, p, ell, cache), p, ell, table)


class ClassTraces(Workload):
    """Graph-free class-number work: traces, Hurwitz numbers, searches."""

    name = "class_traces"
    # The costly degrees (l1 l2)^a go to one fixed prime, so that the work
    # in a round does not depend on the seed; the cheap off-diagonal ones
    # l1^a l2^b (a != b) go to seeded primes.
    DIAGONAL_PRIME = 109
    TRACE_PRIMES = (61, 73, 97, 157, 181, 193)
    PAIRS = ((2, 3), (2, 5), (2, 7), (3, 5), (3, 7), (5, 7))
    M_MAX = 35**3               # trace_formula takes about a second here
    OFF_DIAGONAL_MAX = 1000
    # floor(2 sqrt(m)) for the Hurwitz m's: fixes the item count per m
    HURWITZ_K = (25, 45, 60, 70)
    SEARCHES = [
        ("no-loops", (3,), True), ("no-loops", (2,), True),
        ("no-loops", (2,), False), ("simple", (2,), True),
        ("no-loops", (2, 3), True), ("simple", (2, 3), True),
    ]
    LISTS = [("no-loops", (2,)), ("no-loops", (3,)), ("no-multi-edges", (2,)),
             ("simple", (2,)), ("simple", (3,)), ("no-common-edges", (2, 3))]

    def plan(self):
        rng = self.rng
        self.primes = sorted({self.DIAGONAL_PRIME, *rng.sample(self.TRACE_PRIMES, 2)})
        items = []
        for l1, l2 in self.PAIRS:
            a = 1
            while (l1 * l2) ** a <= self.M_MAX:
                m = (l1 * l2) ** a
                items.append((("trace", self.DIAGONAL_PRIME, m),
                              _args("trace", "--p", self.DIAGONAL_PRIME, "--m", m)))
                a += 1
            off = sorted({l1**a * l2**b for a in range(1, 10) for b in range(1, 10)
                          if a != b and l1**a * l2**b <= self.OFF_DIAGONAL_MAX})
            for m in rng.sample(off, 2):
                p = rng.choice(self.primes)
                items.append((("trace", p, m), _args("trace", "--p", p, "--m", m)))
        self.hurwitz_ms = []
        for k in self.HURWITZ_K:
            m = rng.choice([m for m in range(k * k // 4, (k + 1) ** 2 // 4 + 1)
                            if math.isqrt(4 * m) == k])
            self.hurwitz_ms.append(m)
            items += [(("hurwitz", 4 * m - s * s),
                       _args("hurwitz", "--d", 4 * m - s * s))
                      for s in range(k + 1)]
        for prop, ells, undirected in self.SEARCHES:
            argv = ["find-prime", "--property", prop]
            for ell in ells:
                argv += ["--ell", str(ell)]
            items.append((("find-prime", prop, ells, undirected),
                          argv + (["--undirected"] if undirected else [])))
        for prop, ells in self.LISTS:
            argv = _args("congruence", "--property", prop, "--ell", ells[0])
            if len(ells) == 2:
                argv += ["--ell2", str(ells[1])]
            items.append((("congruence", prop, ells), argv + ["--undirected"]))
        return items

    def order(self, items):
        """Shuffled within each kind; the kinds in a fixed order, so that
        how much later calls reuse the Hurwitz cache does not hang on the
        seed."""
        kinds = ("hurwitz", "trace", "find-prime", "congruence")
        blocks = [[item for item in items if item[0][0] == kind] for kind in kinds]
        for block in blocks:
            self.rng.shuffle(block)
        return [item for block in blocks for item in block]

    def check(self, outputs, call, cache, table):
        adj = {}
        for p in self.primes:
            for ell in ELLS:
                doc = _graph_doc(call, p, ell, cache)
                check_graph(doc, p, ell, table)
                adj[p, ell] = adjacency(doc)
        hurwitz = {}
        for key, text in outputs.items():
            kind = key[0]
            if kind == "trace":
                _, p, m = key
                check_trace(text, m, {ell: adj[p, ell] for ell in ELLS})
            elif kind == "hurwitz":
                hurwitz[key[1]] = parse_fraction(text)
            elif kind == "find-prime":
                check_first_prime(text, *key[1:])
            else:
                check_congruence(text, *key[1:])
        for m in self.hurwitz_ms:
            check_hurwitz_sum(m, hurwitz)


class CachedQueries(Workload):
    """Read-side queries against a cache that set-up filled."""

    name = "cached_queries"
    # The paper's first primes with no loops for ell = 2, simple Lambda_p(2),
    # and no loops for ell = 2 and 3.  They are fixed: the dense analytics
    # cost grows as n^3, so seeded primes of nearby size moved the cost of a
    # round by 15 % between seeds.  The seed orders the queries.  With no
    # verify at p = 193 a round has 31 queries, and its median query is
    # ``graph --p 1009``, whose cost does not hang on the order: queries
    # that compute traces share the Hurwitz cache and so do.
    PRIMES = (193, 1009, 1873)

    def plan(self):
        items = []
        for p in self.PRIMES:
            for ell in (2, 3):
                items += [
                    (("stats", p, ell), _cached("stats", "--p", p, "--ell", ell, "--json")),
                    (("graph", p, ell), _cached("graph", "--p", p, "--ell", ell)),
                ]
                if p != self.PRIMES[0]:
                    items.append((("verify", p, ell),
                                  _cached("verify", "--p", p, "--ell", ell)))
            items += [
                (("intersect", p), _cached("intersect", "--p", p, "--ell1", 2, "--ell2", 3)),
                (("dot", p), _cached("graph", "--p", p, "--ell", 2, "--ell2", 3,
                                     "--format", "dot")),
            ]
            items += [(("biroute", p, r), _cached("biroute", "--p", p, "--ell1", 2,
                                                  "--ell2", 3, "--r", r))
                      for r in (1, 2, 3)]
        return items

    def setup(self, call, cache):
        for p in self.PRIMES:
            for ell in (2, 3):
                rc, _, err = call(_args("stats", "--p", p, "--ell", ell,
                                        "--cache-dir", cache))
                if rc != 0:
                    raise RuntimeError(f"cache fill p={p} ell={ell} exited {rc}: {err}")
        self.cache_files = _snapshot(cache)

    def check(self, outputs, call, cache, table):
        if _snapshot(cache) != self.cache_files:
            raise AssertionError("the cache changed while queries were served")
        docs = {}
        for (kind, *rest), text in outputs.items():
            if kind == "graph":
                p, ell = rest
                docs[p, ell] = json.loads(text)
                check_graph(docs[p, ell], p, ell, table)
        for (kind, p, *rest), text in outputs.items():
            if kind == "stats":
                check_stats(text, docs[p, rest[0]])
            elif kind == "verify":
                check_verify(text, p, rest[0])
            elif kind == "intersect":
                check_intersect(text, docs[p, 2], docs[p, 3])
            elif kind == "dot":
                check_dot(text, docs[p, 2], docs[p, 3])
            elif kind == "biroute":
                check_biroute(text, rest[0], docs[p, 2], docs[p, 3])


def _snapshot(directory):
    return {name: (st.st_size, st.st_mtime_ns)
            for name in sorted(os.listdir(directory))
            for st in [os.stat(os.path.join(directory, name))]}


WORKLOADS = {w.name: w for w in (BuildSweep, ClassTraces, CachedQueries)}
