import itertools
import math

import pytest

from ssig.arith import DomainError, factor, is_prime
from ssig.congruence import (
    CONGRUENCE_M_LIMIT,
    PROPERTY_KINDS,
    GraphProperty,
    derive_congruences,
    discriminant_set,
    find_first_prime,
    holds_by_trace,
)

from _residue_lists import NO_COMMON_23_RESIDUES, SIMPLE3_RESIDUES


class TestGraphProperty:
    def test_validation(self):
        with pytest.raises(DomainError):
            GraphProperty("noLoops", (4,))
        with pytest.raises(DomainError):
            GraphProperty("noLoops", (2, 3))
        with pytest.raises(DomainError):
            GraphProperty("noCommonEdges", (2, 2))
        with pytest.raises(DomainError):
            GraphProperty("bogus", (2,))


class TestDiscriminantSet:
    def test_no_loops_ell2(self):
        assert discriminant_set(GraphProperty("noLoops", (2,))) == [-8, -7, -4]

    def test_no_multi_edges_ell3(self):
        assert discriminant_set(GraphProperty("noMultiEdges", (3,))) == [
            -35, -32, -27, -20, -11,
        ]


class TestDeriveCongruences:
    def test_no_loops_2_undirected(self):
        cs = derive_congruences(GraphProperty("noLoops", (2,)))
        assert cs.modulus == 168
        assert cs.residues == (1, 25, 121)

    def test_no_loops_3_undirected(self):
        cs = derive_congruences(GraphProperty("noLoops", (3,)))
        assert cs.modulus == 264
        assert cs.residues == (1, 25, 49, 97, 169)

    def test_no_multi_edges_2_undirected(self):
        cs = derive_congruences(GraphProperty("noMultiEdges", (2,)))
        assert cs.modulus == 420
        assert cs.residues == (1, 109, 121, 169, 289, 361)

    def test_simple_2_undirected(self):
        cs = derive_congruences(GraphProperty("simple", (2,)))
        assert cs.modulus == 840
        assert cs.residues == (1, 121, 169, 289, 361, 529)

    def test_simple_3_undirected(self):
        cs = derive_congruences(GraphProperty("simple", (3,)))
        assert cs.modulus == 9240
        assert cs.residues == SIMPLE3_RESIDUES

    def test_no_common_edges_23_undirected(self):
        cs = derive_congruences(GraphProperty("noCommonEdges", (2, 3)))
        assert cs.modulus == 2760
        assert cs.residues == NO_COMMON_23_RESIDUES

    @pytest.mark.parametrize("prop", [
        GraphProperty("noMultiEdges", (5,), False),
        GraphProperty("noMultiEdges", (5,)),
        GraphProperty("simple", (7,)),
        GraphProperty("noCommonEdges", (2, 7)),
        GraphProperty("noCommonEdges", (3, 5), False),
        GraphProperty("noCommonEdges", (5, 7)),
        GraphProperty("noLoops", (11,)),
    ])
    def test_modulus_past_the_limit_is_refused(self, prop):
        with pytest.raises(DomainError, match="CONGRUENCE_M_LIMIT"):
            derive_congruences(prop)

    def test_largest_known_modulus_below_the_limit_is_derived(self):
        cs = derive_congruences(GraphProperty("noLoops", (13,), False))
        assert cs.modulus == 114036 <= CONGRUENCE_M_LIMIT
        assert cs.residues[:4] == (1, 25, 49, 121)

    def test_modulus_is_minimal(self):
        """No proper divisor of the modulus describes the same residue set.

        It suffices to try M / q for each prime q | M: every proper divisor
        d of M divides one of them, and a set described modulo d is also
        described modulo every multiple of d that divides M.  The units mod M
        that reduce into the folded set number len(folded) phi(M)/phi(M/q),
        and that count equals len(residues) exactly when M / q suffices.
        """
        ells = (2, 3, 5, 7)
        derived = 0
        for kind in PROPERTY_KINDS:
            ell_sets = (list(itertools.combinations(ells, 2))
                        if kind == "noCommonEdges" else [(ell,) for ell in ells])
            for ell_set, undirected in itertools.product(ell_sets, (True, False)):
                prop = GraphProperty(kind, ell_set, undirected)
                try:
                    cs = derive_congruences(prop)
                except DomainError:
                    continue
                derived += 1
                M = cs.modulus
                for q, e in factor(M):
                    folded = {r % (M // q) for r in cs.residues}
                    lifts = q if e > 1 else q - 1  # phi(M) / phi(M / q)
                    assert len(folded) * lifts > len(cs.residues), (prop, q)
        assert derived == 20

    def test_congruence_matches_trace_predicate(self):
        for prop in (
            GraphProperty("noLoops", (2,)),
            GraphProperty("noLoops", (3,)),
            GraphProperty("noMultiEdges", (2,)),
            GraphProperty("simple", (2,)),
            GraphProperty("noCommonEdges", (2, 3)),
        ):
            cs = derive_congruences(prop)
            for p in range(cs.valid_above + 1, 4000):
                if not is_prime(p) or math.gcd(p, cs.modulus) != 1:
                    continue
                assert cs.contains(p) == holds_by_trace(prop, p), (prop, p)


class TestFirstPrimes:
    def test_named_first_primes(self):
        assert find_first_prime(GraphProperty("noLoops", (3,))) == 97
        assert find_first_prime(GraphProperty("noLoops", (2,))) == 193
        assert find_first_prime(GraphProperty("noLoops", (2,), undirected=False)) == 113
        assert find_first_prime(GraphProperty("simple", (2,))) == 1009
        assert find_first_prime(
            [GraphProperty("noLoops", (2,)), GraphProperty("noLoops", (3,))]
        ) == 1873
        assert find_first_prime(
            [GraphProperty("simple", (2,)), GraphProperty("simple", (3,))]
        ) == 2689

    def test_start_and_cap(self):
        assert find_first_prime(GraphProperty("noLoops", (3,)), start=98) > 97
        with pytest.raises(DomainError):
            find_first_prime(GraphProperty("simple", (2,)), cap=100)

    SEARCHES = [  # criterion 2's searches, and one mixing the directions
        [GraphProperty("noLoops", (3,))], [GraphProperty("noLoops", (2,))],
        [GraphProperty("noLoops", (2,), undirected=False)],
        [GraphProperty("simple", (2,))],
        [GraphProperty("noLoops", (2,)), GraphProperty("noLoops", (3,))],
        [GraphProperty("simple", (2,)), GraphProperty("simple", (3,))],
        [GraphProperty("noLoops", (2,), undirected=False), GraphProperty("noLoops", (3,))],
    ]

    @pytest.mark.parametrize("start", [5, 14, 2690])
    @pytest.mark.parametrize("props", SEARCHES, ids=range(len(SEARCHES)))
    def test_same_prime_as_a_scan_of_every_p(self, props, start):
        def every_p():
            p = start
            while not (is_prime(p) and p not in {ell for prop in props for ell in prop.ells}
                       and all(holds_by_trace(prop, p) for prop in props)):
                p += 1
            return p

        assert find_first_prime(props, start=start) == every_p()

    def test_cap_is_inclusive_and_names_itself(self):
        prop = GraphProperty("noLoops", (3,))
        assert find_first_prime(prop, cap=97) == 97
        with pytest.raises(DomainError, match="^no prime satisfying the properties below 96$"):
            find_first_prime(prop, cap=96)
        with pytest.raises(DomainError, match="below 100$"):
            find_first_prime([prop, GraphProperty("noLoops", (2,), undirected=False)],
                             start=98, cap=100)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            find_first_prime([])


class TestTracePredicate:
    def test_direction_requirement(self):
        # 113 = 5 mod 12 fails every undirected property
        assert not holds_by_trace(GraphProperty("noLoops", (2,)), 113)
        assert holds_by_trace(GraphProperty("noLoops", (2,), undirected=False), 113)

    def test_domain(self):
        with pytest.raises(DomainError):
            holds_by_trace(GraphProperty("noLoops", (2,)), 12)
        with pytest.raises(DomainError):
            holds_by_trace(GraphProperty("noLoops", (2,)), 2)


class TestNoMultiEdges3Corollary:
    def test_implies_no_loops_3_and_simple_2(self):
        """Multi-edge-freeness of the degree-3 graph forces simplicity of both."""
        nm3 = derive_congruences(GraphProperty("noMultiEdges", (3,)))
        nl3 = derive_congruences(GraphProperty("noLoops", (3,)))
        s2 = derive_congruences(GraphProperty("simple", (2,)))
        M = math.lcm(nm3.modulus, nl3.modulus, s2.modulus)
        for r in range(1, M):
            if math.gcd(r, M) != 1:
                continue
            if nm3.contains(r):
                assert nl3.contains(r)
                assert s2.contains(r)
