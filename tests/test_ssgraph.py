import numpy as np
import pytest

from ssig import kernels
from ssig.analytics import graph_stats
from ssig.arith import DomainError, Fp2, Fp2Element
from ssig.brandt import TheoremViolation, brandt_powers, trace_formula, vertex_count
from ssig.export import graph_to_dict
from ssig.ssgraph import (
    SUPPORTED_ELLS,
    IsogenyGraph,
    _modpoly_matrix,
    _neighbor_maps,
    _specialize,
    build_graph,
    check_structure,
    find_supersingular_seed,
    validate_modpoly_table,
)

from _dense import dense
from _oracles import curve_trace_sum, neighbors
from _scalar_roots import scalar_neighbors, scalar_specialize


class TestModpolyTable:
    @pytest.mark.parametrize("ell", SUPPORTED_ELLS)
    def test_symmetry_and_kronecker_congruence(self, ell):
        validate_modpoly_table(ell)


class TestSeed:
    def test_p13_unique_seed(self):
        assert find_supersingular_seed(13) == Fp2Element(5, 0)

    def test_seed_curve_has_trace_zero(self):
        for p in (13, 109, 193):
            j = find_supersingular_seed(p).c0
            k = (1728 - j) % p
            a = 3 * j * k % p
            b = 2 * j * k * k % p
            assert curve_trace_sum(p, a, b) == 0

    def test_domain(self):
        with pytest.raises(DomainError):
            find_supersingular_seed(11)


class TestSpecialize:
    @pytest.mark.parametrize("p", [109, 433])
    @pytest.mark.parametrize("ell", SUPPORTED_ELLS)
    def test_matches_scalar_specialize_on_every_vertex(self, graphs, p, ell):
        F = Fp2(p)
        vertices = graphs(p, ell).vertices
        expected = np.array([scalar_specialize(p, F.c, j, ell) for j in vertices])
        assert np.array_equal(_specialize(F, _modpoly_matrix(ell, p), vertices), expected)


class TestNeighbors:
    def test_out_degree(self):
        F = Fp2(109)
        g = build_graph(109, 3)
        for jval in g.vertices:
            mults = neighbors(F, jval, 3)
            assert sum(mults.values()) == 4

    @pytest.mark.parametrize("ell", SUPPORTED_ELLS)
    def test_maps_match_scalar_kernel_on_object_specialization(self, graphs, ell):
        # Phi_ell(j, Y) specialised by scalar powers of j, roots by the
        # scalar kernel
        F = Fp2(109)
        for jval in graphs(109, ell).vertices:
            assert neighbors(F, jval, ell) == scalar_neighbors(F, jval, ell)

    def test_smallest_graph_neighbors(self):
        F = Fp2(13)
        j = Fp2Element(5, 0)
        assert neighbors(F, j, 2) == {j: 3}


class TestBuildGraph:
    def test_p13_adjacency(self):
        g = build_graph(13, 2)
        assert g.n == 1
        assert g.table.tolist() == [[0, 0, 0]]
        assert dense(g).tolist() == [[3]]

    def test_p109_structure(self, graphs):
        for ell in (2, 3):
            g = graphs(109, ell)
            assert g.n == 9
            A = dense(g)
            assert (A.sum(axis=1) == ell + 1).all()
            assert np.array_equal(A, A.T)
            assert g.trace() == trace_formula(109, ell)

    def test_p1009_simple(self, graphs):
        g = graphs(1009, 2)
        assert g.n == 84
        assert g.trace() == 0
        assert int(dense(g).max()) == 1

    @pytest.mark.parametrize("ell", [5, 7])
    def test_larger_degrees(self, graphs, ell):
        g = graphs(109, ell)
        assert g.n == vertex_count(109)
        assert (dense(g).sum(axis=1) == ell + 1).all()
        assert g.trace() == trace_formula(109, ell)
        assert brandt_powers(g, 1)[1].T.tolist() == dense(g).tolist()

    def test_no_extra_automorphism_vertices(self, graphs):
        for jv in graphs(109, 2).vertices:
            assert not (jv.c1 == 0 and jv.c0 in (0, 1728 % 109))

    def test_deterministic_across_seeds(self):
        a = build_graph(109, 2, seed=0)
        b = build_graph(109, 2, seed=99)
        assert a.vertices == b.vertices
        assert np.array_equal(a.table, b.table)

    @pytest.mark.parametrize("p", [181, 433])
    @pytest.mark.parametrize("ell", SUPPORTED_ELLS)
    def test_outputs_do_not_depend_on_the_splitting_seed(self, p, ell):
        base = build_graph(p, ell, seed=0)
        for seed in (1, 12345, 2**32 - 1):
            g = build_graph(p, ell, seed=seed)
            assert g.vertices == base.vertices
            assert np.array_equal(g.table, base.table)
            assert graph_to_dict(g) == graph_to_dict(base)

    def test_multiplicity_reads_the_table(self, graphs):
        for ell in SUPPORTED_ELLS:
            g = graphs(433, ell)
            i, k = np.divmod(np.arange(g.n * g.n), g.n)
            assert np.array_equal(g.multiplicity(i, k).reshape(g.n, g.n), dense(g))

    def test_edge_count(self, graphs):
        g = graphs(109, 2)
        # 9 vertices of degree 3 plus one loop counted once
        assert g.edge_count() == (9 * 3 + 1) // 2

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            build_graph(11, 2)  # p = 11 mod 12
        with pytest.raises(DomainError):
            build_graph(14, 2)  # not prime
        with pytest.raises(DomainError):
            build_graph(109, 11)  # unsupported degree


def _with_table(g, table):
    return IsogenyGraph(p=g.p, ell=g.ell, field=g.field, vertices=g.vertices,
                        table=np.asarray(table, dtype=np.int64))


class TestHandMadeTables:
    """A table that is not a sorted (n, ell+1) table of vertex indices is
    a theorem violation for check_structure and bad input for graph_stats."""

    def tables(self, g):
        """name -> (table, what the refusal says)"""
        unsorted = g.table.copy()
        unsorted[0] = unsorted[0][::-1]
        past_n = g.table.copy()
        past_n[0, -1] = g.n
        return {"unsorted row": (unsorted, "must be sorted"),
                "entry >= n": (past_n, r"must lie in \[0, 9\)"),
                "narrow": (g.table[:, 1:], "must all sum to 4"),
                "wide": (np.c_[g.table, g.table[:, :1]], "must all sum to 4")}

    @pytest.mark.parametrize("name", ["unsorted row", "entry >= n", "narrow", "wide"])
    def test_check_structure_and_graph_stats_refuse(self, graphs, name):
        g = graphs(109, 3)
        assert len(set(g.table[0].tolist())) > 1  # so reversing unsorts row 0
        table, says = self.tables(g)[name]
        bad = _with_table(g, table)
        with pytest.raises(TheoremViolation, match=f"p=109, ell=3: .*{says}"):
            check_structure(bad)
        with pytest.raises(DomainError, match=says):
            graph_stats(bad)

    def test_genuine_table_passes(self, graphs):
        g = graphs(109, 3)
        check_structure(_with_table(g, g.table))


class TestDeflatedRootFinder:
    @pytest.mark.parametrize("p", [109, 433, 1009])
    @pytest.mark.parametrize("ell", SUPPORTED_ELLS)
    def test_build_graph_matches_vertex_by_vertex_oracle(self, graphs, p, ell):
        # BFS from the seed, one undeflated Phi_ell(j, Y) per vertex
        F = Fp2(p)
        order = [find_supersingular_seed(p)]
        rows = {}
        for jval in order:
            rows[jval] = scalar_neighbors(F, jval, ell)
            order += [nb for nb in rows[jval] if nb not in rows and nb not in order]
        vertices = sorted(order, key=lambda jv: (jv.c1, jv.c0))
        index = {jv: i for i, jv in enumerate(vertices)}
        adjacency = np.zeros((len(vertices), len(vertices)), np.int64)
        for jval, row in rows.items():
            for nb, mult in row.items():
                adjacency[index[jval], index[nb]] = mult
        g = graphs(p, ell)
        assert g.vertices == vertices
        assert np.array_equal(dense(g), adjacency)

    def test_planted_wrong_known_neighbour_raises(self, graphs):
        g = graphs(109, 3)
        F, table = g.field, _modpoly_matrix(3, 109)
        u, v = g.vertices[0], g.vertices[1]
        right = [g.vertices[k] for k in np.unique(g.table[1])]
        wrong = next(jv for k, jv in enumerate(g.vertices) if g.multiplicity(0, k) == 0)
        # the true neighbours deflate cleanly, in any slot
        maps = _neighbor_maps(F, table, [u, v], 0, [[], right[::-1]])
        assert maps == [neighbors(F, u, 3), neighbors(F, v, 3)]
        with pytest.raises(TheoremViolation, match="leaves the remainder") as err:
            _neighbor_maps(F, table, [v, u], 0, [right, [wrong]])
        assert f"of j={u}" in str(err.value)
        assert "p=109" in str(err.value) and "ell=3" in str(err.value)

    def test_quadratic_residual_without_roots_raises(self):
        # an ordinary j whose Phi_2(j, Y) has one simple root r in F_p^2 and
        # no other: with r known, the residual is a quadratic whose
        # discriminant is not a square in F_p^2
        F = Fp2(13)
        table = _modpoly_matrix(2, 13)
        jval, r = next((jv, next(iter(row)))
                       for jv in (Fp2Element(a, b) for a in range(13) for b in range(13))
                       for row in [scalar_neighbors(F, jv, 2)]
                       if list(row.values()) == [1])
        roots, mults, counts = kernels.fp2_poly_roots(
            _specialize(F, table, [jval]), [3], 13, F.c, 0, [[r]], [1])
        assert (counts[0], tuple(roots[0, 0]), mults[0, 0]) == (1, tuple(r), 1)
        with pytest.raises(TheoremViolation, match="out-degree is not 3"):
            _neighbor_maps(F, table, [jval], 0, [[r]])
