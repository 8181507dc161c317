import dataclasses
import re
from collections import Counter

import numpy as np
import pytest

from ssig import kernels, ssgraph
from ssig.arith import DomainError, nonresidue
from ssig.brandt import TheoremViolation, brandt_powers, trace_formula, vertex_count
from ssig.cli import main
from ssig.export import GraphCache, graph_from_dict, graph_to_dict
from ssig.ssgraph import (
    SUPPORTED_ELLS,
    IsogenyGraph,
    _modpoly_matrix,
    _neighbour_keys,
    _specialize,
    build_graph,
    find_supersingular_seed,
    j_labels,
    parse_j_labels,
    validate_modpoly_table,
)

from _dense import dense
from _oracles import curve_trace_sum, neighbors
from _scalar_roots import scalar_neighbors, scalar_specialize


def bfs_layers(g):
    """BFS layers of ``g`` from its seed vertex, read off the final table,
    and for each vertex the set of its neighbours one layer nearer the seed."""
    layers = [[g.vertices.tolist().index(find_supersingular_seed(g.p))]]
    dist = {layers[0][0]: 0}
    while True:
        nxt = []
        for u in layers[-1]:
            for k in g.table[u].tolist():
                if k not in dist:
                    dist[k] = len(layers)
                    nxt.append(k)
        if not nxt:
            break
        layers.append(nxt)
    nearer = {v: {k for k in g.table[v].tolist() if dist[k] == d - 1}
              for v, d in dist.items()}
    return layers, nearer


class TestModpolyTable:
    @pytest.mark.parametrize("ell", SUPPORTED_ELLS)
    def test_symmetry_and_kronecker_congruence(self, ell):
        validate_modpoly_table(ell)


class TestSeed:
    def test_p13_unique_seed(self):
        assert find_supersingular_seed(13) == 5

    def test_seed_curve_has_trace_zero(self):
        for p in (13, 109, 193):
            j = find_supersingular_seed(p)
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
        c = nonresidue(p)
        vertices = graphs(p, ell).vertices
        expected = np.array([scalar_specialize(p, c, (j % p, j // p), ell)
                             for j in vertices.tolist()])
        # the oracle pads to its MAXD; _specialize stops at Y^(ell+1)
        assert not expected[:, ell + 2:].any()
        assert np.array_equal(_specialize(p, c, _modpoly_matrix(ell, p), vertices),
                              expected[:, :ell + 2])


class TestNeighbors:
    def test_out_degree(self):
        g = build_graph(109, 3)
        for j in g.vertices.tolist():
            mults = neighbors(109, j, 3)
            assert sum(mults.values()) == 4

    @pytest.mark.parametrize("ell", SUPPORTED_ELLS)
    def test_maps_match_scalar_kernel_on_object_specialization(self, graphs, ell):
        # Phi_ell(j, Y) specialised by scalar powers of j, roots by the
        # scalar kernel
        c = nonresidue(109)
        for j in graphs(109, ell).vertices.tolist():
            assert neighbors(109, j, ell) == scalar_neighbors(109, c, j, ell)

    def test_smallest_graph_neighbors(self):
        assert neighbors(13, 5, 2) == {5: 3}


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
        for j in graphs(109, 2).vertices.tolist():
            assert j not in (0, 1728 % 109)

    def test_deterministic_across_seeds(self, monkeypatch):
        # build_graph passes splitting seed 0; another seed builds the same graph
        a = build_graph(109, 2)
        find, seeds = kernels.fp2_poly_roots, []

        def other_seed(coeffs, p, c, seed, *known):
            seeds.append(seed)
            return find(coeffs, p, c, 99, *known)

        monkeypatch.setattr(kernels, "fp2_poly_roots", other_seed)
        b = build_graph(109, 2)
        assert seeds and set(seeds) == {0}
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.table, b.table)
        assert graph_to_dict(a) == graph_to_dict(b)

    @pytest.mark.parametrize("p", [181, 433])
    @pytest.mark.parametrize("ell", SUPPORTED_ELLS)
    def test_outputs_do_not_depend_on_the_splitting_seed(self, graphs, p, ell):
        # the seed lives in kernels.fp2_poly_roots: Phi_ell(j, Y) of every
        # vertex, with and without its neighbours one BFS layer nearer the
        # seed as known roots, has the same roots under every seed
        g = graphs(p, ell)
        _, nearer = bfs_layers(g)
        known_counts = np.array([len(nearer[v]) for v in range(g.n)])
        known = np.zeros((g.n, known_counts.max(), 2), np.int64)
        for v, ks in nearer.items():
            for slot, k in enumerate(sorted(ks)):
                known[v, slot] = g.vertices[k] % p, g.vertices[k] // p
        c = nonresidue(p)
        coeffs = _specialize(p, c, _modpoly_matrix(ell, p), g.vertices)
        none = np.zeros((g.n, 0, 2), np.int64), np.zeros(g.n, np.int64)
        base = kernels.fp2_poly_roots(coeffs, p, c, 0, *none)
        for seed in (0, 1, 12345, 2**32 - 1):
            for given in (none, (known, known_counts)):
                found = kernels.fp2_poly_roots(coeffs, p, c, seed, *given)
                assert all(np.array_equal(a, b) for a, b in zip(found, base))
        # and those roots are the graph's table
        _, roots, mults = base
        root_keys = np.repeat(roots[:, 1] * p + roots[:, 0], mults)
        rows = np.searchsorted(g.vertices, root_keys.reshape(g.n, ell + 1))
        assert np.array_equal(np.sort(rows, axis=1), g.table)

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

    # a bool is an int but no prime or degree (True == 1); a numpy integer
    # is refused too, where it used to reach pow() and raise TypeError
    @pytest.mark.parametrize("p, ell", [
        (True, 2), (np.int64(109), 2), (109.0, 2), ("109", 2),
        (109, True), (109, np.int64(2)), (109, 2.0), (109, "2")])
    def test_p_and_ell_must_be_ints(self, p, ell):
        name = "p" if type(p) is not int else "ell"
        with pytest.raises(DomainError, match=f"^{name} must be an int, got "):
            ssgraph.check_graph_args(p, ell)
        with pytest.raises(DomainError, match=f"^{name} must be an int"):
            build_graph(p, ell)
        if name == "p":
            with pytest.raises(DomainError, match="^p must be an int"):
                find_supersingular_seed(p)


def _with_table(g, table):
    return dataclasses.replace(g, table=np.asarray(table, dtype=np.int64))


def _vertices_with(g, j):
    """The vertices of ``g`` with the j-key ``j`` in place of the vertex it
    sorts at, so that the keys stay increasing."""
    vertices = g.vertices.copy()
    vertices[min(np.searchsorted(vertices, j), g.n - 1)] = j
    return vertices


class TestJLabels:
    def test_spelling(self):
        assert j_labels([5, 3 * 13 + 5, 13 * 13 - 1], 13) == ["5+0*t", "5+3*t", "12+12*t"]

    def test_parse_inverts_every_vertex_label(self, graphs):
        g = graphs(433, 5)
        keys = parse_j_labels(j_labels(g.vertices, 433), 433)
        assert keys.dtype == np.int64 and np.array_equal(keys, g.vertices)


class TestHandMadeVertices:
    """A vertex array that is not the sorted j-keys of Lambda_p(ell) is a
    theorem violation when the graph is made, each kind with its message."""

    def changes(self, g):
        """name -> (fields that replace those of ``g``, what the refusal says)"""
        v, rest = g.vertices, list(range(2, g.n))
        # one more vertex, carrying ell + 1 loops, keeps the table regular
        extra = {"vertices": np.append(v, g.p * g.p - 1),
                 "table": np.vstack((g.table, np.full(g.ell + 1, g.n)))}
        increasing = "vertices are not strictly increasing in (c1, c0) order"
        return {"vertex count": (extra, "vertex count 10 != class-number formula 9"),
                "key >= p^2": ({"vertices": _vertices_with(g, g.p * g.p)},
                               "a vertex coordinate lies outside [0, p)"),
                "swapped": ({"vertices": v[[1, 0, *rest]]}, increasing),
                "repeated": ({"vertices": v[[0, 0, *rest]]}, increasing),
                "j = 0": ({"vertices": _vertices_with(g, 0)}, "a vertex is j = 0 or 1728"),
                "j = 1728": ({"vertices": _vertices_with(g, 1728 % g.p)},
                             "a vertex is j = 0 or 1728")}

    @pytest.mark.parametrize("name", ["vertex count", "key >= p^2", "swapped", "repeated",
                                      "j = 0", "j = 1728"])
    def test_check_structure_refuses(self, graphs, name):
        g = graphs(109, 3)
        fields, says = self.changes(g)[name]
        with pytest.raises(TheoremViolation, match=re.escape(f"p=109, ell=3: {says}")):
            dataclasses.replace(g, **fields)


class TestHandMadeTables:
    """A table that is not a sorted (n, ell+1) table of vertex indices is
    a theorem violation when the graph is made, so neither graph_stats
    nor any other reader of the table is ever handed one."""

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
        with pytest.raises(TheoremViolation, match=f"p=109, ell=3: .*{says}"):
            _with_table(g, table)

    def test_genuine_table_passes(self, graphs):
        g = graphs(109, 3)
        assert np.array_equal(_with_table(g, g.table.copy()).table, g.table)


class TestCheckedOnce:
    def test_each_way_of_making_a_graph_checks_it_once(self, graphs, monkeypatch,
                                                        tmp_path):
        g = graphs(109, 3)
        cache = GraphCache(str(tmp_path))
        cache.store(g)
        checked, check = [], ssgraph.check_structure
        monkeypatch.setattr(ssgraph, "check_structure",
                            lambda graph: checked.append(graph) or check(graph))
        makers = {"build_graph": lambda: build_graph(109, 3),
                  "graph_from_dict": lambda: graph_from_dict(graph_to_dict(g)),
                  "GraphCache.load": lambda: cache.load(109, 3),
                  "dataclasses.replace": lambda: dataclasses.replace(g)}
        for name, make in makers.items():
            checked.clear()
            made = make()
            assert len(checked) == 1 and checked[0] is made, name

    def test_a_graph_is_frozen(self, graphs):
        with pytest.raises(dataclasses.FrozenInstanceError):
            dataclasses.replace(graphs(109, 3)).table = None

    def test_its_arrays_are_read_only_copies(self, graphs):
        g = graphs(109, 3)
        vertices, table = g.vertices.copy(), g.table.copy()
        made = IsogenyGraph(p=109, ell=3, vertices=vertices, table=table)
        for a in (made.vertices, made.table):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 5
        vertices[0], table[0, 0] = 5, 5  # the caller's arrays stay writable
        assert made.vertices[0] == g.vertices[0] and made.table[0, 0] == g.table[0, 0]

    @pytest.mark.parametrize("cast", [
        lambda a: a.astype(np.float64), lambda a: a.astype(np.int32), lambda a: a.tolist(),
    ], ids=["float64", "int32", "list"])
    @pytest.mark.parametrize("name", ["vertices", "table"])
    def test_anything_but_int64_arrays_is_refused(self, graphs, cast, name):
        g = graphs(109, 3)
        with pytest.raises(TheoremViolation, match=f"{name} must be a [12]-d int64 array"):
            dataclasses.replace(g, **{name: cast(getattr(g, name))})


class TestDeflatedRootFinder:
    @pytest.mark.parametrize("p", [109, 433, 1009])
    @pytest.mark.parametrize("ell", SUPPORTED_ELLS)
    def test_build_graph_matches_vertex_by_vertex_oracle(self, graphs, p, ell):
        # BFS from the seed, one undeflated Phi_ell(j, Y) per vertex, j-key
        # c1*p + c0 listed in (c1, c0) order
        c = nonresidue(p)
        order = [find_supersingular_seed(p)]
        rows = {}
        for j in order:
            rows[j] = scalar_neighbors(p, c, j, ell)
            order += [nb for nb in rows[j] if nb not in rows and nb not in order]
        vertices = sorted(order, key=lambda j: divmod(j, p))
        index = {j: i for i, j in enumerate(vertices)}
        adjacency = np.zeros((len(vertices), len(vertices)), np.int64)
        for j, row in rows.items():
            for nb, mult in row.items():
                adjacency[index[j], index[nb]] = mult
        g = graphs(p, ell)
        assert g.vertices.dtype == np.int64
        assert g.vertices.tolist() == vertices
        assert np.array_equal(dense(g), adjacency)

    def test_planted_wrong_known_neighbour_raises(self, graphs):
        g = graphs(109, 3)
        c, table = nonresidue(109), _modpoly_matrix(3, 109)
        u, v = g.vertices[:2].tolist()
        right = g.vertices[np.unique(g.table[1])].tolist()
        wrong = next(j for k, j in enumerate(g.vertices.tolist())
                     if g.multiplicity(0, k) == 0)
        # the true neighbours deflate cleanly, in any slot
        rows = _neighbour_keys(109, c, table, [u, v], [[], right[::-1]])
        maps = [dict(Counter(row)) for row in rows.tolist()]
        assert maps == [neighbors(109, u, 3), neighbors(109, v, 3)]
        with pytest.raises(TheoremViolation, match="leaves the remainder") as err:
            _neighbour_keys(109, c, table, [v, u], [right, [wrong]])
        assert f"of j={u % 109}+{u // 109}*t (p=109" in str(err.value)
        assert "p=109" in str(err.value) and "ell=3" in str(err.value)

    def test_quadratic_residual_without_roots_raises(self):
        # an ordinary j whose Phi_2(j, Y) has one simple root r in F_p^2 and
        # no other: with r known, the residual is a quadratic whose
        # discriminant is not a square in F_p^2
        c = nonresidue(13)
        table = _modpoly_matrix(2, 13)
        j, r = next((j, next(iter(row)))
                    for j in (b * 13 + a for a in range(13) for b in range(13))
                    for row in [scalar_neighbors(13, c, j, 2)]
                    if list(row.values()) == [1])
        found = kernels.fp2_poly_roots(
            _specialize(13, c, table, [j]), 13, c, 0, [[(r % 13, r // 13)]], [1])
        assert [a.tolist() for a in found] == [[0], [[r % 13, r // 13]], [1]]
        with pytest.raises(TheoremViolation,
                           match=re.escape(f"out-degree is not 3 at j={j % 13}+{j // 13}*t")):
            _neighbour_keys(13, c, table, [j], [[r]])


def conj(key, p):
    """The j-key of j^p: (c0 + c1*t)^p = c0 - c1*t, as t^p = -t."""
    c1, c0 = divmod(key, p)
    return (-c1 % p) * p + c0


class TestKnownNeighbourHandOff:
    """Which rows build_graph root-finds, and which known roots it hands
    the root finder, shows in no output, so the calls themselves are
    recorded."""

    @pytest.mark.parametrize("p", [433, 1009])
    @pytest.mark.parametrize("ell", SUPPORTED_ELLS)
    def test_each_vertex_gets_its_neighbours_one_layer_nearer(self, graphs, monkeypatch,
                                                              p, ell):
        g = graphs(p, ell)
        rows = _specialize(p, nonresidue(p), _modpoly_matrix(ell, p), g.vertices)
        vertex_of_row = {row.tobytes(): v for v, row in enumerate(rows)}
        assert len(vertex_of_row) == g.n
        keys = g.vertices.tolist()
        index = {j: i for i, j in enumerate(keys)}
        partner = [index[conj(j, p)] for j in keys]
        find, calls = kernels.fp2_poly_roots, []

        def record(coeffs, p, c, seed, known, known_counts):
            calls.append([(vertex_of_row[row.tobytes()],
                           sorted(index[r1 * p + r0] for r0, r1 in ks[:k].tolist()))
                          for row, ks, k in zip(coeffs, known, known_counts)])
            return find(coeffs, p, c, seed, known, known_counts)

        monkeypatch.setattr(kernels, "fp2_poly_roots", record)
        build_graph(p, ell)
        layers, nearer = bfs_layers(g)
        # one root-finder call per BFS layer, as each is below ROOT_BATCH_ROWS,
        # holding exactly the layer's Frobenius-orbit representatives
        assert max(map(len, layers)) <= ssgraph.ROOT_BATCH_ROWS
        assert len(calls) == len(layers)
        for call, layer in zip(calls, layers):
            assert sorted(partner[v] for v in layer) == sorted(layer)
            assert sorted(v for v, _ in call) == sorted(
                v for v in layer if keys[v] <= keys[partner[v]])
            for v, given in call:
                assert given == sorted(nearer[v])
        # the rows that were not root-found are the conj of their partners'
        for v, w in enumerate(partner):
            assert g.table[w].tolist() == sorted(partner[k] for k in g.table[v].tolist())

    @pytest.mark.parametrize("p,ell", [(433, 5), (1009, 2)])
    def test_layers_in_chunks_of_root_batch_rows_build_the_same_graph(
            self, graphs, monkeypatch, p, ell):
        default = graphs(p, ell)
        find, sizes = kernels.fp2_poly_roots, []

        def record(coeffs, *args):
            sizes.append(len(coeffs))
            return find(coeffs, *args)

        monkeypatch.setattr(kernels, "fp2_poly_roots", record)
        monkeypatch.setattr(ssgraph, "ROOT_BATCH_ROWS", 7)
        g = build_graph(p, ell)
        fp_vertices = int(np.count_nonzero(g.vertices < p))
        assert 0 < fp_vertices < g.n
        assert max(sizes) == 7 and sum(sizes) == (g.n + fp_vertices) // 2
        assert np.array_equal(g.vertices, default.vertices)
        assert np.array_equal(g.table, default.table)

    def test_layer_not_closed_under_frobenius_raises(self, graphs, monkeypatch,
                                                    tmp_path, capsys):
        # a seed outside F_p: its first layer {seed} lacks the seed's conjugate
        g = graphs(433, 3)
        seed = int(g.vertices[-1])
        assert seed >= 433 and conj(seed, 433) != seed
        monkeypatch.setattr(ssgraph, "find_supersingular_seed", lambda p: seed)
        with pytest.raises(TheoremViolation, match="BFS layer not closed under Frobenius"):
            build_graph(433, 3)
        capsys.readouterr()
        assert main(["verify", "--p", "433", "--ell", "3",
                     "--cache-dir", str(tmp_path)]) == 3
        assert "BFS layer not closed under Frobenius" in capsys.readouterr().err
