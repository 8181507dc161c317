import contextlib
import copy
import dataclasses
import gc
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import ssig
from ssig import arith, brandt, classnum, kernels, ssgraph
from ssig.arith import DomainError, is_prime
from ssig.brandt import TheoremViolation, vertex_count
from ssig import cli as cli_module
from ssig.cli import cli, main
from ssig.export import GraphCache, graph_from_dict, graph_to_dict
from ssig.ssgraph import GRAPH_VERTEX_LIMIT, SUPPORTED_ELLS, IsogenyGraph, build_graph

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def cache(tmp_path):
    return str(tmp_path / "cache")


def invoke(runner, *args):
    result = runner.invoke(cli, list(args))
    assert result.exit_code == 0, result.output
    return result.output


class TestBasicCommands:
    def test_trace(self, runner):
        assert invoke(runner, "trace", "--p", "109", "--m", "9").strip() == "17"

    def test_hurwitz(self, runner):
        assert invoke(runner, "hurwitz", "--d", "0").strip() == "-1/12"
        assert invoke(runner, "hurwitz", "--d", "3").strip() == "1/3"
        out = invoke(runner, "hurwitz", "--d", "7", "--p", "109")
        assert out.strip() == "0/1"

    def test_find_prime(self, runner):
        out = invoke(
            runner, "find-prime", "--property", "simple", "--ell", "2", "--undirected"
        )
        assert out.strip() == "1009"

    def test_find_prime_conjunction(self, runner):
        out = invoke(
            runner, "find-prime", "--property", "no-loops",
            "--ell", "2", "--ell", "3", "--undirected",
        )
        assert out.strip() == "1873"

    def test_congruence(self, runner):
        out = invoke(
            runner, "congruence", "--property", "no-loops", "--ell", "2",
            "--undirected",
        )
        assert "1, 25, 121 mod 168" in out


class TestGraphCommands:
    def test_stats_json(self, runner, cache):
        out = invoke(
            runner, "stats", "--p", "109", "--ell", "3", "--json",
            "--cache-dir", cache,
        )
        data = json.loads(out)
        assert data["loops"] == 4
        assert data["redundant_edges"] == 3

    def test_graph_json_roundtrip_is_byte_identical(self, runner, cache, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        invoke(runner, "graph", "--p", "109", "--ell", "2",
               "--cache-dir", cache, "--out", str(out1))
        # second call is served from the cache file
        invoke(runner, "graph", "--p", "109", "--ell", "2",
               "--cache-dir", cache, "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()
        data = json.loads(out1.read_text())
        assert len(data["vertices"]) == 9

    def test_graph_dot(self, runner, cache):
        out = invoke(runner, "graph", "--p", "109", "--ell", "2",
                     "--format", "dot", "--cache-dir", cache)
        assert out.startswith('graph "lambda_109"')
        assert out.count(" -- ") == 14  # 13 plain edges and one loop

    def test_graph_dot_overlay(self, runner, cache):
        out = invoke(runner, "graph", "--p", "109", "--ell", "2", "--ell2", "3",
                     "--format", "dot", "--cache-dir", cache)
        assert "[color=blue]" in out and "[color=green]" in out

    def test_verify(self, runner, cache):
        out = invoke(runner, "verify", "--p", "109", "--ell", "2",
                     "--cache-dir", cache)
        assert "all invariants hold" in out

    def test_biroute(self, runner, cache):
        out = invoke(runner, "biroute", "--p", "109", "--ell1", "2", "--ell2", "3",
                     "--r", "1", "--cache-dir", cache)
        assert "I_109(2,3,1) = 10" in out

    def test_intersect(self, runner, cache):
        out = invoke(runner, "intersect", "--p", "109", "--ell1", "2",
                     "--ell2", "3", "--cache-dir", cache)
        assert "intersection 5" in out
        assert "edit-distance 24" in out

    def test_sweep_csv(self, runner, cache, tmp_path):
        ledger = tmp_path / "ledger.csv"
        invoke(runner, "sweep", "--max", "120", "--cache-dir", cache,
               "--out", str(ledger))
        lines = ledger.read_text().strip().splitlines()
        assert lines[0] == "p,ell,n,loops,redundant,trace_checks_passed"
        assert "109,3,9,4,3,yes" in lines

    def test_sweep_verifies_a_repeated_ell_once(self, runner, cache):
        out = invoke(runner, "sweep", "--max", "40", "--ell", "2", "--ell", "3",
                     "--ell", "2", "--cache-dir", cache)
        assert [line.split(",")[:2] for line in out.splitlines()[1:]] == [
            ["13", "2"], ["13", "3"], ["37", "2"], ["37", "3"]]

    def test_stats_from_a_warm_cache_tests_each_p_for_primality_once(
            self, runner, cache, monkeypatch):
        invoke(runner, "stats", "--p", "1009", "--ell", "2", "--cache-dir", cache)
        tested = []
        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "ssig"]:
            if getattr(module, "is_prime", None) is is_prime:
                monkeypatch.setattr(module, "is_prime",
                                    lambda n: tested.append(n) or is_prime(n))
        arith.cached_is_prime.cache_clear()
        invoke(runner, "stats", "--p", "1009", "--ell", "2", "--cache-dir", cache)
        assert 1009 in tested and len(tested) == len(set(tested))


class TestExitCodes:
    def test_success(self, tmp_path):
        assert main(["trace", "--p", "109", "--m", "2"]) == 0

    def test_user_error_domain(self):
        assert main(["graph", "--p", "14", "--ell", "2"]) == 2

    def test_user_error_usage(self):
        assert main(["trace", "--p", "109"]) == 2

    @pytest.mark.parametrize("argv", [
        ["hurwitz", "--d", "1000000000000"],
        ["trace", "--p", "109", "--m", "1000001"],
        ["biroute", "--p", "109", "--ell1", "5", "--ell2", "7", "--r", "4"],
        ["biroute", "--p", "109", "--ell1", "5", "--ell2", "7", "--r", "5"],
    ])
    def test_inputs_past_the_hurwitz_limit_exit_2_at_once(self, argv, tmp_path, capsys):
        start = time.process_time()
        assert main(argv + (["--cache-dir", str(tmp_path)] if argv[0] == "biroute"
                            else [])) == 2
        assert time.process_time() - start < 5
        assert "HURWITZ_D_LIMIT" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["congruence", "--property", "no-multi-edges", "--ell", "5"],
        ["congruence", "--property", "no-common-edges", "--ell", "2", "--ell2", "7",
         "--undirected"],
    ])
    def test_congruence_past_the_modulus_limit_exits_2_at_once(self, argv, capsys):
        start = time.process_time()
        assert main(argv) == 2
        assert time.process_time() - start < 5
        assert "CONGRUENCE_M_LIMIT" in capsys.readouterr().err

    def test_graph_past_the_vertex_limit_exits_2_at_once(self, tmp_path, capsys):
        p = 98317  # the first p = 1 mod 12 with vertex_count(p) > 8192
        assert is_prime(p) and vertex_count(p) == GRAPH_VERTEX_LIMIT + 1 == 8193
        start = time.process_time()
        assert main(["stats", "--p", str(p), "--ell", "2",
                     "--cache-dir", str(tmp_path)]) == 2
        assert time.process_time() - start < 5
        assert "GRAPH_VERTEX_LIMIT" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["graph", "--p", "37", "--ell", "2", "--out", "{missing}/x.json"],
        ["stats", "--p", "37", "--ell", "2", "--cache-dir", "{regular_file}"],
        ["sweep", "--max", "40", "--out", "{missing}/l.csv"],
    ])
    def test_unwritable_paths_exit_2(self, argv, tmp_path, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli_module, "build_graph",
                            lambda *args, **kw: built.append(args) or build_graph(*args, **kw))
        regular_file = tmp_path / "regular"
        regular_file.write_text("")
        argv = [a.format(missing=tmp_path / "missing", regular_file=regular_file)
                for a in argv]
        if "--cache-dir" not in argv:
            argv += ["--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        if argv[0] == "sweep":
            # the ledger is opened before the first graph is built
            assert built == []

    def test_sweep_past_the_vertex_limit_exits_2_before_any_build(
            self, tmp_path, capsys, monkeypatch):
        verified = []
        monkeypatch.setattr(cli_module, "_verify_one",
                            lambda *args: verified.append(args))
        start = time.process_time()
        assert main(["sweep", "--max", "98317", "--cache-dir", str(tmp_path)]) == 2
        assert time.process_time() - start < 5
        assert "GRAPH_VERTEX_LIMIT" in capsys.readouterr().err
        assert verified == []

    @pytest.mark.parametrize("argv", [
        ["--max", "20", "--ell", "13"],
        ["--max", "20", "--ell", "2", "--ell", "13"],
    ], ids=["ell = p", "ell = p after a good ell"])
    def test_sweep_with_ell_equal_to_p_exits_2_before_any_build(self, argv, tmp_path,
                                                               capsys, monkeypatch):
        verified = []
        monkeypatch.setattr(cli_module, "_verify_one",
                            lambda *args: verified.append(args))
        assert main(["sweep", *argv, "--cache-dir", str(tmp_path)]) == 2
        assert "ell must be one of (2, 3, 5, 7), got 13" in capsys.readouterr().err
        assert verified == []

    @pytest.mark.parametrize("argv, message", [
        (["--p", "30013", "--ell1", "7", "--ell2", "11"], "ell must be one of"),
        (["--p", "25", "--ell1", "2", "--ell2", "3"], "25 is not prime"),
    ], ids=["ell2", "p"])
    def test_intersect_refusals_exit_2_before_any_build(self, argv, message, tmp_path,
                                                        capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli_module, "build_graph",
                            lambda *args, **kw: built.append(args))
        assert main(["intersect", *argv, "--cache-dir", str(tmp_path / "fresh")]) == 2
        assert message in capsys.readouterr().err
        assert built == []

    @pytest.mark.parametrize("p, message", [
        ("193", "--ell2 overlay is only available with --format dot"),
        ("25", "25 is not prime"),
    ], ids=["flag", "p"])
    def test_json_overlay_exits_2_before_any_build(self, p, message, tmp_path,
                                                   capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli_module, "build_graph",
                            lambda *args, **kw: built.append(args))
        assert main(["graph", "--p", p, "--ell", "2", "--ell2", "3",
                     "--cache-dir", str(tmp_path / "fresh")]) == 2
        assert message in capsys.readouterr().err
        assert built == []

    @pytest.mark.parametrize("argv, message", [
        (["--p", "30013", "--ell1", "5", "--ell2", "7", "--r", "9"],
         "R must be in [1, 5], got 9"),
        (["--p", "109", "--ell1", "3", "--ell2", "3", "--r", "1"],
         "bi-route number needs two distinct primes ell"),
        (["--p", "109", "--ell1", "5", "--ell2", "7", "--r", "4"], "HURWITZ_D_LIMIT"),
    ], ids=["R", "equal-ell", "hurwitz-degree"])
    def test_biroute_refusals_exit_2_before_any_build(self, argv, message, tmp_path,
                                                      capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli_module, "build_graph",
                            lambda *args, **kw: built.append(args))
        assert main(["biroute", *argv, "--cache-dir", str(tmp_path / "fresh")]) == 2
        assert message in capsys.readouterr().err
        assert built == []

    def test_biroute_at_p30013_runs_to_r5(self, tmp_path, capsys):
        assert main(["biroute", "--p", "30013", "--ell1", "2", "--ell2", "3", "--r", "5",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:4] == ["I_30013(2,3,5) = 45314", "  definitional 45314",
                           "  telescoped   45314", "  hurwitz      45314"]

    def test_overlay_of_ell_zero_exits_2(self, tmp_path, capsys):
        assert main(["graph", "--p", "37", "--ell", "2", "--format", "dot", "--ell2", "0",
                     "--cache-dir", str(tmp_path)]) == 2
        assert "ell must be one of" in capsys.readouterr().err

    def test_import_does_not_load_the_root_finder(self):
        # batched_roots is imported on first use; with no bytecode cache its
        # source compile would otherwise cost every command that builds no graph
        run = subprocess.run(
            [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); "
             "import ssig, ssig.cli; print('ssig.batched_roots' in sys.modules)"],
            cwd=ROOT, capture_output=True, text=True, timeout=60)
        assert (run.returncode, run.stdout) == (0, "False\n"), run.stderr

    def test_biroute_prints_only_the_routes_run(self, tmp_path, capsys):
        argv = ["biroute", "--p", "109", "--ell1", "5", "--ell2", "7", "--r", "4",
                "--method", "definitional", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[:2] == ["I_109(5,7,4) = 2999920",
                                        "  definitional 2999920"]
        assert "hurwitz" not in out and "telescoped" not in out
        assert out.splitlines()[-1].startswith("  upper bound  ")

    def test_output_streams_are_released(self):
        # click.echo without a file caches each sys.stdout it sees, and a
        # cached StringIO is never freed
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(["trace", "--p", "109", "--m", "9"]) == 0
            assert main(["trace", "--p", "109", "--m", "0"]) == 2
        assert out.getvalue() == "17\n"
        assert err.getvalue().startswith("error: ")
        refs = [weakref.ref(out), weakref.ref(err)]
        del out, err
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_theorem_violation(self, monkeypatch, tmp_path):
        def broken(p, ell):
            raise TheoremViolation("intentionally broken for the exit-code test")

        monkeypatch.setattr(cli_module, "build_graph", broken)
        code = main(["verify", "--p", "109", "--ell", "2",
                     "--cache-dir", str(tmp_path / "c")])
        assert code == 3


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    """One cache for every example of a property test, so each graph is
    built once."""
    return str(tmp_path_factory.mktemp("cache"))


class TestBirouteExitContract:
    # derandomized, so tier-1 runs the same examples, at the same cost, each time
    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(p=st.sampled_from([p for p in range(13, 400, 12) if is_prime(p)])
           | st.integers(-30, 400),
           ell1=st.sampled_from([2, 3, 5, 7, 0, 1, 4, 11]),
           ell2=st.sampled_from([2, 3, 5, 7, 0, 1, 4, 11]),
           r=st.integers(-1, 7),
           method=st.sampled_from(["definitional", "telescoped", "hurwitz", "all"]))
    def test_exits_0_with_equal_routes_under_the_bound_or_2(self, shared_cache, p, ell1,
                                                          ell2, r, method):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["biroute", "--p", str(p), "--ell1", str(ell1), "--ell2", str(ell2),
                       "--r", str(r), "--method", method, "--cache-dir", shared_cache])
        assert rc in (0, 2), err.getvalue()
        if rc == 0:
            head, *routes, bound = out.getvalue().splitlines()
            value = int(head.split(" = ")[1])
            assert len(routes) == (3 if method == "all" else 1)
            assert all(int(line.split()[-1]) == value for line in routes)
            assert bound.startswith("  upper bound") and value <= int(bound.split()[-1])


PRIMES_BELOW_400 = [p for p in range(13, 400, 12) if is_prime(p)]
P = st.sampled_from(PRIMES_BELOW_400) | st.integers(-30, 399)
ELL = st.sampled_from(SUPPORTED_ELLS * 3 + (0, 1, 4, 11))
PROPERTY = st.sampled_from(["no-loops", "no-multi-edges", "simple", "no-common-edges",
                            "loops"])
CACHE, OUT = "<cache>", "<out>"  # stand-ins for the paths of the test


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: [arg for part in ps for arg in part])


def _req(flag, values):
    return values.map(lambda v: [flag, str(v)])


def _opt(flag, values):
    return st.just([]) | _req(flag, values)


def _flag(flag):
    return st.sampled_from([[], [flag]])


_CACHED = st.just(["--cache-dir", CACHE])
# every command, its costs bounded: p < 400, --cap <= 2000, sweep --max <= 200
COMMANDS = st.one_of(
    _argv(st.just(["graph"]), _req("--p", P), _req("--ell", ELL), _opt("--ell2", ELL),
          _opt("--format", st.sampled_from(["json", "dot", "xml"])),
          _opt("--out", st.just(OUT)), _CACHED),
    _argv(st.just(["stats"]), _req("--p", P), _req("--ell", ELL), _flag("--json"), _CACHED),
    _argv(st.just(["trace"]), _req("--p", P), _req("--m", st.integers(-5, 3000))),
    _argv(st.just(["hurwitz"]), _req("--d", st.integers(-5, 10**5) | st.just(10**12)),
          _opt("--p", P)),
    _argv(st.just(["congruence"]), _req("--property", PROPERTY), _req("--ell", ELL),
          _opt("--ell2", ELL), _flag("--undirected")),
    _argv(st.just(["find-prime"]), _req("--property", PROPERTY), _req("--ell", ELL),
          _opt("--ell", ELL), _opt("--ell2", ELL), _flag("--undirected"),
          _opt("--start", st.integers(-10, 500)), _req("--cap", st.integers(-10, 2000))),
    _argv(st.just(["biroute"]), _req("--p", P), _req("--ell1", ELL), _req("--ell2", ELL),
          _req("--r", st.integers(-1, 4)),
          _opt("--method", st.sampled_from(["definitional", "telescoped", "hurwitz"])),
          _CACHED),
    _argv(st.just(["intersect"]), _req("--p", P), _req("--ell1", ELL), _req("--ell2", ELL),
          _CACHED),
    _argv(st.just(["verify"]), _req("--p", P), _req("--ell", ELL), _CACHED),
    _argv(st.just(["sweep"]), _req("--max", st.integers(-10, 200)), _opt("--ell", ELL),
          _opt("--ell", ELL), _opt("--out", st.just(OUT)), _CACHED),
)
NOISE = st.sampled_from(["--p", "x", "--bogus", "-1", "", "--help", "1e3"])


@st.composite
def argvs(draw):
    """An argument vector of one of the ten commands, in two of five with
    one or two stray tokens inserted anywhere."""
    argv = draw(COMMANDS)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        argv.insert(draw(st.integers(0, len(argv))), draw(NOISE))
    return argv


def run_timed(argv):
    """(exit code, stdout, stderr, wall seconds) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


class TestExitContract:
    """Every input ends in exit 0 or 2 within bounded time, with no
    exception escaping ``main``; exit 3 is for theorem violations, which no
    input here can plant."""

    # derandomized, so tier-1 runs the same examples, at the same cost, each time
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(argv=argvs())
    def test_every_command_exits_0_or_2_in_bounded_time(self, shared_cache, argv):
        out_path = os.path.join(shared_cache, "out")
        argv = [{CACHE: shared_cache, OUT: out_path}.get(arg, arg) for arg in argv]
        rc, _, err, seconds = run_timed(argv)
        assert rc in (0, 2), (argv, err)
        assert seconds < 10, argv

    # just below and past the trace limit m <= 10^6, and far past it: the
    # lcm of the conductors has thousands of digits, and ell^2 discriminants
    # are too many to decompose
    @pytest.mark.parametrize("ells", [["--ell", "999983"], ["--ell", "1000003"],
                                      ["--ell", "100000007"], ["--ell", "1000000007"],
                                      ["--ell", "999983", "--ell2", "1000003"]])
    @pytest.mark.parametrize("prop", ["no-loops", "no-multi-edges", "simple",
                                      "no-common-edges"])
    @pytest.mark.parametrize("command", [["congruence"], ["find-prime", "--cap", "200"]])
    def test_large_ells_exit_0_or_2_in_bounded_time(self, command, prop, ells):
        argv = [*command, "--property", prop, *ells]
        rc, _, err, seconds = run_timed(argv)
        assert rc in (0, 2), (argv, err)
        assert seconds < 10, argv

    @pytest.fixture(scope="class")
    def stats_entry(self, tmp_path_factory):
        """(cache dir, path and bytes of its entry for (109, 3), and the
        output of ``stats --json`` from a fresh build)."""
        cache = str(tmp_path_factory.mktemp("mutated"))
        rc, fresh, _, _ = run_timed(["stats", "--p", "109", "--ell", "3", "--json",
                                     "--cache-dir", cache])
        assert rc == 0
        path = Path(GraphCache(cache)._path(109, 3))
        return cache, path, path.read_bytes(), fresh

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(edits=st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                                    st.integers(0, 2**16), st.integers(0, 255)),
                          min_size=1, max_size=3))
    def test_stats_on_a_mutated_cache_entry_gives_a_fresh_builds_output(self, stats_entry,
                                                                        edits):
        cache, path, good, fresh = stats_entry
        data = bytearray(good)
        for op, pos, byte in edits:
            pos %= len(data) + (op == "insert")
            if op == "replace":
                data[pos] = byte
            elif op == "insert":
                data.insert(pos, byte)
            else:
                del data[pos]
        path.write_bytes(bytes(data))
        rc, out, err, seconds = run_timed(["stats", "--p", "109", "--ell", "3", "--json",
                                           "--cache-dir", cache])
        assert rc in (0, 2), err
        assert rc == 2 or out == fresh
        assert seconds < 10


MOVED_TO_ORACLES = ("class_number", "unit_factor", "is_fundamental", "_squarefree",
                    "_check_discriminant", "sigma_coprime", "curve_trace_sum",
                    "neighbors")


class TestPublicSurface:
    def test_every_exported_name_resolves(self):
        assert [name for name in ssig.__all__ if not hasattr(ssig, name)] == []

    def test_oracles_are_not_in_the_package(self):
        left = [(module.__name__, name)
                for module in (ssig, classnum, brandt, kernels, ssgraph)
                for name in MOVED_TO_ORACLES if hasattr(module, name)]
        assert left == []

    def test_a_graph_is_its_key_array_and_table(self):
        gone = [(module.__name__, name) for module in (ssig, arith)
                for name in ("Fp2", "Fp2Element") if hasattr(module, name)]
        assert gone == []
        assert [f.name for f in dataclasses.fields(IsogenyGraph)] == [
            "p", "ell", "vertices", "table"]

    def test_seed_option_is_gone(self, capsys):
        assert main(["verify", "--p", "13", "--ell", "2", "--seed", "1"]) == 2
        assert "--seed" in capsys.readouterr().err


def _edit(change):
    def tamper(doc, exports):
        doc = copy.deepcopy(doc)
        change(doc)
        return doc
    return tamper


def _replace_graph(js, edges):
    """Another graph on vertices ``js``; edges (i, j) of multiplicity 1."""
    def change(doc):
        doc["vertices"] = [{"index": i, "j": j} for i, j in enumerate(js)]
        doc["edges"] = [{"i": i, "j": k, "m": 1} for i, k in edges]
    return _edit(change)


def _nested(depth):
    doc = []
    for _ in range(depth):
        doc = [doc]
    return doc


# 3-regular, but with three loops where the trace formula gives one
WRONG_LOOPS = (["8+0*t", "3+10*t", "3+27*t"], [(i, k) for i in range(3) for k in range(i, 3)])
# 3-regular with one loop, but on five vertices where there are three
WRONG_COUNT = (["8+0*t", "9+0*t", "10+0*t", "3+10*t", "3+27*t"],
               [(0, 0), (0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])

# ways to damage the export document of Lambda_37(2): vertices 8+0*t, 3+10*t,
# 3+27*t and edges (i, j, m) = (0, 0, 1), (0, 1, 1), (0, 2, 1), (1, 2, 2);
# ``exports`` holds the documents of (37, 2), (37, 3) and (61, 2)
TAMPERS = {
    # the first half of each record list
    "truncated": lambda doc, exports: {k: v[:len(v) // 2] if isinstance(v, list) else v
                                       for k, v in doc.items()},
    "list, not a dict": lambda doc, exports: [doc],
    "string, not a dict": lambda doc, exports: "x",
    "nested too deep to parse": lambda doc, exports: _nested(100000),
    "no edges key": _edit(lambda d: d.pop("edges")),
    "vertex record not a dict": _edit(lambda d: d["vertices"].__setitem__(0, ["8+0*t"])),
    "vertex record without j": _edit(lambda d: d["vertices"][0].pop("j")),
    "edge record not a dict": _edit(lambda d: d["edges"].__setitem__(0, "x")),
    "edge record without m": _edit(lambda d: d["edges"][0].pop("m")),
    "malformed j": _edit(lambda d: d["vertices"][0].update(j="garbage")),
    "j not a string": _edit(lambda d: d["vertices"][0].update(j=5)),
    "edge index past n": _edit(lambda d: d["edges"][0].update(j=3)),
    "multiplicity past int64": _edit(lambda d: d["edges"][0].update(m=10**30)),
    "entry of another ell": lambda doc, exports: exports[37, 3],
    "entry of another p": lambda doc, exports: exports[61, 2],
    "negative edge index": _edit(lambda d: d["edges"][0].update(i=-1)),
    "multiplicity one too high": _edit(lambda d: d["edges"][0].update(m=2)),
    "two vertex indices swapped": _edit(lambda d: (d["vertices"][0].update(index=1),
                                                   d["vertices"][1].update(index=0))),
    "coordinate past p": _edit(lambda d: d["vertices"][0].update(j="45+0*t")),
    "j = 1728": _edit(lambda d: d["vertices"][0].update(j=f"{1728 % 37}+0*t")),
    "repeated vertex": _edit(lambda d: d["vertices"][2].update(j=d["vertices"][1]["j"])),
    "dropped edge": _edit(lambda d: d["edges"].pop()),
    "duplicated edge record": _edit(lambda d: d["edges"].append(d["edges"][1])),
    "multiplicity ell + 2": _edit(lambda d: d["edges"][3].update(m=4)),
    "unsorted edges list": _edit(lambda d: d["edges"].reverse()),
    "regular, wrong loop count": _replace_graph(*WRONG_LOOPS),
    "regular, wrong vertex count": _replace_graph(*WRONG_COUNT),
}
# the tampers whose document is still that of a Lambda_p(ell), and its
# (p, ell): the reader returns the graph a document describes, and only the
# cache asks whether that is the graph it was asked for
READ_AS = {"unsorted edges list": (37, 2), "entry of another ell": (37, 3),
           "entry of another p": (61, 2)}
# a document, or a record in it, that is not a dict holding its keys is
# refused by a DomainError; every other one by a DomainError, or by a
# TheoremViolation from the graph's check
NOT_A_DICT = ("list, not a dict", "string, not a dict", "nested too deep to parse",
              "no edges key", "vertex record not a dict", "vertex record without j",
              "edge record not a dict", "edge record without m")


def _record(p, ell, vertices, table):
    """A cache entry as ``GraphCache`` lays it out."""
    head = [p, ell, len(vertices)]
    return np.concatenate((head, vertices, np.ravel(table))).astype("<i8").tobytes()


def _record_of(js, edges):
    """The record, under the key (37, 2), of the graph on vertices ``js``
    with edges (i, j) of multiplicity 1."""
    rows = [[] for _ in js]
    for i, k in edges:
        rows[i].append(k)
        if i != k:
            rows[k].append(i)
    return _record(37, 2, ssgraph.parse_j_labels(js, 37), np.sort(rows, axis=1))


def _with_fields(change):
    def tamper(data, cache):
        fields = np.frombuffer(data, "<i8").copy()
        change(fields)
        return fields.tobytes()
    return tamper


def _other_record(p, ell):
    return lambda data, cache: Path(GraphCache(cache)._path(p, ell)).read_bytes()


# ways to damage the cache entry of Lambda_37(2), the int64 record 37, 2, 3,
# its three vertex keys, then its 3 x 3 table
RECORD_TAMPERS = {
    "truncated": lambda data, cache: data[:len(data) // 2],
    "length not a multiple of 8": lambda data, cache: data[:-3],
    "trailing bytes": lambda data, cache: data + bytes(8),
    "entry of another ell": _other_record(37, 3),
    "entry of another p": _other_record(61, 2),
    "wrong n": _with_fields(lambda f: f.__setitem__(2, 2)),
    "float64 bytes": lambda data, cache: np.frombuffer(data, "<i8").astype("<f8").tobytes(),
    "two vertex keys swapped": _with_fields(lambda f: f.__setitem__([3, 4], f[[4, 3]])),
    "regular, wrong loop count": lambda data, cache: _record_of(*WRONG_LOOPS),
    "regular, wrong vertex count": lambda data, cache: _record_of(*WRONG_COUNT),
}

CACHED_COMMANDS = (["stats", "--p", "37", "--ell", "2"],
                   ["graph", "--p", "37", "--ell", "2"],
                   ["intersect", "--p", "37", "--ell1", "2", "--ell2", "3"])


class TestCacheRobustness:
    def test_damaged_cache_entry_is_rebuilt(self, runner, cache, tmp_path):
        invoke(runner, "stats", "--p", "109", "--ell", "2", "--cache-dir", cache)
        (path,) = [os.path.join(cache, f) for f in os.listdir(cache)]
        with open(path, "w") as fh:
            fh.write("{not json")
        out = invoke(runner, "stats", "--p", "109", "--ell", "2",
                     "--cache-dir", cache)
        assert "loops             1" in out

    @pytest.mark.parametrize("tamper", sorted(RECORD_TAMPERS))
    def test_tampered_entry_is_rebuilt(self, runner, tmp_path, tamper):
        fresh = [invoke(runner, *cmd, "--cache-dir", str(tmp_path / "fresh"))
                 for cmd in CACHED_COMMANDS]
        cache = str(tmp_path / "cache")
        for p, ell in ((37, 2), (37, 3), (61, 2)):
            invoke(runner, "stats", "--p", str(p), "--ell", str(ell), "--cache-dir", cache)
        path = Path(GraphCache(cache)._path(37, 2))
        good = path.read_bytes()
        for cmd, expected in zip(CACHED_COMMANDS, fresh):
            path.write_bytes(RECORD_TAMPERS[tamper](good, cache))
            assert invoke(runner, *cmd, "--cache-dir", cache) == expected
            assert path.read_bytes() == good  # the rebuild stored the entry again

    def test_an_old_json_entry_is_neither_read_nor_touched(self, runner, tmp_path,
                                                           monkeypatch):
        fresh = [invoke(runner, *cmd, "--cache-dir", str(tmp_path / "fresh"))
                 for cmd in CACHED_COMMANDS]
        cache = tmp_path / "cache"
        cache.mkdir()
        old = cache / "graph_p37_ell2_v1.json"
        old.write_text(json.dumps(graph_to_dict(build_graph(37, 2)), indent=1,
                                  sort_keys=True) + "\n")
        before = old.read_bytes()
        built = []
        monkeypatch.setattr(cli_module, "build_graph",
                            lambda p, ell: built.append((p, ell)) or build_graph(p, ell))
        for cmd, expected in zip(CACHED_COMMANDS, fresh):
            assert invoke(runner, *cmd, "--cache-dir", str(cache)) == expected
        assert built == [(37, 2), (37, 3)]  # the first command built (37, 2)
        assert GraphCache(str(cache)).load(37, 2) is not None
        assert old.read_bytes() == before


class TestCacheRoundTrip:
    @pytest.mark.parametrize("ell", SUPPORTED_ELLS)
    def test_stored_graph_loads_unchanged(self, graphs, tmp_path, ell):
        # a load check that rejected genuine entries would turn every
        # cached query into a silent rebuild
        cache = GraphCache(str(tmp_path))
        for p in range(13, 400, 12):
            if not is_prime(p):
                continue
            built = graphs(p, ell)
            cache.store(built)
            loaded = cache.load(p, ell)
            assert loaded is not None, (p, ell)
            assert (loaded.p, loaded.ell) == (p, ell)
            assert np.array_equal(loaded.vertices, built.vertices)
            assert loaded.vertices.dtype == built.vertices.dtype == np.int64
            assert np.array_equal(loaded.table, built.table)
            assert loaded.table.dtype == built.table.dtype == np.int64

    def test_entry_is_the_little_endian_int64_record(self, graphs, tmp_path):
        g = graphs(37, 2)
        path = Path(GraphCache(str(tmp_path)).store(g))
        assert path.name == "graph_p37_ell2.i64"
        assert path.read_bytes() == _record(37, 2, [8, 373, 1002], [[0, 1, 2], [0, 2, 2],
                                                                    [0, 1, 1]])


class TestGraphFromDict:
    @pytest.mark.parametrize("tamper", sorted(TAMPERS))
    def test_tampered_document_is_refused_or_read_as_what_it_says(self, graphs, tamper):
        exports = {key: graph_to_dict(graphs(*key)) for key in ((37, 2), (37, 3), (61, 2))}
        doc = TAMPERS[tamper](exports[37, 2], exports)
        if tamper in READ_AS:
            g, expected = graph_from_dict(doc), graphs(*READ_AS[tamper])
            assert (g.p, g.ell) == (expected.p, expected.ell)
            assert np.array_equal(g.vertices, expected.vertices)
            assert np.array_equal(g.table, expected.table)
        else:
            with pytest.raises(DomainError if tamper in NOT_A_DICT
                               else (DomainError, TheoremViolation)):
                graph_from_dict(doc)

    @pytest.mark.parametrize("field, value", [
        ("p", "37"), ("p", 37.0), ("p", True), ("p", np.int64(37)),
        ("ell", "2"), ("ell", 2.0), ("ell", True), ("ell", np.int64(2))])
    def test_p_or_ell_that_is_not_an_int_is_refused(self, graphs, field, value):
        doc = graph_to_dict(graphs(37, 2))
        doc[field] = value
        with pytest.raises(DomainError, match=f"^{field} must be an int"):
            graph_from_dict(doc)

    # 45+0*t would alias the key 1*37 + 8 of 8+1*t; 3+37*t spells a key
    # that round-trips, but its c1 is p
    @pytest.mark.parametrize("label", ["45+0*t", "08+0*t", "8+0", "-1+0*t", "3+37*t"])
    def test_label_not_spelled_by_j_labels_is_refused(self, label):
        doc = graph_to_dict(build_graph(37, 2))
        assert doc["vertices"][0]["j"] == "8+0*t"
        doc["vertices"][0]["j"] = label
        with pytest.raises(DomainError):
            graph_from_dict(doc)

    # Lambda_p(2) past the limit has 8193 vertices; the second document's
    # one vertex with three loops is well formed, but is not that graph
    @pytest.mark.parametrize("vertices, edges", [
        ([], []), ([{"index": 0, "j": "5+0*t"}], [{"i": 0, "j": 0, "m": 3}])])
    def test_p_past_the_vertex_limit_is_refused_before_sizing_arrays(self, vertices,
                                                                     edges):
        p = 98317
        doc = {"version": 1, "p": p, "ell": 2, "c": arith.nonresidue(p),
               "vertices": vertices, "edges": edges}
        with pytest.raises(DomainError, match="GRAPH_VERTEX_LIMIT"):
            graph_from_dict(doc)

    @pytest.mark.parametrize("field, value", [("ell", 10**9), ("m", 10**9)])
    def test_huge_degree_or_multiplicity_is_refused_before_allocating(self, field, value):
        doc = graph_to_dict(build_graph(37, 2))
        if field == "ell":
            doc["ell"] = value
        else:
            doc["edges"][0]["m"] = value
        tracemalloc.start()
        try:
            with pytest.raises(DomainError):
                graph_from_dict(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
