"""Each output checker accepts ssig's real output and rejects a planted fault.

    python3 -m pytest -q perfbench/test_checks.py
"""

import copy
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from run import call, fresh_ssig  # noqa: E402

P = 109  # Lambda_109(2) has a loop and Lambda_109(3) a double edge and loops
TABLE = checks.load_modpoly_table(HERE.parent / "src" / "ssig" / "_modpoly_data.py")

CACHED = {"graph", "stats", "biroute", "intersect", "verify"}


@pytest.fixture(scope="module")
def ssig(tmp_path_factory):
    """Runs one ssig command in-process and returns what it printed."""
    cli = fresh_ssig()
    cache = str(tmp_path_factory.mktemp("cache"))

    def run(*args):
        argv = [str(a) for a in args]
        if args[0] in CACHED:
            argv += ["--cache-dir", cache]
        rc, out, err = call(cli, argv)
        assert rc == 0, err
        return out

    return run


@pytest.fixture(scope="module")
def docs(ssig):
    return {ell: json.loads(ssig("graph", "--p", P, "--ell", ell))
            for ell in (2, 3, 5, 7)}


# ---------------------------------------------------------------- graphs

@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_graph_accepts_export(docs, ell):
    checks.check_graph(docs[ell], P, ell, TABLE)


def _bump_multiplicity(doc):
    doc["edges"][0]["m"] += 1


def _drop_edge(doc):
    doc["edges"].pop()


def _move_j(doc):
    v = doc["vertices"][3]
    a, b = checks._parse_j(v["j"], P)
    v["j"] = f"{a}+{(b + 1) % P}*t"


def _zero_j(doc):
    doc["vertices"][0]["j"] = "0+0*t"


def _drop_vertex(doc):
    doc["vertices"].pop()


def _relabel_ell(doc):
    doc["ell"] = 2  # an ell = 3 file served for ell = 2


def _rewire(doc):
    """Swap the ends of two simple edges: degrees stay, Phi_3 breaks."""
    simple = [e for e in doc["edges"] if e["m"] == 1 and e["i"] != e["j"]]
    present = {(e["i"], e["j"]) for e in doc["edges"]}
    for e in simple:
        for f in simple:
            a, b, c, d = e["i"], e["j"], f["i"], f["j"]
            new = (tuple(sorted((a, d))), tuple(sorted((c, b))))
            if len({a, b, c, d}) == 4 and not present & set(new):
                (e["i"], e["j"]), (f["i"], f["j"]) = new
                return
    raise AssertionError("no pair of edges to rewire")


@pytest.mark.parametrize("fault", [_bump_multiplicity, _drop_edge, _move_j,
                                   _zero_j, _drop_vertex, _relabel_ell, _rewire])
def test_graph_rejects(docs, fault):
    doc = copy.deepcopy(docs[3])
    fault(doc)
    with pytest.raises(CheckFailed):
        checks.check_graph(doc, P, 3, TABLE)


def test_point_count_separates_supersingular(docs):
    fp = {int(v["j"].split("+")[0]) for v in docs[2]["vertices"]
          if v["j"].endswith("+0*t")}
    ordinary = next(j for j in range(1, P) if j not in fp and j != 1728 % P)
    assert all(checks._is_supersingular_fp(j, P) for j in fp)
    assert not checks._is_supersingular_fp(ordinary, P)


# ---------------------------------------------------------------- traces

@pytest.mark.parametrize("m", [6, 36, 250, 4375, 42875])
def test_trace(ssig, docs, m):
    adj = {ell: checks.adjacency(doc) for ell, doc in docs.items()}
    text = ssig("trace", "--p", P, "--m", m)
    checks.check_trace(text, m, adj)
    with pytest.raises(CheckFailed):
        checks.check_trace(f"{int(text) + 1}\n", m, adj)


def test_hurwitz_sum(ssig):
    m = 36  # a square, so H(0) = -1/12 takes part
    values = {4 * m - s * s: checks.parse_fraction(ssig("hurwitz", "--d", 4 * m - s * s))
              for s in range(13)}
    checks.check_hurwitz_sum(m, values)
    values[4 * m - 25] += 1
    with pytest.raises(CheckFailed):
        checks.check_hurwitz_sum(m, values)


# ------------------------------------------------- published values

def test_first_prime():
    checks.check_first_prime("193\n", "no-loops", (2,), True)
    with pytest.raises(CheckFailed):
        checks.check_first_prime("197\n", "no-loops", (2,), True)
    with pytest.raises(CheckFailed):
        checks.check_first_prime("193\n", "no-loops", (2,), False)


def test_congruence(ssig):
    text = ssig("congruence", "--property", "simple", "--ell", 2, "--undirected")
    checks.check_congruence(text, "simple", (2,))
    for bad in (text.replace(", 529", ""), text.replace("mod 840", "mod 420")):
        with pytest.raises(CheckFailed):
            checks.check_congruence(bad, "simple", (2,))


# ---------------------------------------------------------------- queries

def test_stats(ssig, docs):
    text = ssig("stats", "--p", P, "--ell", 3, "--json")
    checks.check_stats(text, docs[3])
    bad = json.loads(text)
    bad["trace_l2"] += 1
    with pytest.raises(CheckFailed):
        checks.check_stats(json.dumps(bad), docs[3])


def test_intersect(ssig, docs):
    text = ssig("intersect", "--p", P, "--ell1", 2, "--ell2", 3)
    checks.check_intersect(text, docs[2], docs[3])
    inter, edit = map(int, re.findall(r"\d+", text))
    for bad in (f"intersection {inter}\nedit-distance {edit + 1}\n",
                f"intersection {inter + 1}\nedit-distance {edit - 2}\n"):
        with pytest.raises(CheckFailed):
            checks.check_intersect(bad, docs[2], docs[3])


@pytest.mark.parametrize("r", [1, 2, 3])
def test_biroute(ssig, docs, r):
    text = ssig("biroute", "--p", P, "--ell1", 2, "--ell2", 3, "--r", r)
    checks.check_biroute(text, r, docs[2], docs[3])
    lines = text.splitlines(keepends=True)
    value = int(lines[0].split()[-1])
    off_by_one = [re.sub(r"\d+\n", f"{value + 1}\n", line) if k < 4 else line
                  for k, line in enumerate(lines)]
    one_route = lines[:2] + [lines[2].replace(str(value), str(value + 1))] + lines[3:]
    low_bound = lines[:4] + [f"  upper bound  {value - 1}\n"]
    for bad in (off_by_one, one_route, low_bound):
        with pytest.raises(CheckFailed):
            checks.check_biroute("".join(bad), r, docs[2], docs[3])


def test_dot(ssig, docs):
    text = ssig("graph", "--p", P, "--ell", 2, "--ell2", 3, "--format", "dot")
    checks.check_dot(text, docs[2], docs[3])
    lines = text.splitlines(keepends=True)
    blue = next(k for k, line in enumerate(lines) if "blue" in line)
    dropped = lines[:blue] + lines[blue + 1:]
    recoloured = lines[:blue] + [lines[blue].replace("blue", "green")] + lines[blue + 1:]
    for bad in (dropped, recoloured):
        with pytest.raises(CheckFailed):
            checks.check_dot("".join(bad), docs[2], docs[3])


def test_verify(ssig):
    text = ssig("verify", "--p", P, "--ell", 2)
    checks.check_verify(text, P, 2)
    with pytest.raises(CheckFailed):
        checks.check_verify(text, P, 3)
