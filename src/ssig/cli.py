"""Command-line front end.

Exit status contract: 0 success, 2 user error (including a path that
cannot be read or written), 3 theorem violation (an identity that should
be provably true failed, i.e. a bug).
"""

import csv
import json
import sys

import click

from .arith import DomainError, is_prime
from .analytics import (
    biroute,
    check_biroute_args,
    edit_distance,
    graph_stats,
    intersection_number,
)
from .brandt import TheoremViolation, trace_formula
from .classnum import hurwitz, hurwitz_modified
from .congruence import GraphProperty, derive_congruences, find_first_prime
from .export import GraphCache, graph_to_dict, to_dot
from .ssgraph import build_graph, check_graph_args

PROPERTY_NAMES = {
    "no-loops": "noLoops",
    "no-multi-edges": "noMultiEdges",
    "simple": "simple",
    "no-common-edges": "noCommonEdges",
}


def _echo(message, nl=True, err=False):
    """click.echo to the current sys.stdout or sys.stderr, passed explicitly.

    Without a file, click caches the stream it resolves per sys.stdout
    object, and for a StringIO that cache entry keeps the stream alive, so
    every in-process call under redirect_stdout would leak its output.
    """
    click.echo(message, file=sys.stderr if err else sys.stdout, nl=nl)


@click.group()
def cli():
    """Supersingular isogeny graph toolkit."""


def _load_or_build(p, ell, cache_dir):
    cache = GraphCache(cache_dir)
    g = cache.load(p, ell)
    if g is None:
        g = build_graph(p, ell)
        cache.store(g)
    return g


def _properties(name, ells, undirected):
    kind = PROPERTY_NAMES.get(name)
    if kind is None:
        raise DomainError(f"unknown property {name!r}")
    if kind == "noCommonEdges":
        if len(ells) != 2:
            raise DomainError("no-common-edges needs --ell and --ell2")
        return [GraphProperty(kind, tuple(ells), undirected)]
    return [GraphProperty(kind, (ell,), undirected) for ell in ells]


cache_option = click.option("--cache-dir", default=None, help="graph cache directory")


@cli.command()
@click.option("--p", "p", type=int, required=True)
@click.option("--ell", type=int, required=True)
@click.option("--ell2", type=int, default=None, help="overlay a second graph (DOT)")
@click.option("--format", "fmt", type=click.Choice(["json", "dot"]), default="json")
@click.option("--out", type=click.Path(), default=None)
@cache_option
def graph(p, ell, ell2, fmt, out, cache_dir):
    """Build (or load cached) Lambda_p(ell) and export it."""
    check_graph_args(p, ell)
    if ell2 is not None:
        if fmt == "json":
            raise DomainError("--ell2 overlay is only available with --format dot")
        check_graph_args(p, ell2)
    g = _load_or_build(p, ell, cache_dir)
    if fmt == "json":
        text = json.dumps(graph_to_dict(g, graph_stats(g)), indent=1, sort_keys=True)
        text += "\n"
    else:
        overlay = None if ell2 is None else _load_or_build(p, ell2, cache_dir)
        text = to_dot(g, overlay)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        _echo(text, nl=False)


@cli.command()
@click.option("--p", "p", type=int, required=True)
@click.option("--ell", type=int, required=True)
@click.option("--json", "as_json", is_flag=True)
@cache_option
def stats(p, ell, as_json, cache_dir):
    """Loop/multi-edge statistics of Lambda_p(ell)."""
    g = _load_or_build(p, ell, cache_dir)
    s = graph_stats(g)
    if as_json:
        _echo(json.dumps({"p": s.p, "ell": s.ell, **s.as_dict()}, sort_keys=True))
        return
    _echo(f"p = {s.p}, ell = {s.ell}")
    _echo(f"vertices          {s.n}")
    _echo(f"loops             {s.loop_count}")
    _echo(f"multi-edge pairs  {s.multi_edge_pair_count}")
    _echo(f"redundant edges   {s.redundant_edges}")
    _echo(f"simple            {'yes' if s.is_simple else 'no'}")
    _echo(f"Tr B(ell)         {s.trace_l}")
    _echo(f"Tr B(ell^2)       {s.trace_l2}")


@cli.command()
@click.option("--p", "p", type=int, required=True)
@click.option("--m", "m", type=int, required=True)
def trace(p, m):
    """Tr(B(m)) via the Hurwitz class-number formula."""
    _echo(str(trace_formula(p, m)))


@cli.command("hurwitz")
@click.option("--d", "d", type=int, required=True)
@click.option("--p", "p", type=int, default=None)
def hurwitz_cmd(d, p):
    """H(D), or H_p(D) when --p is given, as a reduced fraction."""
    value = hurwitz(d) if p is None else hurwitz_modified(d, p)
    _echo(f"{value.numerator}/{value.denominator}")


@cli.command()
@click.option("--property", "prop_name", required=True,
              type=click.Choice(sorted(PROPERTY_NAMES)))
@click.option("--ell", type=int, required=True)
@click.option("--ell2", type=int, default=None)
@click.option("--undirected", is_flag=True)
def congruence(prop_name, ell, ell2, undirected):
    """Congruence classes on p equivalent to a graph property."""
    ells = [ell] + ([ell2] if ell2 is not None else [])
    props = _properties(prop_name, ells, undirected)
    for prop in props:
        cs = derive_congruences(prop)
        label = ",".join(str(e) for e in prop.ells)
        _echo(f"{prop.kind}(ell={label}): p = "
                   + ", ".join(str(r) for r in cs.residues)
                   + f" mod {cs.modulus}"
                   + f"  (exact for p > {cs.valid_above} coprime to the modulus)")


@cli.command("find-prime")
@click.option("--property", "prop_name", required=True,
              type=click.Choice(sorted(PROPERTY_NAMES)))
@click.option("--ell", "ells", type=int, required=True, multiple=True,
              help="repeat to require the property for several ells")
@click.option("--ell2", type=int, default=None)
@click.option("--undirected", is_flag=True)
@click.option("--start", type=int, default=5, show_default=True)
@click.option("--cap", type=int, default=10**6, show_default=True)
def find_prime(prop_name, ells, ell2, undirected, start, cap):
    """First prime whose graph(s) satisfy the property (exact traces)."""
    all_ells = list(ells) + ([ell2] if ell2 is not None else [])
    props = _properties(prop_name, all_ells, undirected)
    _echo(str(find_first_prime(props, start=start, cap=cap)))


@cli.command("biroute")
@click.option("--p", "p", type=int, required=True)
@click.option("--ell1", type=int, required=True)
@click.option("--ell2", type=int, required=True)
@click.option("--r", "r", type=int, required=True)
@click.option("--method", default="all", show_default=True,
              type=click.Choice(["definitional", "telescoped", "hurwitz", "all"]))
@cache_option
def biroute_cmd(p, ell1, ell2, r, method, cache_dir):
    """R-th bi-route number by up to three independent routes."""
    check_graph_args(p, ell1)
    check_graph_args(p, ell2)
    check_biroute_args(ell1, ell2, r, method)  # before any graph is built
    g1 = _load_or_build(p, ell1, cache_dir)
    g2 = _load_or_build(p, ell2, cache_dir)
    rep = biroute(g1, g2, r, method=method)
    _echo(f"I_{p}({ell1},{ell2},{r}) = {rep.value}")
    for name, value in rep.routes():
        _echo(f"  {name:<12} {value}")
    _echo(f"  upper bound  {rep.upper_bound}")


@cli.command()
@click.option("--p", "p", type=int, required=True)
@click.option("--ell1", type=int, required=True)
@click.option("--ell2", type=int, required=True)
@cache_option
def intersect(p, ell1, ell2, cache_dir):
    """Intersection number and edit distance of two graphs."""
    check_graph_args(p, ell1)
    check_graph_args(p, ell2)  # before either graph is built
    g1 = _load_or_build(p, ell1, cache_dir)
    g2 = _load_or_build(p, ell2, cache_dir)
    _echo(f"intersection {intersection_number(g1, g2)}")
    _echo(f"edit-distance {edit_distance(g1, g2)}")


def _verify_one(p, ell, cache_dir):
    """Full invariant suite for one (p, ell). Raises on violation."""
    g = _load_or_build(p, ell, cache_dir)  # check_structure has run
    s = graph_stats(g)                     # asserts decomposition ids
    checks = []
    checks.append(("Tr B(ell^2) matches trace formula",
                   s.trace_l2 == trace_formula(p, ell * ell)))
    checks.append(("loop bound 2*ell", s.loop_count <= s.loop_bound()))
    lo, hi = s.redundant_bracket()
    checks.append(("redundant-edge bracket", lo <= s.redundant_edges <= hi))
    checks.append(("redundant-edge bound ell^2 + ell/4",
                   s.redundant_edges <= s.redundant_bound()))
    for name, ok in checks:
        if not ok:
            raise TheoremViolation(f"p={p}, ell={ell}: {name} FAILED")
    return g, s


@cli.command()
@click.option("--p", "p", type=int, required=True)
@click.option("--ell", type=int, required=True)
@cache_option
def verify(p, ell, cache_dir):
    """Run the full invariant suite for one graph."""
    _verify_one(p, ell, cache_dir)
    _echo(f"p={p} ell={ell}: all invariants hold")


@cli.command()
@click.option("--max", "pmax", type=int, required=True)
@click.option("--ell", "ells", type=int, multiple=True, default=(2, 3),
              show_default=True)
@click.option("--out", type=click.Path(), default=None, help="CSV ledger path")
@cache_option
def sweep(pmax, ells, out, cache_dir):
    """Verify every prime p = 1 mod 12 up to --max; emit a CSV ledger."""
    # opened first, and every (p, ell) checked next, so that an unwritable
    # --out or a p past GRAPH_VERTEX_LIMIT fails before any graph is built;
    # the check stops at the first bad pair, not after listing the range
    writer_target = open(out, "w", newline="") if out else sys.stdout
    try:
        pairs = []
        for p in range(13, pmax + 1, 12):
            if not is_prime(p):
                continue
            for ell in dict.fromkeys(ells):  # a repeated --ell is verified once
                check_graph_args(p, ell)
                pairs.append((p, ell))
        rows = []
        for p, ell in pairs:
            _, s = _verify_one(p, ell, cache_dir)
            rows.append([p, ell, s.n, s.loop_count, s.redundant_edges, "yes"])
        writer = csv.writer(writer_target)
        writer.writerow(["p", "ell", "n", "loops", "redundant", "trace_checks_passed"])
        writer.writerows(rows)
    finally:
        if out:
            writer_target.close()
    if out:
        _echo(f"{len(rows)} graph(s) verified; ledger written to {out}")


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except TheoremViolation as exc:
        _echo(f"theorem violation: {exc}", err=True)
        return 3
    except (DomainError, OSError) as exc:
        _echo(f"error: {exc}", err=True)
        return 2
    except click.UsageError as exc:
        _echo(f"error: {exc.format_message()}", err=True)
        return 2
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.Abort:
        return 2
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
