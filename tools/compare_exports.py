"""Compare the graph exports of two ssig source trees byte for byte.

    python3 tools/compare_exports.py OLD_SRC NEW_SRC [--max 3000] [--queries]

OLD_SRC and NEW_SRC are ssig checkouts (or their ``src`` directories).
Each tree runs in its own subprocess, the two side by side, and writes
``ssig graph --format json`` for every prime p = 1 mod 12 below ``--max``
and every ell in {2, 3, 5, 7}, building each graph into a fresh cache.
With ``--queries`` each tree also answers, for every such p and from that
cache, ``stats --json`` for each ell, ``intersect --ell1 2 --ell2 3`` and
``biroute --ell1 2 --ell2 3 --r R`` for R = 1, 2, 3, and ``intersect`` and
``biroute`` at R = 1, 2, 3 for the other five ell-pairs, and it writes the
DOT overlay ``graph --ell 2 --ell2 3 --format dot``; the exit code, stdout
and stderr of each are compared together.
Prints one line per output that differs or fails, then a summary; exits
1 if any output differs or fails, else 0.
"""

import argparse
import contextlib
import io
import itertools
import subprocess
import sys
import tempfile
from pathlib import Path

ELLS = (2, 3, 5, 7)
OTHER_PAIRS = [pair for pair in itertools.combinations(ELLS, 2) if pair != (2, 3)]


def primes(p_max):
    def is_prime(n):
        return n > 1 and all(n % k for k in range(2, int(n**0.5) + 1))

    return [p for p in range(13, p_max, 12) if is_prime(p)]


def cases(p_max):
    return [(p, ell) for p in primes(p_max) for ell in ELLS]


def queries(p_max):
    """(file name, ssig argv) for every query compared under --queries."""
    out = []
    for p in primes(p_max):
        for ell in ELLS:
            out.append((f"p{p}_stats_ell{ell}.txt",
                        ["stats", "--p", p, "--ell", ell, "--json"]))
        out.append((f"p{p}_intersect.txt",
                    ["intersect", "--p", p, "--ell1", 2, "--ell2", 3]))
        for r in (1, 2, 3):
            out.append((f"p{p}_biroute_r{r}.txt",
                        ["biroute", "--p", p, "--ell1", 2, "--ell2", 3, "--r", r]))
    return [(name, [str(a) for a in argv]) for name, argv in out]


def other_intersects(p_max):
    """(file name, ssig argv) for ``intersect`` at every ell-pair but (2, 3)."""
    return [(f"p{p}_intersect_{l1}{l2}.txt",
             ["intersect", "--p", str(p), "--ell1", str(l1), "--ell2", str(l2)])
            for p in primes(p_max) for l1, l2 in OTHER_PAIRS]


def other_biroutes(p_max):
    """(file name, ssig argv) for ``biroute`` at R = 1, 2, 3 and every
    ell-pair but (2, 3)."""
    return [(f"p{p}_biroute_{l1}{l2}_r{r}.txt",
             ["biroute", "--p", str(p), "--ell1", str(l1), "--ell2", str(l2),
              "--r", str(r)])
            for p in primes(p_max) for l1, l2 in OTHER_PAIRS for r in (1, 2, 3)]


def dot_exports(p_max):
    """(file name, ssig argv) for every DOT overlay compared under --queries."""
    return [(f"p{p}_dot.txt", ["graph", "--p", str(p), "--ell", "2", "--ell2", "3",
                               "--format", "dot"])
            for p in primes(p_max)]


def package_dir(tree):
    tree = Path(tree).resolve()
    for candidate in (tree / "src", tree):
        if (candidate / "ssig" / "__init__.py").is_file():
            return candidate
    raise SystemExit(f"error: no ssig package under {tree}")


def worker(src, out, p_max, with_queries):
    """Export every case into ``out``; a failed export leaves an exit code."""
    sys.path.insert(0, src)
    from ssig.cli import main as ssig

    with tempfile.TemporaryDirectory() as cache:
        for p, ell in cases(p_max):
            target = Path(out) / f"p{p}_ell{ell}.json"
            rc = ssig(["graph", "--p", str(p), "--ell", str(ell),
                       "--cache-dir", cache, "--out", str(target)])
            if rc != 0:
                target.write_text(f"exit {rc}\n")
        if not with_queries:
            return
        for name, argv in (queries(p_max) + other_intersects(p_max)
                           + other_biroutes(p_max) + dot_exports(p_max)):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = ssig(argv + ["--cache-dir", cache])
            (Path(out) / name).write_text(
                f"exit {rc}\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        _, src, out, p_max, with_queries = argv
        worker(src, out, int(p_max), with_queries == "1")
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--max", type=int, default=3000, dest="p_max",
                        help="compare primes below this bound (default 3000)")
    parser.add_argument("--queries", action="store_true",
                        help="also compare stats, intersect, biroute and DOT outputs")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        procs = []
        for name, tree in (("old", args.old_src), ("new", args.new_src)):
            out = Path(tmp) / name
            out.mkdir()
            outs.append(out)
            procs.append(subprocess.Popen(
                [sys.executable, __file__, "--worker", str(package_dir(tree)),
                 str(out), str(args.p_max), "1" if args.queries else "0"]))
        codes = [proc.wait() for proc in procs]
        if any(codes):
            print(f"error: worker exit codes {codes}", file=sys.stderr)
            return 1
        todo = cases(args.p_max)
        bad = 0
        for p, ell in todo:
            old, new = (out / f"p{p}_ell{ell}.json" for out in outs)
            old_bytes, new_bytes = old.read_bytes(), new.read_bytes()
            if old_bytes.startswith(b"exit") or new_bytes.startswith(b"exit"):
                print(f"p={p} ell={ell}: failed (old {old_bytes[:8]!r}, "
                      f"new {new_bytes[:8]!r})")
                bad += 1
            elif old_bytes != new_bytes:
                print(f"p={p} ell={ell}: exports differ")
                bad += 1
        print(f"{len(todo)} exports compared (p = 1 mod 12 below {args.p_max}, "
              f"ell in {ELLS}): {bad} differ or fail")
        if args.queries:
            for what, asked in (("query outputs", queries(args.p_max)),
                                ("intersect outputs for the other ell-pairs",
                                 other_intersects(args.p_max)),
                                ("biroute outputs for the other ell-pairs",
                                 other_biroutes(args.p_max)),
                                ("DOT exports", dot_exports(args.p_max))):
                differ = 0
                for name, argv in asked:
                    old, new = ((out / name).read_text() for out in outs)
                    if old != new:
                        print(f"{' '.join(argv)}: outputs differ\n"
                              f"  old: {old!r}\n  new: {new!r}")
                        differ += 1
                print(f"{len(asked)} {what} compared: {differ} differ")
                bad += differ
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
