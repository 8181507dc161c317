"""Time whole perfbench rounds of two ssig source trees against each other in one process.

    python3 tools/ab_rounds.py OLD_SRC NEW_SRC --workload class_traces [--rounds 10]

OLD_SRC and NEW_SRC are ssig checkouts (or their ``src`` directories).
The round is the item list of the workload's class in
perfbench/workloads.py at seed 1, and each item is made by perfbench/run.py's
``call``, both read as they are; nothing under perfbench/ is changed.  A
round gives each tree one turn, the tree that goes first alternating from
round to round.  A turn imports that tree's ssig afresh (run.py's
``fresh_ssig``), so that module caches start cold as in a perfbench round,
and times in process CPU one ``ssig.cli.main`` call per item, with its
output captured.  Each tree runs the workload's set-up once, off the
clock, into a cache directory of its own, which its turns share unless
the workload takes a fresh cache every round (``build_sweep``).  Separate
processes of the same code spread too widely to show a change of a few
per cent; turns in one process do not.

Prints every round, then each tree's median, minimum and round wins, then
the same per kind of item (the first field of its key: ``trace``,
``verify``, ...), then each tree's median per item, by key in the round's
order (``verify p ell`` for ``build_sweep``), and the number of items whose
output (exit code, stdout and stderr) differs between the trees in the
last round; exits 1 if any differs, else 0.
"""

import argparse
import gc
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from compare_exports import package_dir  # noqa: E402


def perfbench(name):
    """The module ``name`` of perfbench/, read as it is."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


def _take_ssig():
    """Remove the ssig modules from ``sys.modules`` and return them."""
    return {name: sys.modules.pop(name) for name in list(sys.modules)
            if name == "ssig" or name.startswith("ssig.")}


def fresh_cli(src):
    """``ssig.cli`` of the tree at ``src``, freshly imported."""
    sys.path.insert(0, src)
    try:
        return perfbench("run").fresh_ssig()
    finally:
        sys.path.remove(src)


def turn(src, workload, cache):
    """({item index: CPU seconds}, {item index: ``call`` result}) of one
    round of ``workload`` in the tree at ``src``."""
    token, call = perfbench("workloads").CACHE, perfbench("run").call
    cli = fresh_cli(src)
    gc.collect()
    times, outputs = {}, {}
    for index, (_, argv) in enumerate(workload.items):
        argv = [cache if a == token else a for a in argv]
        start = time.process_time()
        outputs[index] = call(cli, argv)
        times[index] = time.process_time() - start
    return times, outputs


def ab_rounds(old, new, workload, rounds):
    """[(first, {"old": times, "new": times})] for each round, and the
    number of items whose output differs between the trees in the last
    round, timed as the module docstring says; the caller's ssig modules
    are left as they were."""
    own = _take_ssig()
    work = Path(tempfile.mkdtemp(prefix="ab_rounds-"))
    call = perfbench("run").call
    try:
        srcs = {"old": str(package_dir(old)), "new": str(package_dir(new))}
        caches = {}
        for side, src in srcs.items():
            caches[side] = str(work / side)
            Path(caches[side]).mkdir()
            cli = fresh_cli(src)
            workload.setup(lambda argv, cli=cli: call(cli, argv), caches[side])
        out, seen = [], {}
        for rnd in range(rounds):
            order = ("old", "new") if rnd % 2 == 0 else ("new", "old")
            times = {}
            for side in order:
                cache = caches[side]
                if workload.fresh_cache_per_round:
                    cache = str(work / f"{side}-round{rnd}")
                times[side], seen[side] = turn(srcs[side], workload, cache)
                shutil.rmtree(work / f"{side}-round{rnd}", ignore_errors=True)
            out.append((order[0], times))
        differ = sum(seen["old"][i] != seen["new"][i] for i in seen["old"])
        return out, differ
    finally:
        shutil.rmtree(work, ignore_errors=True)
        _take_ssig()
        sys.modules.update(own)


def summary(label, totals):
    """Lines of each tree's median, minimum and wins over ``totals``, one
    {"old": s, "new": s} per round."""
    lines = []
    for side, other in (("old", "new"), ("new", "old")):
        times = [t[side] for t in totals]
        wins = sum(t[side] < t[other] for t in totals)
        lines.append(f"{label:10}  {side:4}  {statistics.median(times) * 1e3:9.2f}  "
                     f"{min(times) * 1e3:8.2f}  {wins:4}")
    return lines


def item_label(key):
    """An item's key as one field per part: ("find-prime", "simple", (2, 3),
    True) is ``find-prime simple 2,3 True``."""
    return " ".join(",".join(map(str, part)) if isinstance(part, tuple) else str(part)
                    for part in key)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--workload", required=True,
                        choices=sorted(perfbench("workloads").WORKLOADS))
    parser.add_argument("--rounds", type=int, default=10,
                        help="rounds of one turn per tree (default 10)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    workload = perfbench("workloads").WORKLOADS[args.workload](1)
    results, differ = ab_rounds(args.old_src, args.new_src, workload, args.rounds)
    kinds = sorted({key[0] for key, _ in workload.items})
    totals = {kind: [] for kind in ["round", *kinds]}
    for rnd, (first, times) in enumerate(results, 1):
        for kind in totals:
            totals[kind].append({side: sum(
                s for i, s in t.items() if kind == "round" or workload.items[i][0][0] == kind)
                for side, t in times.items()})
        cpu = totals["round"][-1]
        print(f"round {rnd}: old {cpu['old']:.3f} s, new {cpu['new']:.3f} s "
              f"({first} first)")
    print("kind        tree  median_ms    min_ms  wins")
    for kind, rows in totals.items():
        print("\n".join(summary(kind, rows)))
    labels = [item_label(key) for key, _ in workload.items]
    width = max(len("item"), *map(len, labels))
    print(f"{'item':{width}}  old_median_ms  new_median_ms")
    for index, label in enumerate(labels):
        old, new = (statistics.median(times[side][index] for _, times in results) * 1e3
                    for side in ("old", "new"))
        print(f"{label:{width}}  {old:13.2f}  {new:13.2f}")
    print(f"{len(workload.items)} items a round, {differ} with output that differs")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
