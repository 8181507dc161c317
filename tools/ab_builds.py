"""Time graph builds of two ssig source trees against each other in one process.

    python3 tools/ab_builds.py OLD_SRC NEW_SRC [--rounds 10]

OLD_SRC and NEW_SRC are ssig checkouts (or their ``src`` directories).
Both trees' ``ssig`` packages are loaded into this process, each keeping
its own ``sys.modules`` entries, the lazily imported ``batched_roots``
included, and a tree's entries are swapped in before its turn.  A round
gives each tree one turn, the tree that goes first alternating from round
to round.  A turn clears the Hurwitz and primality caches, then times in
process CPU ``build_graph`` over the graphs of perfbench's ``build_sweep``
workload (``BuildSweep.GRAPHS``).  Separate processes of the same code
spread too widely to show a change of a few per cent; turns in one
process do not.  Prints every round, then each tree's median, minimum
and round wins, then each tree's median per graph, so a change that
moves some graphs and not others shows which.
"""

import argparse
import gc
import importlib
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from compare_exports import package_dir  # noqa: E402


def sweep_graphs():
    """``BuildSweep.GRAPHS`` of perfbench/workloads.py, read as it is."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return list(importlib.import_module("workloads").BuildSweep.GRAPHS)
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


def _take_ssig():
    """Remove the ssig modules from ``sys.modules`` and return them."""
    return {name: sys.modules.pop(name) for name in list(sys.modules)
            if name == "ssig" or name.startswith("ssig.")}


def load_tree(tree):
    """The ssig modules of ``tree`` by name, after one small build has
    imported those loaded on first use."""
    src = str(package_dir(tree))
    sys.path.insert(0, src)
    try:
        importlib.import_module("ssig.ssgraph").build_graph(13, 2)
    finally:
        sys.path.remove(src)
    return _take_ssig()


def turn(modules, graphs):
    """Process CPU seconds of ``build_graph`` for each of ``graphs`` in the
    tree whose modules are ``modules``, from cleared caches."""
    _take_ssig()
    sys.modules.update(modules)
    modules["ssig.classnum"]._hurwitz_cache.clear()
    modules["ssig.arith"].cached_is_prime.cache_clear()
    build_graph = modules["ssig.ssgraph"].build_graph
    gc.collect()
    times = []
    for p, ell in graphs:
        start = time.process_time()
        build_graph(p, ell)
        times.append(time.process_time() - start)
    return times


def ab_rounds(old, new, graphs, rounds):
    """[(first, {"old": [s, ...], "new": [s, ...]})] for each round, one
    time per graph of ``graphs``, timed as the module docstring says; the
    caller's ssig modules are left as they were."""
    own = _take_ssig()
    try:
        trees = {"old": load_tree(old), "new": load_tree(new)}
        out = []
        for rnd in range(rounds):
            order = ("old", "new") if rnd % 2 == 0 else ("new", "old")
            out.append((order[0], {side: turn(trees[side], graphs) for side in order}))
        return out
    finally:
        _take_ssig()
        sys.modules.update(own)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--rounds", type=int, default=10,
                        help="rounds of one turn per tree (default 10)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    graphs = sweep_graphs()
    results = ab_rounds(args.old_src, args.new_src, graphs, args.rounds)
    totals = [{side: sum(times) for side, times in cpu.items()} for _, cpu in results]
    for rnd, ((first, _), cpu) in enumerate(zip(results, totals), 1):
        print(f"round {rnd}: old {cpu['old']:.3f} s, new {cpu['new']:.3f} s "
              f"({first} first)")
    print("tree  median_s  min_s  wins")
    for side, other in (("old", "new"), ("new", "old")):
        times = [cpu[side] for cpu in totals]
        wins = sum(cpu[side] < cpu[other] for cpu in totals)
        print(f"{side:4}  {statistics.median(times):8.3f}  {min(times):5.3f}  {wins}")
    print("    p  ell  old_median_ms  new_median_ms")
    for g, (p, ell) in enumerate(graphs):
        old, new = (statistics.median(cpu[side][g] for _, cpu in results) * 1e3
                    for side in ("old", "new"))
        print(f"{p:5}  {ell:3}  {old:13.1f}  {new:13.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
