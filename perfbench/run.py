"""ssig benchmark: one workload, one process, one client, no threads.

    python3 perfbench/run.py --workload build_sweep --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; ssig is imported from ``src``.
Every timing is CPU time of this process (user + system, all threads and
reaped children), because ssig is single-threaded and wall time on a
shared machine carries steal time; wall-clock totals are printed beside
the CPU figures for reference.

1. numpy and click (third-party, not ssig's code) are imported off the
   clock.  An untimed warm-up import of ssig follows.
2. The timed phase repeats whole rounds of the same items until their
   CPU time reaches ``--seconds``.  Each round starts against a freshly
   imported ssig, so module-level caches start cold as in a new process.
3. Set-up runs before each of the first three rounds, repeated there
   until it has taken 0.3 CPU seconds; ``setup_s`` is the median of all
   set-ups.  Each re-imports ssig from scratch, generates the seeded
   inputs and runs the workload's own set-up (filling the graph cache for
   cached_queries).
4. The outputs are checked after the timed phase, off the clock.

The last line of standard output is the JSON result: end-to-end metrics
with ``--trace 0``, per-layer metrics from spans with ``--trace 1``.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ROUNDS = 3       # set-up runs before each of the first rounds,
SETUP_MIN_CPU = 0.3    # repeated until it has taken this many CPU seconds
TAIL_PERCENTILES = (50, 90, 99)
TAIL_MIN_BEYOND = 10


def cpu_seconds():
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def fresh_ssig():
    """Drop every ssig module and import the package and its CLI again."""
    for name in [n for n in sys.modules if n == "ssig" or n.startswith("ssig.")]:
        del sys.modules[name]
    importlib.import_module("ssig")
    return importlib.import_module("ssig.cli")


def call(cli, argv):
    """One CLI invocation: (exit code, stdout, stderr).  A Python exception
    escaping ``main`` is reported as exit code None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # exits 0/2/3 only: a traceback is a fault
            rc = None
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return rc, out.getvalue(), err.getvalue()


def tail(samples):
    """(percentile, value): the highest of TAIL_PERCENTILES with at least
    TAIL_MIN_BEYOND samples beyond it."""
    pct = max(q for q in TAIL_PERCENTILES
              if len(samples) * (100 - q) / 100 >= TAIL_MIN_BEYOND
              or q == TAIL_PERCENTILES[0])
    if pct == 50:
        return pct, statistics.median(samples)
    return pct, statistics.quantiles(samples, n=100)[pct - 1]


class Setup(NamedTuple):
    cpu: float          # seconds, the whole set-up
    wall: float
    import_cpu: float   # seconds of ``import ssig``
    workload: object


def setup_once(workload_cls, seed, cache):
    """One set-up from scratch into a new cache directory."""
    gc.collect()
    c0, w0 = cpu_seconds(), time.perf_counter()
    cli = fresh_ssig()
    c1 = cpu_seconds()
    workload = workload_cls(seed)
    os.makedirs(cache)
    workload.setup(lambda argv: call(cli, argv), cache)
    return Setup(cpu_seconds() - c0, time.perf_counter() - w0, c1 - c0, workload)


def run(args, work, out_dir):
    from checks import load_modpoly_table
    from tracing import Tracer
    from workloads import CACHE, WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    fresh_ssig()  # warm-up: bytecode and standard-library imports
    tracer = Tracer(cpu_seconds) if args.trace else None
    setups, samples, round_cpu, outputs, mismatched = [], [], [], {}, []
    failed = rounds = wall = 0
    while True:
        # set-up is spread over the first rounds, so that its median is
        # not taken within one short stretch of time
        spent = 0.0
        while rounds < SETUP_ROUNDS and spent < SETUP_MIN_CPU:
            filled = str(work / f"setup{len(setups)}")
            setups.append(setup_once(workload_cls, args.seed, filled))
            workload = setups[-1].workload
            spent += setups[-1].cpu
        cli = fresh_ssig()
        if tracer:
            tracer.install()
        cache = filled
        if workload.fresh_cache_per_round:
            cache = str(work / f"round{rounds}")
            shutil.rmtree(work / f"round{rounds - 1}", ignore_errors=True)
        gc.collect()
        wall0 = time.perf_counter()
        for index, (key, argv) in enumerate(workload.items):
            argv = [cache if a == CACHE else a for a in argv]
            if tracer:
                tracer.item = rounds * len(workload.items) + index
            t0 = cpu_seconds()
            rc, text, err = call(cli, argv)
            samples.append(cpu_seconds() - t0)
            if rc != 0:
                failed += 1
                print(f"# failed: ssig {' '.join(argv)} -> {rc}: {err.strip()}")
            elif outputs.setdefault(key, text) != text:
                mismatched.append(key)
        rounds += 1
        round_cpu.append(sum(samples[-len(workload.items):]))
        wall += time.perf_counter() - wall0
        # the wall-clock cap only guards against a host stalled for long
        if rounds >= SETUP_ROUNDS and (sum(samples) >= args.seconds
                                        or wall >= 3 * args.seconds):
            break

    correct = not mismatched
    check_cli = fresh_ssig()
    table = load_modpoly_table(ROOT / "src" / "ssig" / "_modpoly_data.py")
    try:
        workload.check(outputs, lambda argv: call(check_cli, argv), cache, table)
    except (AssertionError, LookupError, TypeError, ValueError) as exc:
        correct = False
        print(f"# check failed: {type(exc).__name__}: {exc}")
    if mismatched:
        print(f"# outputs differ between rounds for {mismatched[:5]}")

    cpu_total = sum(samples)
    n = len(samples)
    pct, tail_value = tail(samples)
    setup_cpu = statistics.median(s.cpu for s in setups)
    import_cpu = statistics.median(s.import_cpu for s in setups)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {rounds} rounds "
          f"x {len(workload.items)} items = {n} items, {failed} failed")
    print(f"# cpu: timed {cpu_total:.3f} s, {n / cpu_total:.4f} items/s; "
          f"setup {setup_cpu:.4f} s (import {import_cpu:.4f} s); "
          f"item_tail_ms is p{pct} over {n} samples")
    print(f"# wall: timed {wall:.3f} s, {n / wall:.4f} items/s; "
          f"setup {statistics.median(s.wall for s in setups):.4f} s")

    if tracer:
        tracer.write(out_dir / f"trace-{args.workload}.jsonl")
        metrics = layer_metrics(tracer, rounds, import_cpu)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "items_per_s": (len(workload.items) / statistics.median(round_cpu), "1/s"),
            "item_p50_ms": (statistics.median(samples) * 1000, "ms"),
            "item_tail_ms": (tail_value * 1000, "ms"),
            "setup_s": (setup_cpu, "s"),
            "peak_rss_mb": (peak, "MB"),
        }
    return {
        "correct": correct,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# per-layer metrics reported by the traced run, all per round
LAYER_CALLS = [
    "kernels.fp2_poly_roots", "kernels.supersingular_scan", "ssgraph.neighbors",
    "ssgraph.build_graph", "brandt.trace_formula", "classnum.hurwitz_modified",
    "classnum.hurwitz", "classnum.class_number", "congruence.holds_by_trace",
    "analytics.graph_stats", "export.GraphCache.load", "export.GraphCache.store",
    "brandt.brandt_prime_power", "cli.main",
]
LAYER_SELF = [
    "kernels.fp2_poly_roots", "kernels.supersingular_scan",
    "arith.roots_with_multiplicity", "ssgraph.neighbors", "ssgraph.build_graph",
    "brandt.trace_formula", "classnum.hurwitz_modified", "classnum.class_number",
    "classnum.decompose", "congruence.holds_by_trace",
    "congruence.derive_congruences", "analytics.graph_stats",
    "analytics.intersection_number", "analytics.edit_distance",
    "export.GraphCache.load", "export.GraphCache.store", "export.graph_from_dict",
    "export.graph_to_dict", "export.to_dot", "cli.main", "analytics.biroute",
    "brandt.brandt_prime_power", "brandt.brandt_coprime_product",
]
LAYER_HITS = ["classnum.hurwitz", "export.GraphCache.load"]


def layer_metrics(tracer, rounds, import_cpu):
    metrics = {}
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = (tracer.calls.get(name, 0) / rounds, "count")
    for name in LAYER_SELF:
        metrics[f"{name}.self_s"] = (tracer.self_s.get(name, 0.0) / rounds, "s")
    for name in LAYER_HITS:
        calls = tracer.calls.get(name, 0)
        metrics[f"{name}.hit_ratio"] = (
            tracer.hits.get(name, 0) / calls if calls else 0.0, "ratio")
    metrics["import_s"] = (import_cpu, "s")
    return metrics


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ssig" / "__init__.py").is_file():
        print(f"error: no ssig source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import click  # noqa: F401  third-party imports stay off the clock
    import numpy  # noqa: F401

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    line = json.dumps(result)
    (out_dir / f"result-{args.workload}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
