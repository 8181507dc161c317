"""The ROADMAP baseline timings, on the same CPU clock as run.py.

    python3 perfbench/baseline.py

Times ``build_graph(2689, ell)`` for ell = 2, 3, 5, 7 and
``trace_formula(109, m)`` for m = 7776 and 42875, each in a freshly
imported ssig (cold class-number cache), and prints one JSON object of
CPU seconds.  Not part of the benchmark runs; used for the reference
figures in README.md.
"""

import json
import sys

from run import ROOT, cpu_seconds, fresh_ssig


def timed(fn, *args):
    fresh_ssig()
    ssig = sys.modules["ssig"]
    t0 = cpu_seconds()
    getattr(ssig, fn)(*args)
    return round(cpu_seconds() - t0, 3)


def main():
    sys.path.insert(0, str(ROOT / "src"))
    figures = {f"build_graph(2689, {ell})": timed("build_graph", 2689, ell)
               for ell in (2, 3, 5, 7)}
    figures.update({f"trace_formula(109, {m})": timed("trace_formula", 109, m)
                    for m in (7776, 42875)})
    print(json.dumps(figures))


if __name__ == "__main__":
    main()
