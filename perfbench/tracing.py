"""Spans around ssig's layers, installed from outside the package.

``Tracer.install`` wraps each function in ``LAYERS`` at every module of
the freshly imported ``ssig`` package that binds it (``trace_formula``,
for instance, is bound in ``brandt``, ``ssgraph``, ``congruence``,
``analytics``, ``cli`` and the package itself), so calls are seen whichever
name the caller used.  Each call records a span (name, start, end, parent
span, item id) on the process CPU clock; spans stay in memory until
``write``.  Self time is a span's duration minus the time its child spans
cover.  A name that no longer exists is skipped and reads zero calls.
"""

import json
import sys

# (module, attribute path, hit probe).  A probe taking the call's
# arguments runs before the call; one taking the result runs after it.
LAYERS = [
    ("kernels", "fp2_poly_roots", None),
    ("kernels", "supersingular_scan", None),
    ("arith", "roots_with_multiplicity", None),
    ("ssgraph", "neighbors", None),
    ("ssgraph", "build_graph", None),
    ("brandt", "trace_formula", None),
    ("brandt", "brandt_prime_power", None),
    ("brandt", "brandt_coprime_product", None),
    ("classnum", "hurwitz_modified", None),
    ("classnum", "hurwitz", "before"),
    ("classnum", "class_number", None),
    ("classnum", "decompose", None),
    ("congruence", "holds_by_trace", None),
    ("congruence", "derive_congruences", None),
    ("analytics", "graph_stats", None),
    ("analytics", "intersection_number", None),
    ("analytics", "edit_distance", None),
    ("analytics", "biroute", None),
    ("export", "GraphCache.load", "after"),
    ("export", "GraphCache.store", None),
    ("export", "graph_from_dict", None),
    ("export", "graph_to_dict", None),
    ("export", "to_dot", None),
    ("cli", "main", None),
]


def _hurwitz_hit(module):
    def probe(args):
        cache = getattr(module, "_hurwitz_cache", None)
        return args[0] == 0 or (cache is not None and args[0] in cache)
    return probe


def _cache_hit(result):
    return result is not None


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.item = -1
        self.spans = []
        self.calls = {}
        self.hits = {}
        self.self_s = {}
        self._stack = []  # [span index, child seconds] per open span

    def install(self):
        """Wrap every layer of the ssig package now in sys.modules."""
        pkg = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "ssig" or name.startswith("ssig."))]
        for modname, path, probe in LAYERS:
            module = sys.modules.get(f"ssig.{modname}")
            owner = module
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            name = f"{modname}.{path}"
            if probe == "before":
                wrapped = self._wrap(name, original, before=_hurwitz_hit(module))
            else:
                wrapped = self._wrap(name, original,
                                     after=_cache_hit if probe else None)
            if outer:
                setattr(owner, attr, wrapped)
                continue
            for mod in pkg:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, self.clock
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        if before or after:
            self.hits.setdefault(name, 0)

        def traced(*args, **kwargs):
            hit = before(args) if before else False
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after:
                    hit = after(result)
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[index] = (name, start, end, parent, self.item)
                self.calls[name] += 1
                self.self_s[name] += end - start - frame[1]
                if hit:
                    self.hits[name] += 1

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
