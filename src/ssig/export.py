"""Graph export formats (JSON, DOT) and the file-backed graph cache."""

import json
import os
import tempfile

import numpy as np

from .arith import DomainError, Fp2, Fp2Element
from .brandt import TheoremViolation
from .ssgraph import IsogenyGraph, check_structure

EXPORT_VERSION = 1


def _format_j(jv):
    return f"{jv.c0}+{jv.c1}*t"


def _parse_j(text):
    a, b = text.split("+")
    return Fp2Element(int(a), int(b.rstrip("*t")))


def graph_to_dict(g, stats=None):
    rows, cols, mults = g.edges()
    edges = [
        {"i": i, "j": k, "m": m}
        for i, k, m in zip(rows.tolist(), cols.tolist(), mults.tolist())
    ]
    doc = {
        "version": EXPORT_VERSION,
        "p": g.p,
        "ell": g.ell,
        "c": g.field.c,
        "vertices": [
            {"index": i, "j": _format_j(jv)} for i, jv in enumerate(g.vertices)
        ],
        "edges": edges,
    }
    if stats is not None:
        doc["stats"] = {
            "n": stats.n,
            "loops": stats.loop_count,
            "multi_edge_pairs": stats.multi_edge_pair_count,
            "redundant_edges": stats.redundant_edges,
            "is_simple": stats.is_simple,
            "trace_l": stats.trace_l,
            "trace_l2": stats.trace_l2,
        }
    return doc


def graph_from_dict(doc):
    if doc.get("version") != EXPORT_VERSION:
        raise DomainError(f"unsupported export version {doc.get('version')}")
    p = doc["p"]
    F = Fp2(p)
    if F.c != doc["c"]:
        raise DomainError("field nonresidue in file disagrees with construction")
    records = doc["vertices"]
    if [v["index"] for v in records] != list(range(len(records))):
        raise DomainError("vertex records are not indexed 0..n-1 in order")
    vertices = [_parse_j(v["j"]) for v in records]
    n = len(vertices)
    adjacency = np.zeros((n, n), dtype=np.int64)
    for e in doc["edges"]:
        i, k, m = e["i"], e["j"], e["m"]
        if not (0 <= i <= k < n and m > 0):
            raise DomainError(f"edge {e} is not 0 <= i <= j < n with m > 0")
        adjacency[i, k] = m
        adjacency[k, i] = m
    return IsogenyGraph(p=p, ell=doc["ell"], field=F, vertices=vertices,
                        adjacency=adjacency)


def to_dot(g, overlay=None):
    """DOT text with parallel edges repeated and loops as self-edges.

    With a second graph on the same vertices, its edges are overlaid in
    green while the first graph's are blue.
    """
    lines = [f'graph "lambda_{g.p}" {{']
    for i, jv in enumerate(g.vertices):
        lines.append(f'  v{i} [label="{_format_j(jv)}"];')

    def emit(graph, color=None):
        attr = f' [color={color}]' if color else ""
        rows, cols, mults = graph.edges()
        lines.extend(f"  v{i} -- v{k}{attr};" for i, k in zip(
            np.repeat(rows, mults).tolist(), np.repeat(cols, mults).tolist()))

    if overlay is None:
        emit(g)
    else:
        if overlay.vertices != g.vertices:
            raise DomainError("overlay graph uses a different vertex order")
        emit(g, "blue")
        emit(overlay, "green")
    lines.append("}")
    return "\n".join(lines) + "\n"


class GraphCache:
    """One JSON file per (p, ell); stale format versions are ignored."""

    def __init__(self, directory=None):
        if directory is None:
            directory = os.environ.get("SSIG_CACHE", "./.ssig-cache")
        self.directory = directory

    def _path(self, p, ell):
        return os.path.join(
            self.directory, f"graph_p{p}_ell{ell}_v{EXPORT_VERSION}.json"
        )

    def load(self, p, ell):
        """The cached graph for (p, ell), or None if the entry is missing,
        damaged, stale, holds another key, or fails ``check_structure``;
        the caller rebuilds it."""
        path = self._path(p, ell)
        if not os.path.exists(path):
            return None
        try:
            with open(path) as fh:
                doc = json.load(fh)
            if doc["p"] != p or doc["ell"] != ell:
                return None
            g = graph_from_dict(doc)
            check_structure(g)
            return g
        except (KeyError, ValueError, TypeError, AttributeError, IndexError,
                OverflowError, RecursionError, TheoremViolation):
            return None

    def store(self, g):
        os.makedirs(self.directory, exist_ok=True)
        doc = graph_to_dict(g)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, self._path(g.p, g.ell))
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return self._path(g.p, g.ell)
