"""Graph exports (JSON, DOT), which label a vertex by its j-invariant
c0+c1*t, ``ssgraph.j_labels``; ``graph_from_dict``, the reader of the JSON
export only; and ``GraphCache``, which stores the graph's own arrays.  A
graph read back is an ``IsogenyGraph``, so it is checked as it is made."""

import os
import tempfile

import numpy as np

from .arith import DomainError, nonresidue
from .brandt import TheoremViolation, vertex_count
from .ssgraph import IsogenyGraph, check_graph_args, j_labels, parse_j_labels

EXPORT_VERSION = 1


def graph_to_dict(g, stats=None):
    doc = {"version": EXPORT_VERSION, "p": g.p, "ell": g.ell, "c": nonresidue(g.p),
           "vertices": [{"index": i, "j": j}
                        for i, j in enumerate(j_labels(g.vertices, g.p))],
           "edges": [{"i": i, "j": k, "m": m}
                     for i, k, m in zip(*(a.tolist() for a in g.edges()))]}
    if stats is not None:
        doc["stats"] = stats.as_dict()
    return doc


def graph_from_dict(doc):
    """The graph of an export document; (p, ell) is refused as
    ``build_graph`` refuses it, and every edge record is checked, before
    any array is sized by them.  A document, vertex record or edge record
    that is not a dict holding its keys is a ``DomainError``."""
    if not isinstance(doc, dict):
        raise DomainError(f"an export document must be a dict, not a {type(doc).__name__}")
    if doc.get("version") != EXPORT_VERSION:
        raise DomainError(f"unsupported export version {doc.get('version')}")
    try:
        p, ell, c, records, edges = (doc[f] for f in ("p", "ell", "c", "vertices", "edges"))
        index, labels = ([v[f] for v in records] for f in ("index", "j"))
        i, k, m = ([e[f] for e in edges] for f in "ijm")
    except (KeyError, TypeError) as err:  # a missing key; a record that is no dict
        raise DomainError(f"the export document or a record in it is not a dict "
                          f"holding its keys: {err!r}") from err
    check_graph_args(p, ell)
    if nonresidue(p) != c:
        raise DomainError("field nonresidue in file disagrees with construction")
    if index != list(range(len(records))):
        raise DomainError("vertex records are not indexed 0..n-1 in order")
    vertices = parse_j_labels(labels, p)
    n = len(vertices)
    i, k, m = (np.array(a) for a in (i, k, m))
    if any(a.dtype != np.int64 or a.ndim != 1 for a in (i, k, m)):
        raise DomainError("edge records must hold int64 integers")
    bad = ((i < 0) | (k < i) | (k >= n) | (m < 1) | (m > ell + 1)).nonzero()[0]
    if len(bad):
        raise DomainError(f"edge {edges[bad[0]]} is not 0 <= i <= j < n "
                          f"with 0 < m <= ell + 1 = {ell + 1}")
    off = i != k  # a loop fills one row, an edge two
    mult = np.concatenate((m, m[off]))
    rows = np.repeat(np.concatenate((i, k[off])), mult)
    cols = np.repeat(np.concatenate((k, i[off])), mult)
    if (np.bincount(rows, minlength=n) != ell + 1).any():
        raise DomainError(f"edge records do not give every vertex {ell + 1} neighbours")
    table = cols[np.lexsort((cols, rows))].reshape(n, ell + 1)
    return IsogenyGraph(p=p, ell=ell, vertices=vertices, table=table)


def to_dot(g, overlay=None):
    """DOT text with parallel edges repeated and loops as self-edges.

    With a second graph on the same vertices, its edges are overlaid in
    green while the first graph's are blue.
    """
    lines = [f'graph "lambda_{g.p}" {{']
    for i, j in enumerate(j_labels(g.vertices, g.p)):
        lines.append(f'  v{i} [label="{j}"];')

    def emit(graph, color=None):
        attr = f' [color={color}]' if color else ""
        rows, cols, mults = graph.edges()
        lines.extend(f"  v{i} -- v{k}{attr};" for i, k in zip(
            np.repeat(rows, mults).tolist(), np.repeat(cols, mults).tolist()))

    if overlay is None:
        emit(g)
    else:
        if not np.array_equal(overlay.vertices, g.vertices):
            raise DomainError("overlay graph uses a different vertex order")
        emit(g, "blue")
        emit(overlay, "green")
    lines.append("}")
    return "\n".join(lines) + "\n"


class GraphCache:
    """One file per (p, ell), graph_p{p}_ell{ell}.i64, holding the graph's
    own arrays, not its export: the little-endian int64 record p, ell, n,
    then the n vertex keys, then the n*(ell+1) table entries row by row."""

    def __init__(self, directory=None):
        if directory is None:
            directory = os.environ.get("SSIG_CACHE", "./.ssig-cache")
        self.directory = directory

    def _path(self, p, ell):
        return os.path.join(self.directory, f"graph_p{p}_ell{ell}.i64")

    def load(self, p, ell):
        """The cached graph for (p, ell), or None, for the caller to rebuild,
        unless the entry has the size and header of Lambda_p(ell)'s record,
        of which no more is read, and makes an ``IsogenyGraph``."""
        try:
            check_graph_args(p, ell)  # so that the size is Lambda_p(ell)'s
            n = vertex_count(p)
            size = 8 * (3 + n * (ell + 2))
            with open(self._path(p, ell), "rb") as fh:
                data = fh.read(size + 1)
            record = np.frombuffer(data, "<i8").astype(np.int64)  # in native byte order
            if len(data) != size or record[:3].tolist() != [p, ell, n]:
                return None
            return IsogenyGraph(p=p, ell=ell, vertices=record[3:3 + n],
                                table=record[3 + n:].reshape(n, ell + 1))
        except (OSError, ValueError, TheoremViolation):  # DomainError is a ValueError
            return None

    def store(self, g):
        os.makedirs(self.directory, exist_ok=True)
        record = np.concatenate(([g.p, g.ell, g.n], g.vertices, g.table.ravel()))
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(record.astype("<i8").tobytes())
            os.replace(tmp, self._path(g.p, g.ell))
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return self._path(g.p, g.ell)
