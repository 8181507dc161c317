"""Dense Brandt matrix of a graph, for the tests only.

``dense(g)`` counts the neighbour table into an n x n int64 matrix with
``np.add.at``, one unit per table entry.  It shares no code with the
gather by which ``ssig.brandt.brandt_powers`` computes B(ell) and its
powers, so tests can use it as their oracle for those and for every
dense formula.
"""

import numpy as np


def dense(g):
    """B(ell) of ``g``: entry (i, k) is how often k appears in row i."""
    A = np.zeros((g.n, g.n), dtype=np.int64)
    rows = np.repeat(np.arange(g.n), g.table.shape[1])
    np.add.at(A, (rows, g.table.ravel()), 1)
    return A
