"""Small integer-array idioms shared by the chunk graph and the planner.

Planning problems are usually tiny (tens of edges), so what these cost
is the number of NumPy calls, not the work per element: each helper is
the shortest call sequence that is still linear-ish on the 10^5-edge
emulator problems.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["frozen", "csr_indptr", "unique_rows", "tally"]


def frozen(a: np.ndarray) -> np.ndarray:
    """*a*, marked read-only: it is about to be shared between planners."""
    a.setflags(write=False)
    return a


def csr_indptr(row_ids: np.ndarray, n_rows: int) -> np.ndarray:
    """CSR row pointer of *n_rows* rows from the row id of every entry."""
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_ids, minlength=n_rows), out=indptr[1:])
    return indptr


def unique_rows(*cols: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Deduplicate parallel integer columns (lexicographic order)."""
    if len(cols[0]) == 0:
        return tuple(c.copy() for c in cols)
    order = np.lexsort(cols[::-1])
    cols = tuple(c[order] for c in cols)
    first = np.ones(len(order), dtype=bool)
    first[1:] = cols[0][1:] != cols[0][:-1]
    for c in cols[1:]:
        first[1:] |= c[1:] != c[:-1]
    return tuple(c[first] for c in cols)


def tally(ids: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """``(n,)`` int64 sums of integer *weights* grouped by *ids*
    (``np.add.at`` on zeros; exact while a sum stays below 2**53)."""
    return np.bincount(ids, weights=weights, minlength=n).astype(np.int64)
