"""Axis-aligned rectangles (minimum bounding rectangles).

Every data chunk in ADR is associated with an MBR in a
multi-dimensional attribute space (paper Section 2.2); range queries
are themselves MBRs.  :class:`Rect` is the single geometric primitive
the whole library builds on.

Rectangles are *closed* boxes ``[lo, hi]`` in d dimensions.  Two
rectangles intersect when their closed extents overlap in every
dimension; a rectangle with ``lo == hi`` in some dimension is a valid
degenerate (zero-thickness) box.

For hot paths (index scans, emulator construction, planning) this
module also exposes vectorized predicates over *arrays* of rectangles
stored as two ``(n, d)`` float arrays -- following the guide advice to
vectorize loops instead of iterating over Python objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import gt
from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

__all__ = ["Rect", "rects_intersect_mask", "rects_contain_points", "union_rects"]


@dataclass(frozen=True)
class Rect:
    """A closed axis-aligned box ``[lo, hi]`` in d dimensions.

    Parameters
    ----------
    lo, hi:
        Coordinate tuples of equal length with ``lo[i] <= hi[i]``.

    The class is immutable and hashable so rectangles can key
    dictionaries (e.g. chunk MBR -> placement maps).
    """

    lo: Tuple[float, ...]
    hi: Tuple[float, ...]

    def __post_init__(self) -> None:
        lo = tuple(map(float, self.lo))
        hi = tuple(map(float, self.hi))
        if len(lo) != len(hi):
            raise ValueError(f"lo has {len(lo)} dims but hi has {len(hi)}")
        if not lo:
            raise ValueError("Rect must have at least one dimension")
        # One comparison pass; a NaN bound compares False, so it passes.
        inverted = list(map(gt, lo, hi))
        if any(inverted):
            i = inverted.index(True)
            raise ValueError(f"lo[{i}]={lo[i]} exceeds hi[{i}]={hi[i]}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_points(points: np.ndarray) -> "Rect":
        """Smallest Rect enclosing an ``(n, d)`` array of points."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("from_points expects a non-empty (n, d) array")
        return Rect(tuple(pts.min(axis=0)), tuple(pts.max(axis=0)))

    @staticmethod
    def cube(lo: float, hi: float, ndim: int) -> "Rect":
        """A hypercube ``[lo, hi]^ndim``."""
        return Rect((lo,) * ndim, (hi,) * ndim)

    # -- basic properties ---------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.lo)

    @property
    def extents(self) -> Tuple[float, ...]:
        """Side length in each dimension."""
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    @property
    def center(self) -> Tuple[float, ...]:
        return tuple((a + b) / 2.0 for a, b in zip(self.lo, self.hi))

    @property
    def volume(self) -> float:
        v = 1.0
        for a, b in zip(self.lo, self.hi):
            v *= b - a
        return v

    # -- predicates ----------------------------------------------------

    def intersects(self, other: "Rect") -> bool:
        """True when the closed boxes overlap in every dimension."""
        self._check_ndim(other)
        return all(
            a <= d and c <= b
            for a, b, c, d in zip(self.lo, self.hi, other.lo, other.hi)
        )

    def contains_point(self, point: Sequence[float]) -> bool:
        if len(point) != self.ndim:
            raise ValueError("point dimensionality mismatch")
        return all(a <= p <= b for a, b, p in zip(self.lo, self.hi, point))

    def contains_rect(self, other: "Rect") -> bool:
        self._check_ndim(other)
        return all(
            a <= c and d <= b
            for a, b, c, d in zip(self.lo, self.hi, other.lo, other.hi)
        )

    # -- combinators ----------------------------------------------------

    def intersection(self, other: "Rect") -> "Rect | None":
        """The overlap box, or ``None`` when disjoint."""
        self._check_ndim(other)
        lo = tuple(max(a, c) for a, c in zip(self.lo, other.lo))
        hi = tuple(min(b, d) for b, d in zip(self.hi, other.hi))
        if any(a > b for a, b in zip(lo, hi)):
            return None
        return Rect(lo, hi)

    def union(self, other: "Rect") -> "Rect":
        """Smallest box enclosing both rectangles."""
        self._check_ndim(other)
        lo = tuple(min(a, c) for a, c in zip(self.lo, other.lo))
        hi = tuple(max(b, d) for b, d in zip(self.hi, other.hi))
        return Rect(lo, hi)

    def expanded(self, margin: float) -> "Rect":
        """Grow the box by *margin* on every side (clamped to validity)."""
        lo = tuple(a - margin for a in self.lo)
        hi = tuple(b + margin for b in self.hi)
        if any(a > b for a, b in zip(lo, hi)):
            raise ValueError("negative margin collapsed the rectangle")
        return Rect(lo, hi)

    def enlargement(self, other: "Rect") -> float:
        """Volume increase if this box were grown to cover *other*.

        This is the R-tree ``ChooseLeaf`` metric.
        """
        return self.union(other).volume - self.volume

    # -- conversion ------------------------------------------------------

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.lo, dtype=float), np.asarray(self.hi, dtype=float)

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        """Iterate per-dimension ``(lo, hi)`` pairs."""
        return iter(zip(self.lo, self.hi))

    def __repr__(self) -> str:  # keep debug output compact
        dims = ", ".join(f"[{a:g},{b:g}]" for a, b in zip(self.lo, self.hi))
        return f"Rect({dims})"

    def _check_ndim(self, other: "Rect") -> None:
        if other.ndim != self.ndim:
            raise ValueError(
                f"dimensionality mismatch: {self.ndim} vs {other.ndim}"
            )


# ---------------------------------------------------------------------------
# Vectorized predicates over packed rectangle arrays
# ---------------------------------------------------------------------------


def pack_rects(rects: Iterable[Rect]) -> Tuple[np.ndarray, np.ndarray]:
    """Pack rectangles into ``(n, d)`` lo/hi arrays for vector math."""
    rect_list = list(rects)
    if not rect_list:
        raise ValueError("pack_rects needs at least one rectangle")
    ndim = rect_list[0].ndim
    los = np.empty((len(rect_list), ndim), dtype=float)
    his = np.empty((len(rect_list), ndim), dtype=float)
    for i, r in enumerate(rect_list):
        if r.ndim != ndim:
            raise ValueError("mixed dimensionality in pack_rects")
        los[i] = r.lo
        his[i] = r.hi
    return los, his


def rects_intersect_mask(
    los: np.ndarray, his: np.ndarray, query: Rect
) -> np.ndarray:
    """Boolean mask of rows in ``(los, his)`` intersecting *query*.

    ``los``/``his`` are ``(n, d)`` arrays as produced by
    :func:`pack_rects`.  This is the brute-force index scan and the
    inner kernel of the R-tree leaf check.
    """
    qlo, qhi = query.as_arrays()
    if los.shape != his.shape or los.ndim != 2:
        raise ValueError("los/his must be matching (n, d) arrays")
    if los.shape[1] != query.ndim:
        raise ValueError("query dimensionality mismatch")
    return np.all((los <= qhi) & (qlo <= his), axis=1)


def rects_contain_points(
    los: np.ndarray, his: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """``(n_rects, n_points)`` containment matrix (closed boxes)."""
    pts = np.asarray(points, dtype=float)
    return np.all(
        (los[:, None, :] <= pts[None, :, :]) & (pts[None, :, :] <= his[:, None, :]),
        axis=2,
    )


def union_rects(rects: Iterable[Rect]) -> Rect:
    """Smallest Rect enclosing all input rectangles."""
    it = iter(rects)
    try:
        acc = next(it)
    except StopIteration:
        raise ValueError("union_rects needs at least one rectangle") from None
    for r in it:
        acc = acc.union(r)
    return acc
