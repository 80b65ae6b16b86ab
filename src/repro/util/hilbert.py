"""d-dimensional Hilbert space-filling curve.

ADR uses Hilbert curves in two places (paper Sections 2.2 and 3):

1. *Declustering*: chunks are assigned to disks in Hilbert order so
   that spatially adjacent chunks land on different disks and a range
   query draws from many disks at once (refs [12, 21]).
2. *Tiling*: output chunks are sorted by the Hilbert index of their
   MBR mid-point and assigned to tiles in that order, which keeps each
   tile spatially compact and minimizes input chunks straddling tile
   boundaries (Section 3).

The implementation is John Skilling's compact transpose algorithm
("Programming the Hilbert curve", AIP 2004), which generalizes the
classic 2-D curve used by the paper's references to any dimension and
order.  Two code paths are provided:

- scalar functions on Python ints (arbitrary precision, any
  ``bits * ndim``), and
- a vectorized NumPy path used for bulk chunk populations, following
  the HPC guide's "vectorize the loop over items, keep the loop over
  bits" idiom.  The vectorized path requires ``bits * ndim <= 62`` so
  indices fit in int64; the library's callers quantize to 16 bits or
  fewer per axis, comfortably inside that bound.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.util.geometry import Rect

__all__ = [
    "hilbert_index",
    "hilbert_point",
    "hilbert_indices",
    "hilbert_sort_keys",
]


# ---------------------------------------------------------------------------
# Scalar path (Python ints, arbitrary precision)
# ---------------------------------------------------------------------------


def _axes_to_transpose(x: list[int], bits: int) -> list[int]:
    """In-place Skilling forward transform: axes -> transposed Hilbert."""
    n = len(x)
    m = 1 << (bits - 1)
    # Inverse undo of the excess work baked into Gray-code ordering.
    q = m
    while q > 1:
        p = q - 1
        for i in range(n):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q >>= 1
    # Gray encode.
    for i in range(1, n):
        x[i] ^= x[i - 1]
    t = 0
    q = m
    while q > 1:
        if x[n - 1] & q:
            t ^= q - 1
        q >>= 1
    for i in range(n):
        x[i] ^= t
    return x


def _transpose_to_axes(x: list[int], bits: int) -> list[int]:
    """In-place Skilling inverse transform: transposed Hilbert -> axes."""
    n = len(x)
    top = 2 << (bits - 1)
    # Gray decode by H ^ (H/2).
    t = x[n - 1] >> 1
    for i in range(n - 1, 0, -1):
        x[i] ^= x[i - 1]
    x[0] ^= t
    # Undo excess work.
    q = 2
    while q != top:
        p = q - 1
        for i in range(n - 1, -1, -1):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q <<= 1
    return x


def _pack_transpose(x: Sequence[int], bits: int) -> int:
    """Interleave transpose words into a single Hilbert index."""
    h = 0
    for bit in range(bits - 1, -1, -1):
        for xi in x:
            h = (h << 1) | ((xi >> bit) & 1)
    return h


def _unpack_transpose(h: int, bits: int, ndim: int) -> list[int]:
    """De-interleave a Hilbert index into transpose words."""
    x = [0] * ndim
    pos = bits * ndim
    for bit in range(bits - 1, -1, -1):
        for i in range(ndim):
            pos -= 1
            x[i] = (x[i] << 1) | ((h >> pos) & 1)
    # The loop above already walks bits msb->lsb, so x is complete.
    return x


def _check_args(bits: int, ndim: int) -> None:
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    if ndim < 1:
        raise ValueError(f"ndim must be >= 1, got {ndim}")


def hilbert_index(coords: Sequence[int], bits: int) -> int:
    """Hilbert index of a grid point.

    Parameters
    ----------
    coords:
        Integer grid coordinates, each in ``[0, 2**bits)``.
    bits:
        Curve order (bits per axis).

    Returns
    -------
    int
        Position along the curve, in ``[0, 2**(bits*len(coords)))``.
    """
    ndim = len(coords)
    _check_args(bits, ndim)
    x = []
    for c in coords:
        c = int(c)
        if not 0 <= c < (1 << bits):
            raise ValueError(f"coordinate {c} outside [0, 2**{bits})")
        x.append(c)
    if ndim == 1:
        return x[0]
    _axes_to_transpose(x, bits)
    return _pack_transpose(x, bits)


def hilbert_point(index: int, bits: int, ndim: int) -> Tuple[int, ...]:
    """Inverse of :func:`hilbert_index`: curve position -> grid point."""
    _check_args(bits, ndim)
    index = int(index)
    if not 0 <= index < (1 << (bits * ndim)):
        raise ValueError(f"index {index} outside [0, 2**{bits * ndim})")
    if ndim == 1:
        return (index,)
    x = _unpack_transpose(index, bits, ndim)
    _transpose_to_axes(x, bits)
    return tuple(x)


# ---------------------------------------------------------------------------
# Vectorized path (NumPy, bits * ndim <= 62)
# ---------------------------------------------------------------------------


#: Points per pass of the vectorized path: every temporary of a pass
#: (the widest is ``bits`` words per point) stays cache-sized.
_BLOCK = 16384


def hilbert_indices(coords: np.ndarray, bits: int) -> np.ndarray:
    """Hilbert indices for an ``(n, d)`` array of integer grid points.

    Vectorized across points: the loops run over ``bits`` and ``d``
    only, with all points of a block processed per step as in-place
    NumPy bit-ops.
    """
    pts = np.ascontiguousarray(coords, dtype=np.int64)
    if pts.ndim != 2:
        raise ValueError("coords must be an (n, d) array")
    n_pts, ndim = pts.shape
    _check_args(bits, ndim)
    if bits * ndim > 62:
        raise ValueError(
            f"bits*ndim = {bits * ndim} exceeds the int64 vectorized "
            "limit of 62; use the scalar hilbert_index instead"
        )
    if n_pts == 0:
        return np.empty(0, dtype=np.int64)
    if pts.min() < 0 or pts.max() >= (1 << bits):
        raise ValueError(f"coordinates outside [0, 2**{bits})")
    if ndim == 1:
        return pts[:, 0].copy()
    keys = np.empty(n_pts, dtype=np.int64)
    for s in range(0, n_pts, _BLOCK):
        keys[s : s + _BLOCK] = _hilbert_block(pts[s : s + _BLOCK], bits)
    return keys


def _hilbert_block(pts: np.ndarray, bits: int) -> np.ndarray:
    """Skilling's transform and the interleave for one block of points."""
    n_pts, ndim = pts.shape
    x = np.array(pts.T, order="C")  # (ndim, n) working copy, one row per axis
    x0 = x[0]
    invert = np.empty_like(x)
    swap = np.empty_like(x)
    t = np.empty(n_pts, dtype=np.int64)

    # Inverse undo.  Bit b of every axis is fixed within level b (only
    # the lower bits move), so both masks are taken for all axes at once.
    for b in range(bits - 1, 0, -1):
        p = (1 << b) - 1
        np.right_shift(x, b, out=invert)
        invert &= 1
        invert *= p  # p where bit b is set: invert the low bits of x[0]
        np.bitwise_xor(invert, p, out=swap)  # p where clear: swap them with x[0]'s
        x0 ^= invert[0]
        for i in range(1, ndim):
            np.bitwise_xor(x0, x[i], out=t)
            t &= swap[i]
            x[i] ^= t
            x0 ^= t
            x0 ^= invert[i]

    # Gray encode.  t is the XOR of (q - 1) over the set bits q > 1 of
    # the last axis, i.e. a suffix parity, taken in log2(bits) steps.
    for i in range(1, ndim):
        x[i] ^= x[i - 1]
    np.right_shift(x[ndim - 1], 1, out=t)
    s = 1
    while s < bits:
        t ^= t >> s
        s <<= 1
    x ^= t

    # Interleave transpose words: bit k of axis i lands at k*ndim + (ndim-1-i).
    bit = np.arange(bits, dtype=np.int64)[:, None]
    keys = np.zeros(n_pts, dtype=np.int64)
    for i in range(ndim):
        spread = (x[i] >> bit) & 1
        spread <<= bit * ndim + (ndim - 1 - i)
        keys |= np.bitwise_or.reduce(spread, axis=0)
    return keys


def hilbert_sort_keys(
    points: np.ndarray, bbox: Rect, bits: int = 16
) -> np.ndarray:
    """Hilbert keys for float points, quantized inside a bounding box.

    This is the helper the planner and declusterer call: chunk MBR
    mid-points (floats in attribute-space units) are snapped to a
    ``2**bits`` grid over *bbox* and converted to curve positions.
    Points on the upper boundary map to the last grid cell.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.shape[1] != bbox.ndim:
        raise ValueError("points dimensionality does not match bbox")
    lo, hi = bbox.as_arrays()
    span = hi - lo
    # Degenerate (zero-extent) dimensions all quantize to cell 0.
    safe_span = np.where(span > 0, span, 1.0)
    scale = (1 << bits) / safe_span
    cells = np.floor((pts - lo) * scale).astype(np.int64)
    cells = np.clip(cells, 0, (1 << bits) - 1)
    return hilbert_indices(cells, bits)
