"""User-defined mapping functions (the paper's ``Map``).

A mapping projects items of an input dataset into the attribute space
of an output dataset.  ADR uses mappings at two granularities:

- *item level* (query execution): each retrieved input item is mapped
  to the output items it contributes to (steps 6--7 of the processing
  loop, Figure 1);
- *chunk level* (query planning): an input chunk's MBR is projected
  into the output space to determine which output chunks it
  intersects -- this builds the bipartite input/output chunk graph the
  tiling and workload-partitioning algorithms operate on.

A mapping may be one-to-many ("a mapping function may map an input
element to multiple output elements").  That fan-out is expressed here
as a rectangular *footprint*: each mapped point contributes to every
output cell intersecting the footprint box centred on its image, which
models e.g. a satellite sensor reading being composited into several
pixels of the output grid.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.space.attribute_space import AttributeSpace
from repro.util.geometry import Rect

__all__ = ["Mapping", "IdentityMapping", "AffineMapping", "GridMapping"]


class Mapping(ABC):
    """Projection from an input attribute space to an output space."""

    def __init__(
        self,
        input_space: AttributeSpace,
        output_space: AttributeSpace,
        footprint: Optional[Sequence[float]] = None,
    ) -> None:
        self.input_space = input_space
        self.output_space = output_space
        if footprint is None:
            footprint = (0.0,) * output_space.ndim
        fp = tuple(float(f) for f in footprint)
        if len(fp) != output_space.ndim:
            raise ValueError("footprint dimensionality must match output space")
        if any(f < 0 for f in fp):
            raise ValueError("footprint half-widths must be non-negative")
        self.footprint: Tuple[float, ...] = fp

    # -- item level ----------------------------------------------------

    @abstractmethod
    def map_points(self, points: np.ndarray) -> np.ndarray:
        """Project an ``(n, d_in)`` array into ``(n, d_out)`` output coords."""

    # -- chunk level ---------------------------------------------------

    def project_rect(self, rect: Rect) -> Rect:
        """Project an input MBR to its output-space MBR (incl. footprint):
        the one-row case of :meth:`project_rects`."""
        lo, hi = rect.as_arrays()
        plo, phi = self.project_rects(lo[None, :], hi[None, :])
        return Rect(tuple(plo[0]), tuple(phi[0]))

    def project_rects(
        self, los: np.ndarray, his: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Project ``(n, d_in)`` input MBR corner arrays to ``(n, d_out)``
        output-space MBR corner arrays (incl. footprint).

        The default implementation maps the 2^d corner points of every
        MBR in one :meth:`map_points` call and takes their bounding
        boxes, which is exact for any affine mapping and a conservative
        (enclosing) approximation otherwise -- exactly what the planner
        needs: a superset of intersecting output chunks is safe, a
        subset is not.
        """
        n, d = los.shape
        # corner c takes hi in dimension j when bit j of c is set
        take_hi = (np.arange(1 << d)[:, None] >> np.arange(d)) & 1 == 1
        corners = np.where(take_hi, his[:, None, :], los[:, None, :])
        mapped = self.map_points(corners.reshape(n << d, d)).reshape(
            n, 1 << d, self.output_space.ndim
        )
        fp = np.asarray(self.footprint)
        return mapped.min(axis=1) - fp, mapped.max(axis=1) + fp

    def point_footprints(self, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-point output boxes ``(lo, hi)`` including the footprint."""
        mapped = self.map_points(points)
        fp = np.asarray(self.footprint)
        return mapped - fp, mapped + fp


class IdentityMapping(Mapping):
    """Input and output share a space; items map onto themselves.

    This is the Virtual Microscope situation at full magnification: the
    output grid is a sub-region of the input image at the same
    resolution.
    """

    def __init__(self, space: AttributeSpace, footprint: Optional[Sequence[float]] = None) -> None:
        super().__init__(space, space, footprint)

    def map_points(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.input_space.ndim:
            raise ValueError("points must be (n, d_in)")
        return pts


class AffineMapping(Mapping):
    """Per-dimension affine projection with optional dimension selection.

    ``out[j] = in[dim_select[j]] * scale[j] + offset[j]``

    Dimension selection models projections that drop axes, e.g. mapping
    satellite readings in (longitude, latitude, time) onto a 2-D
    composite image in (x, y): ``dim_select=(0, 1)`` discards time.
    """

    def __init__(
        self,
        input_space: AttributeSpace,
        output_space: AttributeSpace,
        scale: Sequence[float],
        offset: Sequence[float],
        dim_select: Optional[Sequence[int]] = None,
        footprint: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(input_space, output_space, footprint)
        d_out = output_space.ndim
        if dim_select is None:
            dim_select = tuple(range(d_out))
        self.dim_select = tuple(int(i) for i in dim_select)
        if len(self.dim_select) != d_out:
            raise ValueError("dim_select length must equal output ndim")
        if any(not 0 <= i < input_space.ndim for i in self.dim_select):
            raise ValueError("dim_select indexes outside the input space")
        self.scale = np.asarray(scale, dtype=float)
        self.offset = np.asarray(offset, dtype=float)
        if self.scale.shape != (d_out,) or self.offset.shape != (d_out,):
            raise ValueError("scale/offset must have one entry per output dim")
        if np.any(self.scale == 0):
            raise ValueError("zero scale would collapse a dimension")

    def map_points(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.input_space.ndim:
            raise ValueError("points must be (n, d_in)")
        return pts[:, self.dim_select] * self.scale + self.offset

    @staticmethod
    def between_bounds(
        input_space: AttributeSpace,
        output_space: AttributeSpace,
        dim_select: Optional[Sequence[int]] = None,
        footprint: Optional[Sequence[float]] = None,
    ) -> "AffineMapping":
        """The affine map taking the selected input extent onto the
        full output extent -- the common "project the queried region
        onto the output grid" case from the paper's applications."""
        d_out = output_space.ndim
        if dim_select is None:
            dim_select = tuple(range(d_out))
        in_lo = np.asarray([input_space.dims[i].lo for i in dim_select])
        in_hi = np.asarray([input_space.dims[i].hi for i in dim_select])
        out_lo, out_hi = output_space.bounds.as_arrays()
        span_in = np.where(in_hi > in_lo, in_hi - in_lo, 1.0)
        scale = (out_hi - out_lo) / span_in
        offset = out_lo - in_lo * scale
        return AffineMapping(
            input_space, output_space, scale, offset, dim_select, footprint
        )


class GridMapping(AffineMapping):
    """Affine projection onto a regular output grid.

    Convenience subclass that also knows the grid resolution, used by
    the functional execution engine to bin mapped points into output
    cells.
    """

    def __init__(
        self,
        input_space: AttributeSpace,
        output_space: AttributeSpace,
        grid_shape: Sequence[int],
        dim_select: Optional[Sequence[int]] = None,
        footprint: Optional[Sequence[float]] = None,
    ) -> None:
        shape = tuple(int(s) for s in grid_shape)
        if len(shape) != output_space.ndim or any(s < 1 for s in shape):
            raise ValueError("grid_shape must be positive, one per output dim")
        self.grid_shape = shape
        base = AffineMapping.between_bounds(
            input_space, output_space, dim_select, footprint
        )
        super().__init__(
            input_space,
            output_space,
            base.scale,
            base.offset,
            base.dim_select,
            footprint,
        )

    def cells_for_points(self, points: np.ndarray) -> np.ndarray:
        """Grid cell index per point (no footprint), shape ``(n, d_out)``."""
        mapped = self.map_points(points)
        return self.cells_for_coords(mapped)

    def cells_for_coords(self, coords: np.ndarray) -> np.ndarray:
        """Snap output-space coordinates to grid cell indices."""
        lo, hi = self.output_space.bounds.as_arrays()
        span = np.where(hi > lo, hi - lo, 1.0)
        shape = np.asarray(self.grid_shape)
        cells = np.floor((coords - lo) / span * shape).astype(np.int64)
        return np.clip(cells, 0, shape - 1)

    def cell_ranges_for_points(
        self, points: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Inclusive cell-index ranges covered by each point's footprint.

        Returns ``(lo_cells, hi_cells)`` arrays of shape ``(n, d_out)``;
        a point with a zero footprint yields ``lo == hi``.  This is the
        item-level fan-out used by the aggregation engine.
        """
        lo_box, hi_box = self.point_footprints(points)
        return self.cells_for_coords(lo_box), self.cells_for_coords(hi_box)
