"""Multi-dimensional attribute spaces.

Every dataset in ADR lives in an attribute space: satellite sensor
readings in (longitude, latitude, time), microscope pixels in
(x, y, focal plane), simulation output in (x, y, z, time).  The
attribute space service keeps a registry of named spaces so that
datasets, queries and mappings can be validated against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

from repro.util.geometry import Rect

__all__ = ["Dimension", "AttributeSpace", "AttributeSpaceRegistry"]


@dataclass(frozen=True)
class Dimension:
    """One axis of an attribute space: a name and a closed value range."""

    name: str
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("dimension name must be non-empty")
        if not float(self.lo) <= float(self.hi):
            raise ValueError(
                f"dimension {self.name!r}: lo {self.lo} exceeds hi {self.hi}"
            )

    @property
    def extent(self) -> float:
        return float(self.hi) - float(self.lo)


@dataclass(frozen=True)
class AttributeSpace:
    """A named multi-dimensional attribute space.

    Parameters
    ----------
    name:
        Registry key, e.g. ``"earth-surface-time"``.
    dims:
        Ordered dimensions; their ranges define :attr:`bounds`.
    """

    name: str
    dims: Tuple[Dimension, ...]

    def __post_init__(self) -> None:
        dims = tuple(self.dims)
        if not dims:
            raise ValueError("attribute space needs at least one dimension")
        names = [d.name for d in dims]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate dimension names in {names}")
        object.__setattr__(self, "dims", dims)

    @staticmethod
    def regular(name: str, dim_names: Sequence[str], lo: Sequence[float], hi: Sequence[float]) -> "AttributeSpace":
        """Build a space from parallel name/lo/hi sequences."""
        if not len(dim_names) == len(lo) == len(hi):
            raise ValueError("dim_names, lo and hi must have equal lengths")
        return AttributeSpace(
            name, tuple(Dimension(n, a, b) for n, a, b in zip(dim_names, lo, hi))
        )

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def bounds(self) -> Rect:
        """The full extent of the space as a Rect."""
        return Rect(tuple(d.lo for d in self.dims), tuple(d.hi for d in self.dims))

    def contains(self, rect: Rect) -> bool:
        """True when *rect* lies fully inside the space bounds."""
        return self.bounds.contains_rect(rect)

    def clip(self, rect: Rect) -> Rect | None:
        """Clip *rect* to the space bounds (None when fully outside)."""
        return self.bounds.intersection(rect)

    def validate_query(self, rect: Rect) -> Rect:
        """Check a range query against this space and clip it.

        Raises ``ValueError`` for dimensionality mismatches or queries
        entirely outside the space, mirroring the front-end validation
        the ADR query interface service performs.
        """
        if rect.ndim != self.ndim:
            raise ValueError(
                f"query has {rect.ndim} dims, space {self.name!r} has {self.ndim}"
            )
        clipped = self.clip(rect)
        if clipped is None:
            raise ValueError(f"query {rect} lies outside space {self.name!r}")
        return clipped


class AttributeSpaceRegistry:
    """Name -> space registry used by the front end.

    The registry rejects double registration under a different
    definition but is idempotent for identical re-registration, so
    application customizations can be loaded repeatedly.
    """

    def __init__(self) -> None:
        self._spaces: Dict[str, AttributeSpace] = {}

    def register(self, space: AttributeSpace) -> AttributeSpace:
        existing = self._spaces.get(space.name)
        if existing is not None and existing != space:
            raise ValueError(
                f"space {space.name!r} already registered with a different definition"
            )
        self._spaces[space.name] = space
        return space

    def get(self, name: str) -> AttributeSpace:
        try:
            return self._spaces[name]
        except KeyError:
            raise KeyError(f"attribute space {name!r} is not registered") from None

    def __contains__(self, name: str) -> bool:
        return name in self._spaces

    def __len__(self) -> int:
        return len(self._spaces)

    def names(self) -> Iterable[str]:
        return self._spaces.keys()
