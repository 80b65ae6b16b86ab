"""R-tree over chunk MBRs.

A from-scratch implementation of Guttman's R-tree with

- dynamic insertion (least-enlargement descent, quadratic split),
- STR (Sort-Tile-Recursive) bulk loading, the path the dataset loader
  uses because chunk populations arrive all at once, and
- Hilbert-packed bulk loading (Kamel & Faloutsos), which reuses the
  library's space-filling curve: entries sorted by the Hilbert key of
  their MBR centre are packed into consecutive leaves.

Node MBRs are kept in packed arrays inside each node so that the
"which children intersect the query" test is one vectorized mask per
visited node rather than a Python loop over children.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.index.base import SpatialIndex
from repro.util.geometry import Rect, rects_intersect_mask

__all__ = ["RTree"]


class _Node:
    """One R-tree node.

    ``children`` is either a list of child ``_Node`` (internal) or
    ``None`` (leaf); ``ids`` holds entry ids at leaves.  ``los/his``
    store per-entry MBRs in packed arrays, kept in sync with
    children/ids.
    """

    __slots__ = ("los", "his", "children", "ids")

    def __init__(self, ndim: int, leaf: bool) -> None:
        self.los = np.empty((0, ndim), dtype=float)
        self.his = np.empty((0, ndim), dtype=float)
        self.children: Optional[List["_Node"]] = None if leaf else []
        self.ids: Optional[List[int]] = [] if leaf else None

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    @property
    def n_entries(self) -> int:
        return len(self.los)

    def mbr_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The node's own MBR (union of its entries)."""
        return self.los.min(axis=0), self.his.max(axis=0)

    def append(self, lo: np.ndarray, hi: np.ndarray, payload) -> None:
        self.los = np.vstack([self.los, lo[None, :]])
        self.his = np.vstack([self.his, hi[None, :]])
        if self.is_leaf:
            self.ids.append(payload)
        else:
            self.children.append(payload)


class RTree(SpatialIndex):
    """Guttman R-tree with quadratic split and STR bulk load.

    Parameters
    ----------
    ndim:
        Dimensionality of indexed MBRs.
    max_entries:
        Node capacity M (split on overflow).  ``min_entries`` defaults
        to ``M // 2`` as in Guttman's paper.
    """

    def __init__(self, ndim: int, max_entries: int = 16, min_entries: Optional[int] = None) -> None:
        if ndim < 1:
            raise ValueError("ndim must be >= 1")
        if max_entries < 4:
            raise ValueError("max_entries must be >= 4")
        self.ndim = ndim
        self.max_entries = max_entries
        self.min_entries = max_entries // 2 if min_entries is None else min_entries
        if not 1 <= self.min_entries <= max_entries // 2:
            raise ValueError("min_entries must be in [1, max_entries // 2]")
        self._root = _Node(ndim, leaf=True)
        self._count = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_rects(
        cls,
        los: np.ndarray,
        his: np.ndarray,
        max_entries: int = 16,
        bulk: "bool | str" = True,
        **kwargs,
    ) -> "RTree":
        """``bulk`` may be True/"str" (Sort-Tile-Recursive), "hilbert"
        (Hilbert-packed), or False (one-by-one insertion)."""
        los = np.ascontiguousarray(los, dtype=float)
        his = np.ascontiguousarray(his, dtype=float)
        if los.ndim != 2 or los.shape != his.shape:
            raise ValueError("los/his must be matching (n, d) arrays")
        tree = cls(los.shape[1], max_entries=max_entries, **kwargs)
        if len(los) == 0:
            return tree
        if bulk == "hilbert":
            tree._bulk_load(los, his, method="hilbert")
        elif bulk is True or bulk == "str":
            tree._bulk_load(los, his, method="str")
        elif bulk is False:
            for i in range(len(los)):
                tree.insert(i, los[i], his[i])  # noqa: ADR306 -- Guttman dynamic insert (bulk=False), inherently per-entry
        else:
            raise ValueError(f"unknown bulk-load method {bulk!r}")
        return tree

    def insert(self, entry_id: int, lo: np.ndarray, hi: np.ndarray) -> None:
        """Insert one MBR with payload id (Guttman Insert)."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != (self.ndim,) or hi.shape != (self.ndim,):
            raise ValueError("entry MBR dimensionality mismatch")
        if np.any(lo > hi):
            raise ValueError("entry MBR has lo > hi")
        split = self._insert(self._root, lo, hi, int(entry_id))
        if split is not None:
            # Root overflowed: grow the tree by one level.
            old_root, new_node = self._root, split
            root = _Node(self.ndim, leaf=False)
            for child in (old_root, new_node):
                clo, chi = child.mbr_arrays()
                root.append(clo, chi, child)
            self._root = root
        self._count += 1

    def _insert(self, node: _Node, lo: np.ndarray, hi: np.ndarray, entry_id: int) -> Optional[_Node]:
        """Recursive insert; returns the new sibling if *node* split."""
        if node.is_leaf:
            node.append(lo, hi, entry_id)
        else:
            ci = self._choose_subtree(node, lo, hi)
            child = node.children[ci]
            split = self._insert(child, lo, hi, entry_id)
            clo, chi = child.mbr_arrays()
            node.los[ci] = clo
            node.his[ci] = chi
            if split is not None:
                slo, shi = split.mbr_arrays()
                node.append(slo, shi, split)
        if node.n_entries > self.max_entries:
            return self._split(node)
        return None

    def _choose_subtree(self, node: _Node, lo: np.ndarray, hi: np.ndarray) -> int:
        """Least-enlargement child; ties broken by smaller volume."""
        ulo = np.minimum(node.los, lo)
        uhi = np.maximum(node.his, hi)
        new_vol = np.prod(uhi - ulo, axis=1)
        old_vol = np.prod(node.his - node.los, axis=1)
        enlargement = new_vol - old_vol
        best = np.lexsort((old_vol, enlargement))[0]
        return int(best)

    def _split(self, node: _Node) -> _Node:
        """Quadratic split: returns the new sibling node."""
        los, his = node.los, node.his
        n = len(los)
        payloads = node.ids if node.is_leaf else node.children

        # PickSeeds: the pair wasting the most volume together.
        ulo = np.minimum(los[:, None, :], los[None, :, :])
        uhi = np.maximum(his[:, None, :], his[None, :, :])
        pair_vol = np.prod(uhi - ulo, axis=2)
        own_vol = np.prod(his - los, axis=1)
        waste = pair_vol - own_vol[:, None] - own_vol[None, :]
        np.fill_diagonal(waste, -np.inf)
        s1, s2 = np.unravel_index(np.argmax(waste), waste.shape)

        groups: Tuple[List[int], List[int]] = ([int(s1)], [int(s2)])
        glo = [los[s1].copy(), los[s2].copy()]
        ghi = [his[s1].copy(), his[s2].copy()]
        remaining = [i for i in range(n) if i not in (s1, s2)]

        while remaining:
            # Force-assign when a group must absorb everything left to
            # reach min_entries.
            for g in (0, 1):
                need = self.min_entries - len(groups[g])
                if need > 0 and need >= len(remaining):
                    for i in remaining:
                        groups[g].append(i)
                        glo[g] = np.minimum(glo[g], los[i])  # noqa: ADR306 -- quadratic split, bounded by node capacity
                        ghi[g] = np.maximum(ghi[g], his[i])  # noqa: ADR306 -- quadratic split, bounded by node capacity
                    remaining = []
                    break
            if not remaining:
                break
            # PickNext: entry with max preference between groups.
            rem = np.asarray(remaining)
            d = []
            for g in (0, 1):
                u_lo = np.minimum(glo[g], los[rem])
                u_hi = np.maximum(ghi[g], his[rem])
                d.append(np.prod(u_hi - u_lo, axis=1) - np.prod(ghi[g] - glo[g]))
            diff = np.abs(d[0] - d[1])
            pick = int(np.argmax(diff))
            i = int(rem[pick])
            g = 0 if d[0][pick] < d[1][pick] else 1
            if d[0][pick] == d[1][pick]:
                g = 0 if len(groups[0]) <= len(groups[1]) else 1
            groups[g].append(i)
            glo[g] = np.minimum(glo[g], los[i])
            ghi[g] = np.maximum(ghi[g], his[i])
            remaining.remove(i)

        # Rebuild this node from group 0 and a sibling from group 1.
        sibling = _Node(self.ndim, leaf=node.is_leaf)
        idx0 = np.asarray(groups[0])
        idx1 = np.asarray(groups[1])
        sibling.los = los[idx1].copy()
        sibling.his = his[idx1].copy()
        if node.is_leaf:
            sibling.ids = [payloads[i] for i in groups[1]]
            node.ids = [payloads[i] for i in groups[0]]
        else:
            sibling.children = [payloads[i] for i in groups[1]]
            node.children = [payloads[i] for i in groups[0]]
        node.los = los[idx0].copy()
        node.his = his[idx0].copy()
        return sibling

    # ------------------------------------------------------------------
    # STR bulk load
    # ------------------------------------------------------------------

    def _bulk_load(self, los: np.ndarray, his: np.ndarray, method: str = "str") -> None:
        """Bottom-up packing: STR (Leutenegger et al.) or Hilbert
        (Kamel & Faloutsos)."""
        if self._count:
            raise RuntimeError("bulk load requires an empty tree")
        centers = (los + his) * 0.5
        order = np.arange(len(los))
        if method == "hilbert":
            leaves = self._hilbert_pack_level(los, his, centers)
        else:
            leaves = self._str_pack_level(los, his, centers, order)
        level: List[_Node] = leaves
        while len(level) > 1:
            level = self._pack_parents(level)
        self._root = level[0]
        self._count = len(los)

    def _hilbert_pack_level(
        self, los: np.ndarray, his: np.ndarray, centers: np.ndarray
    ) -> List[_Node]:
        """Pack entries into leaves along the Hilbert curve of their
        MBR centres."""
        from repro.util.geometry import Rect
        from repro.util.hilbert import hilbert_sort_keys

        bbox = Rect(tuple(los.min(axis=0)), tuple(his.max(axis=0)))
        keys = hilbert_sort_keys(centers, bbox, bits=16)
        order = np.lexsort((np.arange(len(keys)), keys))
        cap = self.max_entries
        leaves: List[_Node] = []
        for s in range(0, len(order), cap):
            group = order[s : s + cap]
            leaf = _Node(self.ndim, leaf=True)
            leaf.los = los[group].copy()
            leaf.his = his[group].copy()
            leaf.ids = [int(i) for i in group]
            leaves.append(leaf)
        return leaves

    def _str_pack_level(
        self,
        los: np.ndarray,
        his: np.ndarray,
        centers: np.ndarray,
        ids: np.ndarray,
    ) -> List[_Node]:
        """Recursively tile entries by center coordinate into leaves."""
        cap = self.max_entries

        def tile(idx: np.ndarray, dim: int) -> List[np.ndarray]:
            if dim >= self.ndim - 1 or len(idx) <= cap:
                srt = idx[np.argsort(centers[idx, dim], kind="stable")]
                # final dimension: cut into leaf-sized runs
                return [srt[i : i + cap] for i in range(0, len(srt), cap)]
            n_leaves = math.ceil(len(idx) / cap)
            n_slabs = math.ceil(n_leaves ** (1.0 / (self.ndim - dim)))
            slab_size = math.ceil(len(idx) / n_slabs)
            srt = idx[np.argsort(centers[idx, dim], kind="stable")]
            groups: List[np.ndarray] = []
            for i in range(0, len(srt), slab_size):
                groups.extend(tile(srt[i : i + slab_size], dim + 1))
            return groups

        leaves = []
        for group in tile(np.asarray(ids), 0):
            leaf = _Node(self.ndim, leaf=True)
            leaf.los = los[group].copy()  # noqa: ADR306 -- vectorized gather (group is an id array)
            leaf.his = his[group].copy()  # noqa: ADR306 -- vectorized gather (group is an id array)
            leaf.ids = [int(i) for i in group]
            leaves.append(leaf)
        return leaves

    def _pack_parents(self, nodes: List[_Node]) -> List[_Node]:
        """Group a level of nodes into parents, STR-ordered."""
        mbrs = np.asarray([(n.mbr_arrays()) for n in nodes])  # (k, 2, d)
        los = mbrs[:, 0, :]
        his = mbrs[:, 1, :]
        centers = (los + his) * 0.5
        cap = self.max_entries
        order = np.lexsort(tuple(centers[:, d] for d in range(self.ndim - 1, -1, -1)))
        parents: List[_Node] = []
        for i in range(0, len(nodes), cap):
            grp = order[i : i + cap]
            parent = _Node(self.ndim, leaf=False)
            parent.los = los[grp].copy()
            parent.his = his[grp].copy()
            parent.children = [nodes[j] for j in grp]
            parents.append(parent)
        return parents

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def query(self, rect: Rect) -> np.ndarray:
        if rect.ndim != self.ndim:
            raise ValueError("query dimensionality mismatch")
        if self._count == 0:
            return np.empty(0, dtype=np.int64)
        out: List[int] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.n_entries == 0:
                continue
            mask = rects_intersect_mask(node.los, node.his, rect)
            if node.is_leaf:
                out.extend(node.ids[i] for i in np.flatnonzero(mask))
            else:
                stack.extend(node.children[i] for i in np.flatnonzero(mask))
        return np.asarray(sorted(out), dtype=np.int64)

    @property
    def n_entries(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    # Introspection / invariants
    # ------------------------------------------------------------------

    @property
    def height(self) -> int:
        h = 1
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
            h += 1
        return h

    def node_count(self) -> int:
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                stack.extend(node.children)
        return count

    def validate(self) -> None:
        """Check structural invariants; raises ``AssertionError``.

        - every internal entry MBR equals the union of the child's
          entry MBRs (tight bounding);
        - all leaves sit at the same depth;
        - node occupancy within [min_entries, max_entries] (root
          exempt) for trees built by insertion or bulk load;
        - the leaf id multiset has no duplicates and size n_entries.
        """
        ids: List[int] = []
        leaf_depths: List[int] = []

        def walk(node: _Node, depth: int, is_root: bool) -> None:
            if not is_root:
                if not self.min_entries <= node.n_entries <= self.max_entries:
                    # STR packing can leave one underfull node per level.
                    if node.n_entries > self.max_entries or node.n_entries < 1:
                        raise AssertionError(
                            f"node occupancy {node.n_entries} outside [1, {self.max_entries}]"
                        )
            if node.is_leaf:
                leaf_depths.append(depth)
                ids.extend(node.ids)
                return
            if len(node.children) != node.n_entries:
                raise AssertionError("children list out of sync with MBR arrays")
            for i, child in enumerate(node.children):
                clo, chi = child.mbr_arrays()
                if not (
                    np.allclose(node.los[i], clo) and np.allclose(node.his[i], chi)  # noqa: ADR306 -- structural invariant checker, not a query path
                ):
                    raise AssertionError("stale entry MBR for a child node")
                walk(child, depth + 1, False)

        walk(self._root, 0, True)
        if len(set(leaf_depths)) > 1:
            raise AssertionError(f"leaves at differing depths: {set(leaf_depths)}")
        if len(ids) != self._count:
            raise AssertionError(f"{len(ids)} leaf ids but count={self._count}")
        if len(set(ids)) != len(ids):
            raise AssertionError("duplicate ids in leaves")
