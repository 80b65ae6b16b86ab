"""Property tests (hypothesis) for the index layer and synopsis pruning.

Two invariants the whole pruning tentpole rests on:

- every :class:`~repro.index.base.SpatialIndex` implementation answers
  exactly like the brute-force oracle on arbitrary MBR populations and
  queries (including degenerate zero-width and boundary-touching
  rectangles);
- value-synopsis pruning is *conservative*: a chunk holding at least
  one predicate-satisfying item is never marked prunable.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.chunk import Chunk, ChunkMeta
from repro.dataset.predicate import ValuePredicate
from repro.dataset.synopsis import ValueSynopsis
from repro.index import BruteForceIndex, RTree, ScanIndex
from repro.util.geometry import Rect

from helpers import random_rects

INDEX_TYPES = [RTree, ScanIndex]


def _population(rng, n, ndim):
    los = rng.uniform(-50, 50, size=(n, ndim))
    sizes = rng.uniform(0, 20, size=(n, ndim))
    # A third of the rectangles are made degenerate (zero width on a
    # random axis) to keep boundary handling honest.
    flat = rng.random(n) < 0.33
    axis = rng.integers(0, ndim, size=n)
    sizes[np.arange(n)[flat], axis[flat]] = 0.0
    return los, los + sizes


@given(
    seed=st.integers(0, 2**31),
    n=st.integers(0, 150),
    ndim=st.integers(1, 4),
)
@settings(max_examples=60, deadline=None)
def test_all_indexes_agree_with_brute_force(seed, n, ndim):
    rng = np.random.default_rng(seed)
    los, his = _population(rng, n, ndim)
    brute = BruteForceIndex(los, his)
    indexes = [cls.from_rects(los.copy(), his.copy()) for cls in INDEX_TYPES]
    for _ in range(8):
        qlo = rng.uniform(-70, 60, size=ndim)
        qhi = qlo + rng.uniform(0, 50, size=ndim)
        q = Rect(tuple(qlo), tuple(qhi))
        expect = brute.query(q).tolist()
        for idx in indexes:
            assert idx.query(q).tolist() == expect, type(idx).__name__


def _degenerate_population(label, rng):
    """(los, his) for one of the nasty MBR shapes."""
    if label == "zero-width":
        los, _ = random_rects(rng, 120, 2)
        return los, los.copy()
    if label == "boundary-touching":
        # Rectangles that touch exactly along shared edges at x = 0/5/10.
        return (
            np.array([[0.0, 0.0], [5.0, 0.0], [5.0, 5.0]]),
            np.array([[5.0, 5.0], [10.0, 5.0], [10.0, 10.0]]),
        )
    if label == "single-chunk":
        return np.array([[2.0, 3.0]]), np.array([[4.0, 9.0]])
    return np.empty((0, 2)), np.empty((0, 2))


@pytest.mark.parametrize(
    "label", ["zero-width", "boundary-touching", "single-chunk", "empty"]
)
def test_degenerate_populations_agree_with_brute_force(rng, label):
    los, his = _degenerate_population(label, rng)
    brute = BruteForceIndex(los, his)
    indexes = [cls.from_rects(los.copy(), his.copy()) for cls in INDEX_TYPES]
    probes = [
        Rect((0.0, 0.0), (100.0, 100.0)),   # everything
        Rect((5.0, 5.0), (5.0, 5.0)),       # a point on shared edges
        Rect((-10.0, -10.0), (-5.0, -5.0)),  # nothing
    ]
    qlos, qhis = random_rects(rng, 12, 2)
    probes += [Rect(tuple(lo), tuple(hi)) for lo, hi in zip(qlos, qhis)]
    for idx in indexes:
        assert idx.n_entries == len(los)
    for q in probes:
        expect = brute.query(q).tolist()
        for idx in indexes:
            assert idx.query(q).tolist() == expect, (type(idx).__name__, label, q)


@given(
    seed=st.integers(0, 2**31),
    n_chunks=st.integers(1, 25),
    k=st.integers(1, 3),
    with_nans=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_pruning_never_drops_a_satisfying_chunk(seed, n_chunks, k, with_nans):
    """Conservativeness: prunable => no item in the chunk passes the
    predicate.  (The converse is not required -- synopses may keep
    chunks that turn out to contribute nothing.)"""
    rng = np.random.default_rng(seed)
    chunks = []
    for cid in range(n_chunks):
        n_items = int(rng.integers(1, 12))
        coords = rng.uniform(0, 10, size=(n_items, 2))
        values = rng.uniform(-20, 20, size=(n_items, k))
        if with_nans:
            values[rng.random((n_items, k)) < 0.3] = np.nan
        meta = ChunkMeta(
            chunk_id=cid,
            mbr=Rect(tuple(coords.min(axis=0)), tuple(coords.max(axis=0))),
            nbytes=coords.nbytes + values.nbytes,
            n_items=n_items,
        )
        chunks.append(Chunk(meta, coords, values))
    synopsis = ValueSynopsis.from_chunks(chunks)

    comp = int(rng.integers(0, k))
    lo = float(rng.uniform(-25, 20))
    hi = lo + float(rng.uniform(0, 15))
    predicate = ValuePredicate.coerce({comp: (lo, hi)})

    prunable = predicate.prunable_chunks(synopsis)
    for cid, chunk in enumerate(chunks):
        survivors = predicate.mask(chunk.values)
        if survivors.any():
            assert not prunable[cid], (
                f"chunk {cid} has {int(survivors.sum())} satisfying items "
                "but was marked prunable"
            )
        if prunable[cid]:
            # And pruning a chunk drops nothing the kernel filter
            # would have kept.
            assert not survivors.any()


@given(seed=st.integers(0, 2**31), k=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_mask_matches_synopsis_on_single_item_chunks(seed, k):
    """With one item per chunk the synopsis is exact: prunable must
    equal the negation of the item-level mask."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    values = rng.uniform(-10, 10, size=(n, k))
    values[rng.random((n, k)) < 0.2] = np.nan
    chunks = []
    for i in range(n):
        meta = ChunkMeta(
            chunk_id=i, mbr=Rect((0.0, 0.0), (1.0, 1.0)), nbytes=8, n_items=1
        )
        chunks.append(Chunk(meta, np.zeros((1, 2)), values[i : i + 1]))
    synopsis = ValueSynopsis.from_chunks(chunks)
    comp = int(rng.integers(0, k))
    lo = float(rng.uniform(-12, 8))
    predicate = ValuePredicate.coerce({comp: (lo, lo + 5.0)})
    prunable = predicate.prunable_chunks(synopsis)
    keep = predicate.mask(values)
    assert prunable.tolist() == (~keep).tolist()
