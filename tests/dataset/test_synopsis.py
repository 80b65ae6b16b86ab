"""The one-pass synopsis kernel against the per-chunk loop it replaced.

``oracle_summarize`` / ``oracle_from_chunks`` are the per-chunk
``nanmin`` / ``nanmax`` implementation, and ``oracle_encode`` the chunk
encoder built on it (with its two ``bytes(body)`` copies); the
vectorised kernel must give the same rows, and ``encode_chunk`` the
same bytes, so the v2 on-disk format is unchanged.
"""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.dataset.chunk import Chunk, ChunkMeta
from repro.dataset.synopsis import ValueSynopsis
from repro.store.format import encode_chunk
from repro.util.geometry import Rect


def oracle_summarize(values):
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim == 1:
        vals = vals[:, None]
    elif vals.ndim > 2:
        vals = vals.reshape(len(vals), -1)
    n, k = vals.shape
    nulls = np.count_nonzero(np.isnan(vals), axis=0).astype(np.int64)
    vmin = np.full(k, np.nan)
    vmax = np.full(k, np.nan)
    live = nulls < n
    if n and live.any():
        with np.errstate(all="ignore"):
            vmin[live] = np.nanmin(vals[:, live], axis=0)
            vmax[live] = np.nanmax(vals[:, live], axis=0)
    return vmin, vmax, nulls, n


def oracle_from_chunks(chunks):
    rows = [oracle_summarize(c.values) for c in chunks]
    k = max(len(r[0]) for r in rows)
    if any(len(r[0]) != k for r in rows):
        raise ValueError("chunks disagree on value component count")
    return (
        np.stack([r[0] for r in rows]),
        np.stack([r[1] for r in rows]),
        np.stack([r[2] for r in rows]),
        np.asarray([r[3] for r in rows], dtype=np.int64),
    )


def oracle_encode(chunk):
    coords = np.ascontiguousarray(chunk.coords, dtype="<f8")
    values = np.ascontiguousarray(chunk.values)
    dtype_str = values.dtype.str.encode("ascii")
    trailing = values.shape[1:]
    lo, hi = chunk.meta.mbr.as_arrays()
    vmin, vmax, nulls, _count = oracle_summarize(values)
    body = bytearray()
    body += dtype_str
    body += np.asarray(trailing, dtype="<i8").tobytes()
    body += np.ascontiguousarray(lo, dtype="<f8").tobytes()
    body += np.ascontiguousarray(hi, dtype="<f8").tobytes()
    body += np.ascontiguousarray(vmin, dtype="<f8").tobytes()
    body += np.ascontiguousarray(vmax, dtype="<f8").tobytes()
    body += np.ascontiguousarray(nulls, dtype="<i8").tobytes()
    body += coords.tobytes()
    body += values.tobytes()
    header = struct.pack(
        "<4sHHqqIIIII", b"ADRC", 2, coords.shape[1], chunk.meta.chunk_id,
        len(coords), coords.nbytes, values.nbytes, len(dtype_str),
        len(trailing), zlib.crc32(bytes(body)),
    )
    return header + bytes(body)


def chunk_of(cid, values):
    n = len(values)
    coords = np.tile([float(cid), 0.0], (n, 1))
    meta = ChunkMeta(cid, Rect((float(cid), 0.0), (float(cid), 0.0)), values.nbytes, n)
    return Chunk(meta, coords, values)


#: NaN with either sign, signed zeros, infinities and ordinary floats
SPECIAL = st.sampled_from([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1.5, -2.0])


@st.composite
def chunk_lists(draw):
    """1-6 chunks sharing one value shape and dtype; empty chunks
    anywhere (a 3-D oracle cannot reshape an empty block, so those
    have items), and sometimes a component that is NaN in every row."""
    rank = draw(st.sampled_from([1, 2, 3]))
    trailing = {1: (), 2: (draw(st.integers(1, 3)),), 3: (2, draw(st.integers(1, 2)))}[rank]
    dtype = draw(st.sampled_from([np.float64, np.float32, np.int64, np.int32]))
    floating = np.issubdtype(dtype, np.floating)
    elements = (
        st.one_of(SPECIAL, st.floats(-1e6, 1e6, width=32)) if floating
        else st.integers(-(2**31), 2**31 - 1)
    )
    k = int(np.prod(trailing))
    low = 1 if rank == 3 else 0
    chunks = []
    for cid in range(draw(st.integers(1, 6))):
        n = draw(st.integers(low, 6))
        values = draw(hnp.arrays(dtype, (n, *trailing), elements=elements))
        if floating and n and draw(st.booleans()):
            values.reshape(n, k)[:, draw(st.integers(0, k - 1))] = np.nan
        chunks.append(chunk_of(cid, values))
    if rank < 3 and draw(st.booleans()):  # a trailing empty chunk
        chunks.append(chunk_of(len(chunks), np.zeros((0, *trailing), dtype=dtype)))
    return chunks


def assert_rows_equal(got, want):
    """Equal as numbers, and bit for bit up to the sign of a zero: NaN
    rows carry the same NaN.  Which zero a component holding both +0.0
    and -0.0 reports is not pinned -- the per-chunk loop's choice
    depended on which NumPy inner loop ran for its (n, k)."""
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert np.array_equal(g, w, equal_nan=True)
        assert (g + 0).tobytes() == (w + 0).tobytes()


class TestKernelMatchesPerChunkLoop:
    @given(chunk_lists())
    @settings(max_examples=300, deadline=None)
    def test_from_chunks(self, chunks):
        syn = ValueSynopsis.from_chunks(chunks)
        assert_rows_equal((syn.vmin, syn.vmax, syn.nulls, syn.counts), oracle_from_chunks(chunks))

    @given(chunk_lists())
    @settings(max_examples=300, deadline=None)
    def test_summarize_values_and_encoded_bytes(self, chunks):
        for chunk in chunks:
            vmin, vmax, nulls, count = ValueSynopsis.summarize_values(chunk.values)
            ovmin, ovmax, onulls, ocount = oracle_summarize(chunk.values)
            assert_rows_equal((vmin, vmax, nulls), (ovmin, ovmax, onulls))
            assert count == ocount and type(count) is int
            # ``+ 0`` turns -0.0 into +0.0, so the synopsis block is pinned too
            unsigned = chunk_of(chunk.chunk_id, chunk.values + 0)
            data = encode_chunk(unsigned)
            assert type(data) is bytes and data == oracle_encode(unsigned)

    def test_component_count_disagreement_raises(self):
        chunks = [chunk_of(0, np.ones((2, 2))), chunk_of(1, np.ones((3, 3)))]
        with pytest.raises(ValueError, match="disagree on value component count"):
            ValueSynopsis.from_chunks(chunks)
        with pytest.raises(ValueError, match="disagree on value component count"):
            ValueSynopsis.from_chunks([chunk_of(0, np.ones(2)), chunk_of(1, np.ones((0, 2)))])

    def test_empty_block_of_any_rank(self):
        """An empty ``(0, a, b)`` block has a row too (the per-chunk
        loop's ``reshape(0, -1)`` raised on it)."""
        syn = ValueSynopsis.from_chunks(
            [chunk_of(0, np.ones((1, 2, 2))), chunk_of(1, np.ones((0, 2, 2)))]
        )
        assert syn.counts.tolist() == [1, 0] and syn.nulls[1].tolist() == [0] * 4
        assert np.isnan(syn.vmin[1]).all() and np.isnan(syn.vmax[1]).all()
