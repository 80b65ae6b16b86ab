"""Tests for the binary chunk format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.chunk import Chunk
from repro.dataset.synopsis import ValueSynopsis
from repro.store.format import (
    ChunkFormatError,
    CorruptChunkError,
    decode_chunk,
    decode_synopsis,
    encode_chunk,
)


def make_chunk(rng, n=10, ndim=2, comps=0, dtype=np.float64):
    coords = rng.uniform(0, 100, size=(n, ndim))
    shape = (n,) if comps == 0 else (n, comps)
    values = rng.uniform(0, 1, size=shape).astype(dtype)
    return Chunk.from_items(7, coords, values)


class TestRoundTrip:
    def test_basic(self, rng):
        chunk = make_chunk(rng)
        back = decode_chunk(encode_chunk(chunk))
        assert back.chunk_id == 7
        np.testing.assert_array_equal(back.coords, chunk.coords)
        np.testing.assert_array_equal(back.values, chunk.values)
        assert back.meta.mbr == chunk.meta.mbr

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32, np.uint8])
    def test_value_dtypes(self, rng, dtype):
        chunk = make_chunk(rng, dtype=dtype)
        back = decode_chunk(encode_chunk(chunk))
        assert back.values.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(back.values, chunk.values)

    def test_multicomponent_values(self, rng):
        chunk = make_chunk(rng, comps=3)
        back = decode_chunk(encode_chunk(chunk))
        assert back.values.shape == chunk.values.shape

    @given(
        st.integers(0, 2**31),
        st.integers(1, 4),
        st.integers(1, 30),
        st.integers(0, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, seed, ndim, n, comps):
        rng = np.random.default_rng(seed)
        chunk = make_chunk(rng, n=n, ndim=ndim, comps=comps)
        back = decode_chunk(encode_chunk(chunk))
        np.testing.assert_array_equal(back.coords, chunk.coords)
        np.testing.assert_array_equal(back.values, chunk.values)

    @given(
        st.integers(0, 2**31),
        st.integers(1, 4),
        st.integers(1, 30),
        st.integers(0, 3),
        st.sampled_from([np.float32, np.float64, np.int32, np.uint8]),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_dtypes_property(self, seed, ndim, n, comps, dtype):
        """Checksum round-trip holds across payload dtypes and shapes."""
        rng = np.random.default_rng(seed)
        chunk = make_chunk(rng, n=n, ndim=ndim, comps=comps, dtype=dtype)
        back = decode_chunk(encode_chunk(chunk))
        assert back.values.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(back.coords, chunk.coords)
        np.testing.assert_array_equal(back.values, chunk.values)


class TestCorruption:
    def test_flipped_payload_byte_detected(self, rng):
        data = bytearray(encode_chunk(make_chunk(rng)))
        data[60] ^= 0xFF
        with pytest.raises(ChunkFormatError, match="CRC|corrupt"):
            decode_chunk(bytes(data))

    def test_truncated(self, rng):
        # Truncation surfaces as a CRC failure (the CRC is verified
        # before any body-derived length arithmetic is trusted).
        data = encode_chunk(make_chunk(rng))
        with pytest.raises(ChunkFormatError, match="length|short|CRC|corrupt"):
            decode_chunk(data[:-5])

    def test_too_short_for_header(self):
        with pytest.raises(ChunkFormatError, match="short"):
            decode_chunk(b"x" * 10)

    def test_bad_magic(self, rng):
        data = bytearray(encode_chunk(make_chunk(rng)))
        data[0:4] = b"NOPE"
        with pytest.raises(ChunkFormatError, match="magic"):
            decode_chunk(bytes(data))

    def test_bad_version(self, rng):
        data = bytearray(encode_chunk(make_chunk(rng)))
        data[4] = 99
        with pytest.raises(ChunkFormatError, match="version"):
            decode_chunk(bytes(data))


class TestCorruptionErrorTaxonomy:
    """Damage is CorruptChunkError; wrong format stays ChunkFormatError."""

    def test_crc_mismatch_is_corrupt(self, rng):
        data = bytearray(encode_chunk(make_chunk(rng)))
        data[-1] ^= 0xFF
        with pytest.raises(CorruptChunkError):
            decode_chunk(bytes(data))

    def test_truncation_is_corrupt(self, rng):
        data = encode_chunk(make_chunk(rng))
        with pytest.raises(CorruptChunkError):
            decode_chunk(data[:-5])
        with pytest.raises(CorruptChunkError):
            decode_chunk(data[:10])

    def test_bad_magic_is_not_corrupt(self, rng):
        """Wrong format is permanent: a retry policy matching only
        CorruptChunkError must not spin on it."""
        data = bytearray(encode_chunk(make_chunk(rng)))
        data[0:4] = b"NOPE"
        with pytest.raises(ChunkFormatError) as excinfo:
            decode_chunk(bytes(data))
        assert not isinstance(excinfo.value, CorruptChunkError)

    def test_corrupt_is_a_format_error(self):
        assert issubclass(CorruptChunkError, ChunkFormatError)

    @given(st.integers(0, 2**31), st.integers(0, 2000))
    @settings(max_examples=40, deadline=None)
    def test_any_flipped_body_byte_raises(self, seed, pos):
        """Property: flipping any CRC-protected body byte (everything
        after the 44-byte header) always raises -- no silent bit-rot.
        Header fields are validated at the store layer (id check)."""
        from repro.store.format import _HEADER

        rng = np.random.default_rng(seed)
        data = bytearray(encode_chunk(make_chunk(rng)))
        pos = _HEADER.size + pos % (len(data) - _HEADER.size)
        data[pos] ^= 0x01
        with pytest.raises(CorruptChunkError):
            decode_chunk(bytes(data))


def as_version1(data: bytes) -> bytes:
    """Rewrite a v2 encoding as the version-1 layout (no synopsis
    block), recomputing the CRC -- a faithful old-format file."""
    import zlib
    from math import prod

    from repro.store.format import _HEADER

    fields = list(_HEADER.unpack_from(data))
    _, _, ndim, _, _, _, _, dtype_len, rank, _ = fields
    body = bytearray(data[_HEADER.size :])
    trailing = np.frombuffer(
        bytes(body), dtype="<i8", count=rank, offset=dtype_len
    ).tolist()
    k = prod(trailing) if trailing else 1
    syn_start = dtype_len + 8 * rank + 16 * ndim
    del body[syn_start : syn_start + 24 * k]
    fields[1] = 1  # version
    fields[9] = zlib.crc32(bytes(body))
    return _HEADER.pack(*fields) + bytes(body)


class TestSynopsisBlock:
    """The v2 value-synopsis block and v1 backward compatibility."""

    @pytest.mark.parametrize("comps", [0, 3])
    def test_decode_synopsis_matches_values(self, rng, comps):
        chunk = make_chunk(rng, comps=comps)
        vmin, vmax, nulls, count = decode_synopsis(encode_chunk(chunk))
        evmin, evmax, enulls, ecount = ValueSynopsis.summarize_values(chunk.values)
        np.testing.assert_array_equal(vmin, evmin)
        np.testing.assert_array_equal(vmax, evmax)
        np.testing.assert_array_equal(nulls, enulls)
        assert count == ecount

    def test_decode_synopsis_with_nans(self, rng):
        coords = rng.uniform(0, 10, size=(6, 2))
        values = np.array([1.0, np.nan, 3.0, np.nan, np.nan, 2.0])
        chunk = Chunk.from_items(1, coords, values)
        vmin, vmax, nulls, count = decode_synopsis(encode_chunk(chunk))
        assert (vmin[0], vmax[0], nulls[0], count) == (1.0, 3.0, 3, 6)

    def test_decode_synopsis_int_values(self, rng):
        chunk = make_chunk(rng, dtype=np.int32)
        vmin, vmax, nulls, _ = decode_synopsis(encode_chunk(chunk))
        assert vmin[0] == chunk.values.min()
        assert vmax[0] == chunk.values.max()
        assert nulls[0] == 0

    def test_v1_chunk_still_decodes(self, rng):
        chunk = make_chunk(rng, comps=2)
        old = as_version1(encode_chunk(chunk))
        back = decode_chunk(old)
        np.testing.assert_array_equal(back.coords, chunk.coords)
        np.testing.assert_array_equal(back.values, chunk.values)

    def test_v1_synopsis_recomputed_from_values(self, rng):
        chunk = make_chunk(rng, comps=2)
        old = as_version1(encode_chunk(chunk))
        vmin, vmax, nulls, count = decode_synopsis(old)
        evmin, evmax, enulls, ecount = ValueSynopsis.summarize_values(chunk.values)
        np.testing.assert_array_equal(vmin, evmin)
        np.testing.assert_array_equal(vmax, evmax)
        np.testing.assert_array_equal(nulls, enulls)
        assert count == ecount

    def test_decode_synopsis_detects_corruption(self, rng):
        data = bytearray(encode_chunk(make_chunk(rng)))
        data[50] ^= 0xFF
        with pytest.raises(CorruptChunkError):
            decode_synopsis(bytes(data))

    def test_decode_synopsis_bad_magic(self, rng):
        data = bytearray(encode_chunk(make_chunk(rng)))
        data[0:4] = b"NOPE"
        with pytest.raises(ChunkFormatError, match="magic"):
            decode_synopsis(bytes(data))


@pytest.mark.parametrize("buffer", [bytes, bytearray, memoryview])
class TestBufferInputs:
    """The decoders read through a memoryview, so whatever buffer the
    file arrived in -- ``bytes``, ``bytearray``, ``memoryview`` --
    round-trips, and truncation and corruption raise the same errors."""

    def test_round_trip_owns_its_arrays(self, rng, buffer):
        chunk = make_chunk(rng, comps=2)
        raw = bytearray(encode_chunk(chunk))
        back = decode_chunk(buffer(raw))
        vmin, _, _, count = decode_synopsis(buffer(raw))
        raw[:] = bytes(len(raw))  # the decoded arrays must not alias the input
        np.testing.assert_array_equal(back.coords, chunk.coords)
        np.testing.assert_array_equal(back.values, chunk.values)
        np.testing.assert_array_equal(vmin, chunk.values.min(axis=0))
        assert count == chunk.n_items
        assert back.coords.flags.owndata or back.coords.base.flags.owndata

    @pytest.mark.parametrize("decode", [decode_chunk, decode_synopsis])
    @pytest.mark.parametrize("cut", [5, 60, 10_000])
    def test_truncation_is_corrupt(self, rng, buffer, decode, cut):
        data = encode_chunk(make_chunk(rng))
        with pytest.raises(CorruptChunkError):
            decode(buffer(data[: max(0, len(data) - cut)]))

    @pytest.mark.parametrize("decode", [decode_chunk, decode_synopsis])
    @pytest.mark.parametrize("pos", [44, 60, -1])
    def test_flipped_body_byte_is_corrupt(self, rng, buffer, decode, pos):
        data = bytearray(encode_chunk(make_chunk(rng)))
        data[pos] ^= 0xFF
        with pytest.raises(CorruptChunkError, match="CRC"):
            decode(buffer(data))

    @pytest.mark.parametrize("decode", [decode_chunk, decode_synopsis])
    def test_bad_magic_and_version_are_not_corrupt(self, rng, buffer, decode):
        for at, value, match in ((0, ord("N"), "magic"), (4, 99, "version")):
            data = bytearray(encode_chunk(make_chunk(rng)))
            data[at] = value
            with pytest.raises(ChunkFormatError, match=match) as excinfo:
                decode(buffer(data))
            assert not isinstance(excinfo.value, CorruptChunkError)

    def test_inflated_header_lengths_are_corrupt(self, rng, buffer):
        """A header claiming more payload than the (CRC-intact) body
        holds fails the length check, not a frombuffer error."""
        from repro.store.format import _HEADER

        data = encode_chunk(make_chunk(rng))
        fields = list(_HEADER.unpack_from(data))
        fields[5] += 8  # coords payload length
        with pytest.raises(CorruptChunkError, match="does not match"):
            decode_chunk(buffer(_HEADER.pack(*fields) + data[_HEADER.size :]))


def parent_decode_chunk(data: bytes) -> Chunk:
    """The decoder as it was before the header parser was shared: every
    fact re-checked by ``Chunk.__post_init__``.  The oracle the faster
    decoder is held to on well-formed files."""
    import struct
    import zlib
    from math import prod

    from repro.dataset.chunk import ChunkMeta
    from repro.util.geometry import Rect

    header = struct.Struct("<4sHHqqIIIII")
    (_, version, ndim, chunk_id, n_items, coords_len, values_len, dtype_len, rank,
     _) = header.unpack_from(data)
    body = memoryview(data)[header.size :]
    assert zlib.crc32(body) == header.unpack_from(data)[-1]
    pos = 0
    dtype = np.dtype(str(body[pos : pos + dtype_len], "ascii"))
    pos += dtype_len
    trailing = tuple(np.frombuffer(body, dtype="<i8", count=rank, offset=pos).tolist())
    pos += 8 * rank
    k = prod(trailing) if trailing else 1
    synopsis_len = 24 * k if version >= 2 else 0
    lo = np.frombuffer(body, dtype="<f8", count=ndim, offset=pos)
    pos += 8 * ndim
    hi = np.frombuffer(body, dtype="<f8", count=ndim, offset=pos)
    pos += 8 * ndim
    pos += synopsis_len
    coords = np.frombuffer(body, dtype="<f8", count=n_items * ndim, offset=pos)
    coords = coords.reshape(n_items, ndim).copy()
    pos += coords_len
    n_values = values_len // dtype.itemsize if dtype.itemsize else 0
    values = np.frombuffer(body, dtype=dtype, count=n_values, offset=pos)
    values = values.reshape((n_items,) + trailing).copy()
    meta = ChunkMeta(
        chunk_id=chunk_id,
        mbr=Rect(tuple(lo), tuple(hi)),
        nbytes=coords_len + values_len,
        n_items=n_items,
    )
    return Chunk(meta, coords, values)


def assert_same_chunk(got: Chunk, want: Chunk, ignore_id: bool = False) -> None:
    """Field for field: meta, and for each payload array its values,
    dtype, shape, contiguity, ownership and writeability."""
    for name in ("mbr", "nbytes", "n_items", "node", "disk") + (() if ignore_id else ("chunk_id",)):
        assert getattr(got.meta, name) == getattr(want.meta, name), name
    for name in ("coords", "values"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        np.testing.assert_array_equal(a, b)
        for flag in ("C_CONTIGUOUS", "OWNDATA", "WRITEABLE"):
            assert a.flags[flag] == b.flags[flag], (name, flag)


def any_chunk(seed, n_items, ndim, dtype, trailing):
    """A chunk of *n_items* items (none at all included) with values of
    *dtype* and per-item shape *trailing*."""
    from repro.dataset.chunk import ChunkMeta
    from repro.util.geometry import Rect

    rng = np.random.default_rng(seed)
    coords = rng.uniform(-50, 50, size=(n_items, ndim))
    shape = (n_items,) + trailing
    if np.dtype(dtype).kind == "i":
        values = rng.integers(-1000, 1000, size=shape).astype(dtype)
    else:
        values = rng.normal(size=shape).astype(dtype)
    if n_items:
        return Chunk.from_items(int(seed) % 1000, coords, values)
    mbr = Rect(tuple(rng.uniform(-50, 0, ndim)), tuple(rng.uniform(0, 50, ndim)))
    return Chunk(ChunkMeta(3, mbr, values.nbytes, 0), coords, values)


class TestDecodeOracle:
    """The decoder builds its chunk without re-running the ``Chunk``
    checks; on every well-formed file it must equal the decoder that
    did."""

    @given(
        st.integers(0, 2**31),
        st.integers(0, 300),
        st.integers(1, 3),
        st.sampled_from(["<f8", "<f4", "<i8", "<i4"]),
        st.sampled_from([(), (1,), (3,), (2, 2), (1, 3)]),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_parent_decoder(self, seed, n_items, ndim, dtype, trailing, v1):
        data = encode_chunk(any_chunk(seed, n_items, ndim, dtype, trailing))
        if v1:
            data = as_version1(data)
        assert_same_chunk(decode_chunk(data), parent_decode_chunk(data))


#: Header fields by byte range, as ``_HEADER`` packs them.
HEADER_FIELDS = {
    "magic": (0, 4), "version": (4, 6), "ndim": (6, 8), "chunk_id": (8, 16),
    "n_items": (16, 24), "coords_len": (24, 28), "values_len": (28, 32),
    "dtype_len": (32, 36), "rank": (36, 40), "crc": (40, 44),
}


class TestHeaderDamage:
    """The CRC covers the body only.  A flipped header bit must still
    surface as an error a degraded query or a retry can handle -- or,
    in ``chunk_id``, change nothing else (the store's id check catches
    that one)."""

    @pytest.mark.parametrize("n_items,trailing,dtype", [
        (10, (), "<f8"), (7, (3,), "<i4"), (0, (2,), "<f4"), (5, (2, 2), "<i8"),
    ])
    @pytest.mark.parametrize("field", sorted(HEADER_FIELDS))
    def test_every_flipped_header_bit_is_recoverable(self, field, n_items, trailing, dtype):
        from repro.store.chunk_store import RECOVERABLE_READ_ERRORS

        chunk = any_chunk(11, n_items, 2, dtype, trailing)
        data = encode_chunk(chunk)
        want = decode_synopsis(data)
        start, stop = HEADER_FIELDS[field]
        for bit in range(8 * start, 8 * stop):
            damaged = bytearray(data)
            damaged[bit // 8] ^= 1 << (bit % 8)
            try:
                back = decode_chunk(bytes(damaged))
            except RECOVERABLE_READ_ERRORS:
                pass
            else:
                assert field == "chunk_id" and back.chunk_id != chunk.chunk_id, bit
                assert_same_chunk(back, decode_chunk(data), ignore_id=True)
            try:
                got = decode_synopsis(bytes(damaged))
            except RECOVERABLE_READ_ERRORS:
                continue
            assert field == "chunk_id", bit
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)

    def test_payload_outside_its_mbr_is_corrupt(self, rng):
        """A CRC-intact file whose coords escape its MBR was written
        wrong: damage, not a ValueError."""
        chunk = make_chunk(rng)
        bad = Chunk.trusted(chunk.meta, chunk.coords + 1000.0, chunk.values)
        with pytest.raises(CorruptChunkError, match="escape"):
            decode_chunk(encode_chunk(bad))
