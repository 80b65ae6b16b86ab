"""Binary on-disk chunk format.

Layout (little-endian):

========  =====  ==============================================
offset    size   field
========  =====  ==============================================
0         4      magic ``b"ADRC"``
4         2      format version (currently 2)
6         2      ndim
8         8      chunk id
16        8      n_items
24        4      coords payload length (bytes)
28        4      values payload length (bytes)
32        4      values dtype string length ``L``
36        4      values trailing-shape rank ``R``
40        4      CRC32 of everything after the header
44        L      values dtype string (ASCII, e.g. ``"<f8"``)
44+L      8*R    values trailing shape (int64 each)
...       16*d   MBR (lo array then hi array, float64)
...       24*k   value synopsis, v2 only (see below)
...       var    coords payload (float64, C order)
...       var    values payload (C order)
========  =====  ==============================================

Version 2 inserts a fixed-size **value synopsis** block between the
MBR and the coords payload, where ``k = prod(trailing shape)`` (1 for
scalar values): per-component min (``k`` float64), max (``k``
float64), then NaN counts (``k`` int64).  The block lets
:func:`decode_synopsis` recover pruning summaries from the header
region without materializing the payload arrays.  Version 1 files
(no block) still decode; their synopses are recomputed from values.

The format is deliberately self-describing: a chunk file can be read
back without the dataset manifest, and the CRC turns silent bit-rot
into a loud :class:`CorruptChunkError` -- the property the round-trip
and corruption tests pin down.  The CRC covers the body, not the
header; a damaged header field is caught by holding the fields against
each other and against the body length (:func:`_parse`), and raises
the same error.
"""

from __future__ import annotations

import struct
import zlib
from math import prod
from typing import Dict, Iterator, List, Sequence

import numpy as np

from repro.dataset.chunk import Chunk, ChunkMeta
from repro.dataset.synopsis import ValueSynopsis, _summarize
from repro.util.geometry import Rect

__all__ = [
    "encode_chunk",
    "encode_chunks",
    "decode_chunk",
    "decode_synopsis",
    "ChunkFormatError",
    "CorruptChunkError",
    "MAGIC",
    "VERSION",
]

MAGIC = b"ADRC"
VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)
_HEADER = struct.Struct("<4sHHqqIIIII")  # 44 bytes


class ChunkFormatError(Exception):
    """Raised when a chunk file is malformed or corrupt."""


class CorruptChunkError(ChunkFormatError):
    """A chunk that *exists* but whose payload failed integrity checks
    (CRC mismatch or truncation).

    Distinguishes damage from absence: a chunk id unknown to the store
    raises ``KeyError``; a present-but-rotten payload raises this.
    Degraded execution (``on_error='degrade'``) and retry policies key
    off the distinction -- a corrupt read can be retried or skipped
    with accounting, a missing chunk is a catalog error.
    """


def encode_chunk(chunk: Chunk) -> bytes:
    """Serialize a chunk (payload + MBR + value synopsis) to bytes."""
    return next(encode_chunks([chunk]))


def encode_chunks(chunks: Sequence[Chunk]) -> Iterator[bytes]:
    """Serialize *chunks*, in order, after one value-synopsis pass per
    value component count among them (one pass when they agree: mixed
    counts cannot share one).  The synopses are computed now; each
    chunk's bytes are built only as the iterator reaches it, so a bulk
    writer holds one encoded chunk at a time.  The bytes are exactly
    :func:`encode_chunk`'s."""
    by_k: Dict[int, List[int]] = {}
    for i, chunk in enumerate(chunks):
        by_k.setdefault(prod(chunk.values.shape[1:]), []).append(i)
    rows: List[tuple] = [()] * len(chunks)
    for members in by_k.values():
        vmin, vmax, nulls, _ = _summarize([chunks[i].values for i in members])
        for j, i in enumerate(members):
            rows[i] = (vmin[j], vmax[j], nulls[j])
    return (_encode(chunk, *row) for chunk, row in zip(chunks, rows))


def _encode(chunk: Chunk, vmin, vmax, nulls) -> bytes:
    coords = np.ascontiguousarray(chunk.coords, dtype="<f8")
    values = np.ascontiguousarray(chunk.values)
    dtype_str = values.dtype.str.encode("ascii")
    trailing = values.shape[1:]
    lo, hi = chunk.meta.mbr.as_arrays()
    body = b"".join((
        dtype_str,
        np.array(trailing, dtype="<i8").tobytes(),
        np.concatenate((lo, hi, vmin, vmax)).astype("<f8", copy=False).tobytes(),
        np.asarray(nulls, dtype="<i8").tobytes(),
        coords.tobytes(),
        values.tobytes(),
    ))
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        coords.shape[1],
        chunk.meta.chunk_id,
        len(coords),
        coords.nbytes,
        values.nbytes,
        len(dtype_str),
        len(trailing),
        zlib.crc32(body),
    )
    return header + body


def _parse(data) -> tuple:
    """Check every fact the header and the body lengths state, once, for
    both decoders.

    The CRC covers the body only, so each header field is held against
    the others and against the body: the dtype string must parse, the
    payload lengths must be what ``n_items``, ``ndim`` and the values
    shape make them, and the body must be exactly as long as the header
    says.  Returns ``(body, version, ndim, chunk_id, n_items, dtype,
    trailing, k, mbr_at)``: ``k`` value components, the MBR at
    ``body[mbr_at:]``.  Raises :class:`ChunkFormatError` on a bad magic
    or version (never a chunk of this format) and
    :class:`CorruptChunkError` on anything else (damage, in the body or
    in the header).
    """
    if len(data) < _HEADER.size:
        raise CorruptChunkError(f"file too short for header ({len(data)} bytes)")
    magic, version, ndim, chunk_id, n_items, coords_len, values_len, dtype_len, rank, crc = (
        _HEADER.unpack_from(data)
    )
    if magic != MAGIC:
        raise ChunkFormatError(f"bad magic {magic!r}")
    if version not in _SUPPORTED_VERSIONS:
        raise ChunkFormatError(f"unsupported format version {version}")
    # A view, not a slice: ``data[44:]`` on bytes would copy the file.
    body = memoryview(data)[_HEADER.size :]
    # CRC first: the v2 synopsis size depends on the trailing shape,
    # which lives in the body, so the body must be proven intact before
    # any of it is trusted for length arithmetic.
    if zlib.crc32(body) != crc:
        raise CorruptChunkError("CRC mismatch: chunk file is corrupt")
    if chunk_id < 0 or n_items < 0:
        raise CorruptChunkError(f"negative chunk id {chunk_id} or item count {n_items}")
    mbr_at = dtype_len + 8 * rank
    if len(body) < mbr_at:
        raise CorruptChunkError(f"body length {len(body)} too short for dtype + shape")
    try:
        dtype = np.dtype(str(body[:dtype_len], "ascii"))
    except (TypeError, ValueError) as e:  # UnicodeDecodeError is a ValueError
        raise CorruptChunkError(f"values dtype does not parse: {e}") from None
    if dtype.hasobject or not dtype.itemsize:
        raise CorruptChunkError(f"values dtype {dtype} cannot be read from bytes")
    trailing = tuple(np.frombuffer(body, "<i8", count=rank, offset=dtype_len).tolist())
    if min(trailing, default=0) < 0:
        raise CorruptChunkError(f"negative values shape {trailing}")
    k = prod(trailing)
    if coords_len != 8 * n_items * ndim:
        raise CorruptChunkError(
            f"coords length {coords_len} does not match {n_items} items in {ndim} dims"
        )
    if values_len != dtype.itemsize * n_items * k:
        raise CorruptChunkError(
            f"values length {values_len} does not match {n_items} items "
            f"of shape {trailing} {dtype}"
        )
    synopsis_len = 24 * k if version >= 2 else 0
    expected = mbr_at + 16 * ndim + synopsis_len + coords_len + values_len
    if len(body) != expected:
        raise CorruptChunkError(f"body length {len(body)} does not match header ({expected})")
    return body, version, ndim, chunk_id, n_items, dtype, trailing, k, mbr_at


def decode_chunk(data: bytes) -> Chunk:
    """Parse bytes produced by :func:`encode_chunk` back into a Chunk.

    Every shape fact is proven by :func:`_parse`, so the chunk is built
    without :class:`Chunk`'s own checks; what is left to check on the
    data is that the MBR is a box and the coords lie inside it.  The
    payload arrays are copies: owning, C-contiguous and writeable.
    Raises as :func:`_parse` does, and :class:`CorruptChunkError` on an
    MBR that is not a box or a payload that escapes it.
    """
    body, version, ndim, chunk_id, n_items, dtype, trailing, k, pos = _parse(data)
    bounds = np.frombuffer(body, "<f8", count=2 * ndim, offset=pos)
    lo, hi = bounds[:ndim], bounds[ndim:]
    pos += 16 * ndim
    if version >= 2:
        pos += 24 * k  # pruning summaries; payload decode skips them
    coords = np.frombuffer(body, "<f8", count=n_items * ndim, offset=pos)
    coords = coords.reshape(n_items, ndim).copy()
    pos += coords.nbytes
    values = np.frombuffer(body, dtype, count=n_items * k, offset=pos)
    values = values.reshape((n_items,) + trailing).copy()
    try:
        mbr = Rect(lo.tolist(), hi.tolist())
    except ValueError as e:
        raise CorruptChunkError(f"bad MBR: {e}") from None
    if n_items and ((coords < lo - 1e-9).any() or (coords > hi + 1e-9).any()):
        raise CorruptChunkError("payload coordinates escape the chunk MBR")
    meta = ChunkMeta(chunk_id, mbr, coords.nbytes + values.nbytes, n_items)
    return Chunk.trusted(meta, coords, values)


def decode_synopsis(data: bytes) -> tuple:
    """Extract ``(vmin, vmax, nulls, count)`` from an encoded chunk.

    For version-2 files this reads only the header region (dtype,
    shape, MBR, synopsis block) after :func:`_parse` has checked the
    CRC and every length; version-1 files carry no block, so their
    values are decoded and summarized.  Either way the result is
    identical to ``ValueSynopsis.summarize_values(chunk.values)`` on
    the decoded chunk.
    """
    body, version, ndim, _cid, n_items, _dtype, _trailing, k, pos = _parse(data)
    if version < 2:
        return ValueSynopsis.summarize_values(decode_chunk(data).values)
    pos += 16 * ndim
    extremes = np.frombuffer(body, "<f8", count=2 * k, offset=pos)
    nulls = np.frombuffer(body, "<i8", count=k, offset=pos + 16 * k).copy()
    return extremes[:k].copy(), extremes[k:].copy(), nulls, int(n_items)
