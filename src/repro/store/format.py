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
and corruption tests pin down.
"""

from __future__ import annotations

import struct
import zlib
from math import prod

import numpy as np

from repro.dataset.chunk import Chunk, ChunkMeta
from repro.dataset.synopsis import ValueSynopsis
from repro.util.geometry import Rect

__all__ = [
    "encode_chunk",
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
    coords = np.ascontiguousarray(chunk.coords, dtype="<f8")
    values = np.ascontiguousarray(chunk.values)
    dtype_str = values.dtype.str.encode("ascii")
    trailing = values.shape[1:]
    lo, hi = chunk.meta.mbr.as_arrays()
    vmin, vmax, nulls, _count = ValueSynopsis.summarize_values(values)
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
    crc = zlib.crc32(body)
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
        crc,
    )
    return header + body  # bytes: the one copy of the body


def decode_chunk(data: bytes) -> Chunk:
    """Parse bytes produced by :func:`encode_chunk` back into a Chunk.

    Raises
    ------
    ChunkFormatError
        On a bad magic number or unsupported version (a file that was
        never a chunk of this format).
    CorruptChunkError
        On truncation or CRC mismatch (a chunk file that was valid
        once and has since been damaged).
    """
    if len(data) < _HEADER.size:
        raise CorruptChunkError(f"file too short for header ({len(data)} bytes)")
    (
        magic,
        version,
        ndim,
        chunk_id,
        n_items,
        coords_len,
        values_len,
        dtype_len,
        rank,
        crc,
    ) = _HEADER.unpack_from(data)
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
    if len(body) < dtype_len + 8 * rank:
        raise CorruptChunkError(
            f"body length {len(body)} too short for dtype + shape region"
        )
    pos = 0
    dtype = np.dtype(str(body[pos : pos + dtype_len], "ascii"))
    pos += dtype_len
    trailing = tuple(
        np.frombuffer(body, dtype="<i8", count=rank, offset=pos).tolist()
    )
    pos += 8 * rank
    k = prod(trailing) if trailing else 1
    synopsis_len = 24 * k if version >= 2 else 0
    expected = dtype_len + 8 * rank + 16 * ndim + synopsis_len + coords_len + values_len
    if len(body) != expected:
        raise CorruptChunkError(
            f"body length {len(body)} does not match header ({expected})"
        )
    lo = np.frombuffer(body, dtype="<f8", count=ndim, offset=pos)
    pos += 8 * ndim
    hi = np.frombuffer(body, dtype="<f8", count=ndim, offset=pos)
    pos += 8 * ndim
    pos += synopsis_len  # pruning summaries; payload decode skips them
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


def decode_synopsis(data: bytes) -> tuple:
    """Extract ``(vmin, vmax, nulls, count)`` from an encoded chunk.

    For version-2 files this reads only the header region (dtype,
    shape, MBR, synopsis block) after verifying the CRC; version-1
    files carry no block, so their values are decoded and summarized.
    Either way the result is identical to
    ``ValueSynopsis.summarize_values(chunk.values)`` on the decoded
    chunk.
    """
    if len(data) < _HEADER.size:
        raise CorruptChunkError(f"file too short for header ({len(data)} bytes)")
    magic, version, _ndim, _cid, n_items, _clen, _vlen, dtype_len, rank, crc = (
        _HEADER.unpack_from(data)
    )
    if magic != MAGIC:
        raise ChunkFormatError(f"bad magic {magic!r}")
    if version not in _SUPPORTED_VERSIONS:
        raise ChunkFormatError(f"unsupported format version {version}")
    if version < 2:
        chunk = decode_chunk(data)
        return ValueSynopsis.summarize_values(chunk.values)
    body = memoryview(data)[_HEADER.size :]
    if zlib.crc32(body) != crc:
        raise CorruptChunkError("CRC mismatch: chunk file is corrupt")
    ndim = _HEADER.unpack_from(data)[2]
    pos = dtype_len
    trailing = tuple(
        np.frombuffer(body, dtype="<i8", count=rank, offset=pos).tolist()
    )
    pos += 8 * rank + 16 * ndim
    k = prod(trailing) if trailing else 1
    if len(body) < pos + 24 * k:
        raise CorruptChunkError("body too short for synopsis block")
    vmin = np.frombuffer(body, dtype="<f8", count=k, offset=pos).copy()
    pos += 8 * k
    vmax = np.frombuffer(body, dtype="<f8", count=k, offset=pos).copy()
    pos += 8 * k
    nulls = np.frombuffer(body, dtype="<i8", count=k, offset=pos).copy()
    return vmin, vmax, nulls, int(n_items)
