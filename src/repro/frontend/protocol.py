"""Client wire protocol: JSON-safe query and result encoding.

The paper's front end "interacts with client applications and relays
the range queries to the back-end"; sequential clients connect through
a socket interface.  This module is that interface's message format:
queries and results round-trip through plain JSON-compatible
dictionaries, so a client process needs nothing but ``json`` and this
schema to drive an ADR service.  Accumulator values are the exception
to printed text: each block travels as the base64 of its raw
little-endian ``float64`` buffer (protocol version 2).

Only declarative customizations travel over the wire -- the built-in
aggregations by name and :class:`~repro.space.mapping.GridMapping`
projections by parameters.  Arbitrary user functions (the C++ ADR's
linked-in customization) are inherently not serializable; clients
needing them register them server-side and reference them by name.
"""

from __future__ import annotations

import base64
import json
import math
import struct
from dataclasses import MISSING, fields
from typing import Any, BinaryIO, Dict, Optional

import numpy as np

from repro.aggregation.functions import AGGREGATIONS, AggregationSpec
from repro.aggregation.output_grid import OutputGrid
from repro.dataset.predicate import ValuePredicate
from repro.frontend.query import RangeQuery
from repro.planner.select import AUTO
from repro.runtime.engine import QueryResult
from repro.space.attribute_space import AttributeSpace
from repro.space.mapping import GridMapping
from repro.util.geometry import Rect

__all__ = [
    "query_to_dict",
    "query_from_dict",
    "result_to_dict",
    "result_from_dict",
    "error_to_dict",
    "ProtocolError",
    "DeadlineExceededError",
    "ERROR_CODES",
    "MAX_FRAME_BYTES",
    "write_frame",
    "read_frame",
]

PROTOCOL_VERSION = 2

#: Machine-distinguishable failure classes on the wire.  ``bad_request``:
#: the message or query is malformed / names unknown entities (do not
#: retry unchanged); ``overloaded``: admission control rejected the
#: query, the service is saturated (retry with back-off, honoring the
#: ``details.retry_after_s`` hint when present); ``shard_unavailable``:
#: the serving process is draining or a shard router found the shard
#: dead (retry elsewhere / degrade); ``deadline_exceeded``: the caller's
#: deadline expired before a response arrived; ``internal``: anything
#: else server-side.
ERROR_CODES = (
    "bad_request", "overloaded", "internal", "shard_unavailable",
    "deadline_exceeded",
)


class ProtocolError(ValueError):
    """Malformed or unsupported protocol message."""


class DeadlineExceededError(TimeoutError):
    """A per-request deadline expired before the response arrived.

    Subclasses ``TimeoutError`` (hence ``OSError``): retry policies
    treat an expired request like any transient I/O failure, and shard
    routers bound every retry loop with the remaining global deadline.
    """


# -- framing ----------------------------------------------------------
#
# Requests and responses travel as length-prefixed frames: a 4-byte
# big-endian payload length followed by that many bytes of UTF-8 JSON.
# Framing makes torn connections *loud* -- a short read is a
# ProtocolError naming the missing bytes, never a hang or a bare
# struct.error.  Frames are the only dialect: bytes that are not a
# frame read as an oversized declared length.

_FRAME_HEADER = struct.Struct(">I")

#: Upper bound on one frame's declared payload length.  A header
#: announcing more than this is corrupt (or hostile) and must fail
#: loudly before anything tries to allocate or await the bytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024


def write_frame(wfile: BinaryIO, message: Dict[str, Any]) -> None:
    """Encode *message* and write one length-prefixed frame."""
    data = json.dumps(message).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {len(data)} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    wfile.write(_FRAME_HEADER.pack(len(data)) + data)
    wfile.flush()


def read_frame(rfile: BinaryIO) -> Optional[Dict[str, Any]]:
    """Read one length-prefixed frame; ``None`` on clean EOF.

    Raises :class:`ProtocolError` on a truncated header, an oversized
    declared length, a torn payload, or a payload that is not valid
    JSON.
    """
    header = rfile.read(_FRAME_HEADER.size)
    if not header:
        return None
    if len(header) < _FRAME_HEADER.size:
        raise ProtocolError(
            f"truncated frame header: got {len(header)} of "
            f"{_FRAME_HEADER.size} bytes"
        )
    (length,) = _FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"declared frame length {length} exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES}); stream is corrupt"
        )
    payload = rfile.read(length)
    if len(payload) < length:
        raise ProtocolError(
            f"torn frame: got {len(payload)} of {length} payload bytes"
        )
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as e:
        raise ProtocolError(f"bad frame payload: {e}") from e


def error_to_dict(
    code: str, error: Any, details: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Encode a failure response: ``{"ok": false, "code": ..., "error": ...}``.

    ``code`` is one of :data:`ERROR_CODES`; the free-text ``error``
    field is kept for back-compat with pre-code clients (exceptions
    render as ``"TypeName: message"``, matching the old format).
    *details* adds a machine-readable ``"details"`` object (e.g. the
    overload responses' ``queue_depth`` / ``retry_after_s`` back-off
    hint); when omitted, an exception's own ``wire_details`` attribute
    (if any) is used.
    """
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}; expected one of {ERROR_CODES}")
    text = (
        f"{type(error).__name__}: {error}"
        if isinstance(error, BaseException)
        else str(error)
    )
    payload: Dict[str, Any] = {"ok": False, "code": code, "error": text}
    if details is None:
        details = getattr(error, "wire_details", None)
    if details:
        payload["details"] = {str(k): v for k, v in details.items()}
    return payload


# -- pieces -----------------------------------------------------------


def _space_to_dict(space: AttributeSpace) -> Dict[str, Any]:
    return {
        "name": space.name,
        "dims": [[d.name, d.lo, d.hi] for d in space.dims],
    }


def _space_from_dict(d: Dict[str, Any]) -> AttributeSpace:
    try:
        names, los, his = zip(*((n, lo, hi) for n, lo, hi in d["dims"]))
        return AttributeSpace.regular(d["name"], names, los, his)
    except (KeyError, TypeError, ValueError) as e:
        raise ProtocolError(f"bad attribute space payload: {e}") from e


def _rect_to_dict(rect: Rect) -> Dict[str, Any]:
    return {"lo": list(rect.lo), "hi": list(rect.hi)}


def _rect_from_dict(d: Dict[str, Any]) -> Rect:
    try:
        return Rect(tuple(d["lo"]), tuple(d["hi"]))
    except (KeyError, TypeError, ValueError) as e:
        raise ProtocolError(f"bad rectangle payload: {e}") from e


def _mapping_to_dict(mapping: GridMapping) -> Dict[str, Any]:
    if not isinstance(mapping, GridMapping):
        raise ProtocolError(
            f"only GridMapping travels over the wire, got {type(mapping).__name__}; "
            "register custom mappings server-side"
        )
    return {
        "type": "grid",
        "input_space": _space_to_dict(mapping.input_space),
        "output_space": _space_to_dict(mapping.output_space),
        "grid_shape": list(mapping.grid_shape),
        "dim_select": list(mapping.dim_select),
        "footprint": list(mapping.footprint),
    }


def _mapping_from_dict(d: Dict[str, Any]) -> GridMapping:
    if d.get("type") != "grid":
        raise ProtocolError(f"unsupported mapping type {d.get('type')!r}")
    return GridMapping(
        _space_from_dict(d["input_space"]),
        _space_from_dict(d["output_space"]),
        tuple(d["grid_shape"]),
        dim_select=tuple(d["dim_select"]),
        footprint=tuple(d["footprint"]),
    )


def _grid_to_dict(grid: OutputGrid) -> Dict[str, Any]:
    return {
        "space": _space_to_dict(grid.space),
        "grid_shape": list(grid.grid_shape),
        "chunk_shape": list(grid.chunk_shape),
        "cell_value_bytes": grid.cell_value_bytes,
    }


def _grid_from_dict(d: Dict[str, Any]) -> OutputGrid:
    try:
        return OutputGrid(
            _space_from_dict(d["space"]),
            tuple(d["grid_shape"]),
            tuple(d["chunk_shape"]),
            cell_value_bytes=int(d["cell_value_bytes"]),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ProtocolError(f"bad output grid payload: {e}") from e


# -- queries --------------------------------------------------------------


def query_to_dict(query: RangeQuery) -> Dict[str, Any]:
    """Encode a query as a JSON-compatible dictionary."""
    if isinstance(query.aggregation, AggregationSpec):
        agg_name = None
        for name, cls in AGGREGATIONS.items():
            if type(query.aggregation) is cls:
                agg_name = name
                break
        if agg_name is None:
            raise ProtocolError(
                "custom aggregation specs are not wire-serializable; "
                "use a built-in name"
            )
    else:
        agg_name = query.aggregation
    if agg_name not in AGGREGATIONS:
        raise ProtocolError(f"unknown aggregation {agg_name!r}")
    payload: Dict[str, Any] = {
        "version": PROTOCOL_VERSION,
        "dataset": query.dataset,
        "region": _rect_to_dict(query.region),
        "mapping": _mapping_to_dict(query.mapping),
        "grid": _grid_to_dict(query.grid),
        "aggregation": agg_name,
        "strategy": query.strategy,
        # The spec instance is authoritative when present: a query
        # built with ``aggregation=MinAggregation(2)`` leaves the
        # ``value_components`` *field* at its default, and encoding
        # the field would silently rebuild a 1-component spec remotely.
        "value_components": (
            query.aggregation.value_components
            if isinstance(query.aggregation, AggregationSpec)
            else query.value_components
        ),
    }
    # Emitted only when non-default, so default-path payloads are
    # byte-identical to pre-robustness servers.
    if query.on_error != "raise":
        payload["on_error"] = query.on_error
    predicate = query.predicate()
    if predicate is not None:
        payload["where"] = predicate.to_payload()
    return payload


def _where_from_payload(value: Any) -> Any:
    if value is None:
        return None
    try:
        return ValuePredicate.from_payload(value)
    except (KeyError, TypeError, ValueError) as e:
        raise ProtocolError(f"bad where payload: {e}") from e


def _check_version(payload: Any) -> None:
    if not isinstance(payload, dict):
        raise ProtocolError(f"payload is a JSON {type(payload).__name__}, not an object")
    if payload.get("version") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version {payload.get('version')!r} not supported"
        )


def query_from_dict(payload: Dict[str, Any]) -> RangeQuery:
    """Decode a query dictionary (validates the schema).  Keys this
    version does not read -- such as the read-ahead setting older
    clients sent -- are ignored."""
    _check_version(payload)
    for key in ("dataset", "region", "mapping", "grid", "aggregation"):
        if key not in payload:
            raise ProtocolError(f"query payload missing {key!r}")
    return RangeQuery(
        dataset=payload["dataset"],
        region=_rect_from_dict(payload["region"]),
        mapping=_mapping_from_dict(payload["mapping"]),
        grid=_grid_from_dict(payload["grid"]),
        aggregation=payload["aggregation"],
        strategy=payload.get("strategy", AUTO),
        value_components=int(payload.get("value_components", 1)),
        on_error=payload.get("on_error", "raise"),
        where=_where_from_payload(payload.get("where")),
    )


# -- results ------------------------------------------------------------------


def _encode_block(block: np.ndarray) -> Dict[str, Any]:
    """One accumulator block as its shape and the base64 of its C-order
    little-endian ``float64`` buffer, so every value -- NaN payloads,
    ``-0.0``, infinities, subnormals -- crosses bit for bit."""
    values = np.asarray(block, dtype="<f8")
    return {"shape": list(values.shape),
            "data": base64.b64encode(values.tobytes()).decode("ascii")}


def _decode_block(record: Any) -> np.ndarray:
    """Inverse of :func:`_encode_block`: a writeable ``float64`` array of
    shape ``(n, k)`` (or ``(0,)``).  A record that is not an object, a
    shape that is not non-negative ints, data that is not strict base64
    or not exactly ``8 * n * k`` bytes raise the ``KeyError`` /
    ``TypeError`` / ``ValueError`` :func:`result_from_dict` turns into
    :class:`ProtocolError`."""
    shape, data = record["shape"], record["data"]
    if type(shape) is not list or not (len(shape) == 2 or shape == [0]) or not all(
        type(d) is int and d >= 0 for d in shape
    ):
        raise ValueError(f"chunk_values block of shape {shape!r}")
    raw = base64.b64decode(data, validate=True)
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"{len(raw)} bytes for a chunk_values block of shape {shape}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def _str_keys(convert):
    """A dict codec converting keys to ``str`` and values by *convert*."""
    return lambda d: {str(k): convert(v) for k, v in d.items()}


def _int_keys(convert):
    return lambda d: {int(k): convert(v) for k, v in d.items()}


#: The result's wire fields, in payload order: ``(name, encode,
#: decode)``.  A field without a dataclass default always travels; one
#: with a default travels only when it differs from it, so a clean,
#: unpruned, unshared, fixed-strategy result carries the counters alone.
_RESULT_WIRE = (
    ("strategy", lambda v: v, lambda v: v),
    ("output_ids", lambda v: np.asarray(v, dtype=np.int64).tolist(),
     lambda v: np.asarray(v, dtype=np.int64)),
    ("chunk_values", lambda vs: [_encode_block(v) for v in vs],
     lambda vs: [_decode_block(v) for v in vs]),
    *((name, int, int) for name in (
        "n_tiles", "n_reads", "bytes_read", "n_combines", "n_aggregations",
    )),
    ("phase_times", _str_keys(float), _str_keys(float)),
    ("cache_stats", _str_keys(int), _str_keys(int)),
    *((name, int, int) for name in (
        "chunks_pruned", "bytes_pruned", "shared_reads", "shared_bytes",
    )),
    ("chunk_errors", _str_keys(str), _int_keys(str)),
    ("completeness", float, float),
    ("shard_errors", _str_keys(str), _int_keys(str)),
    ("selected_strategy", str, str),
    ("strategy_ranking", _str_keys(float), _str_keys(float)),
)

#: Field name -> dataclass default; required fields are absent.
_DEFAULTS = {
    f.name: f.default if f.default is not MISSING else f.default_factory()
    for f in fields(QueryResult)
    if f.default is not MISSING or f.default_factory is not MISSING
}


def result_to_dict(result: QueryResult) -> Dict[str, Any]:
    """Encode a result; ``chunk_values`` blocks as raw ``float64`` records."""
    payload: Dict[str, Any] = {"version": PROTOCOL_VERSION}
    for name, encode, _ in _RESULT_WIRE:
        value = getattr(result, name)
        if name not in _DEFAULTS or value != _DEFAULTS[name]:
            payload[name] = encode(value)
    return payload


def result_from_dict(payload: Dict[str, Any]) -> QueryResult:
    _check_version(payload)
    try:
        return QueryResult(**{
            name: decode(payload[name])
            for name, _, decode in _RESULT_WIRE
            if name in payload or name not in _DEFAULTS
        })
    except (KeyError, TypeError, ValueError) as e:
        raise ProtocolError(f"bad result payload: {e}") from e
