"""Tests for the client wire protocol."""

import base64
import json
import math
import re
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.functions import SumAggregation
from repro.aggregation.output_grid import OutputGrid
from repro.dataset.partition import hilbert_partition
from repro.frontend.adr import ADR
from repro.frontend.protocol import (
    _RESULT_WIRE,
    NotAnObjectError,
    ProtocolError,
    query_from_dict,
    query_to_dict,
    result_from_dict,
    result_to_dict,
)
from repro.frontend.query import RangeQuery
from repro.machine.config import MachineConfig
from repro.space.attribute_space import AttributeSpace
from repro.space.mapping import GridMapping, IdentityMapping
from repro.util.geometry import Rect
from repro.util.units import MB


def make_query():
    in_space = AttributeSpace.regular("s", ("x", "y", "t"), (0, 0, 0), (10, 10, 5))
    out_space = AttributeSpace.regular("o", ("u", "v"), (0, 0), (1, 1))
    grid = OutputGrid(out_space, (8, 8), (4, 4), cell_value_bytes=16)
    mapping = GridMapping(in_space, out_space, (8, 8), dim_select=(0, 1),
                          footprint=(0.01, 0.02))
    return RangeQuery("sensors", Rect((1, 2, 0), (9, 8, 5)), mapping, grid,
                      aggregation="mean", strategy="SRA", value_components=3)


class TestQueryRoundTrip:
    def test_json_roundtrip_preserves_everything(self):
        q = make_query()
        payload = json.loads(json.dumps(query_to_dict(q)))
        back = query_from_dict(payload)
        assert back.dataset == q.dataset
        assert back.region == q.region
        assert back.strategy == "SRA"
        assert back.aggregation == "mean"
        assert back.value_components == 3
        assert back.grid.grid_shape == q.grid.grid_shape
        assert back.grid.chunk_shape == q.grid.chunk_shape
        assert back.grid.cell_value_bytes == 16
        assert back.mapping.dim_select == q.mapping.dim_select
        assert back.mapping.footprint == q.mapping.footprint
        assert back.mapping.input_space == q.mapping.input_space

    def test_spec_instance_encoded_by_name(self):
        q = make_query()
        q.aggregation = SumAggregation(3)
        payload = query_to_dict(q)
        assert payload["aggregation"] == "sum"

    def test_custom_spec_rejected(self):
        class Weird(SumAggregation):
            pass

        q = make_query()
        q.aggregation = Weird(1)
        with pytest.raises(ProtocolError, match="not wire-serializable"):
            query_to_dict(q)

    def test_non_grid_mapping_rejected(self):
        q = make_query()
        q.mapping = IdentityMapping(q.mapping.output_space)
        with pytest.raises(ProtocolError, match="GridMapping"):
            query_to_dict(q)

    def test_unknown_aggregation_rejected(self):
        q = make_query()
        q.aggregation = "median"
        with pytest.raises(ProtocolError):
            query_to_dict(q)

    def test_bad_version(self):
        payload = query_to_dict(make_query())
        payload["version"] = 99
        with pytest.raises(ProtocolError, match="version"):
            query_from_dict(payload)

    def test_missing_field(self):
        payload = query_to_dict(make_query())
        del payload["grid"]
        with pytest.raises(ProtocolError, match="grid"):
            query_from_dict(payload)

    @pytest.mark.parametrize(
        "legacy", [True, False, {"depth": 2, "workers": 1}],
        ids=["on", "off", "policy"],
    )
    def test_legacy_prefetch_key_is_ignored(self, legacy):
        """Older clients sent a read-ahead setting; results never
        depended on it, so it decodes like its absence and is never
        emitted."""
        payload = json.loads(json.dumps(query_to_dict(make_query())))
        assert "prefetch" not in payload
        old = query_from_dict(dict(payload, prefetch=legacy))
        new = query_from_dict(payload)
        assert query_to_dict(old) == query_to_dict(new) == payload


class TestDegradedResultsOnTheWire:
    """on_error / chunk_errors / completeness cross the wire, and only
    when non-default -- clean payloads stay byte-identical to old ones."""

    @staticmethod
    def make_result(**kw):
        from repro.runtime.engine import QueryResult

        return QueryResult(
            strategy="FRA", output_ids=np.array([0]),
            chunk_values=[np.array([[1.0]])],
            n_tiles=1, n_reads=1, bytes_read=10, n_combines=0,
            n_aggregations=1, **kw,
        )

    def test_degraded_result_roundtrip(self):
        res = self.make_result(
            chunk_errors={7: "CorruptChunkError: CRC mismatch"},
            completeness=0.875,
        )
        back = result_from_dict(json.loads(json.dumps(result_to_dict(res))))
        assert back.chunk_errors == {7: "CorruptChunkError: CRC mismatch"}
        assert back.completeness == 0.875

    def test_chunk_error_keys_restored_to_ints(self):
        """JSON forces object keys to strings; decoding restores ints."""
        res = self.make_result(chunk_errors={3: "OSError: gone"},
                               completeness=0.9)
        back = result_from_dict(json.loads(json.dumps(result_to_dict(res))))
        assert list(back.chunk_errors) == [3]

    def test_clean_result_payload_has_no_robustness_keys(self):
        payload = result_to_dict(self.make_result())
        assert "chunk_errors" not in payload
        assert "completeness" not in payload

    def test_old_result_payload_decodes_clean(self):
        back = result_from_dict(json.loads(json.dumps(
            result_to_dict(self.make_result()))))
        assert back.chunk_errors == {} and back.completeness == 1.0

    def test_query_on_error_roundtrip(self):
        q = make_query()
        q.on_error = "degrade"
        payload = json.loads(json.dumps(query_to_dict(q)))
        assert payload["on_error"] == "degrade"
        assert query_from_dict(payload).on_error == "degrade"

    def test_default_query_payload_has_no_on_error_key(self):
        payload = query_to_dict(make_query())
        assert "on_error" not in payload
        assert query_from_dict(payload).on_error == "raise"

    def test_unknown_on_error_rejected_at_construction(self):
        import dataclasses

        with pytest.raises(ValueError, match="on_error"):
            dataclasses.replace(make_query(), on_error="shrug")


class TestResultRoundTrip:
    def test_end_to_end_through_the_wire(self, rng):
        """A full client interaction: encode query, decode server-side,
        execute, encode result, decode client-side."""
        adr = ADR(machine=MachineConfig(n_procs=2, memory_per_proc=MB))
        in_space = AttributeSpace.regular("s", ("x", "y"), (0, 0), (10, 10))
        coords = rng.uniform(0, 10, size=(200, 2))
        values = rng.integers(1, 20, size=200).astype(float)
        adr.load("sensors", in_space, hilbert_partition(coords, values, 20))
        out_space = AttributeSpace.regular("o", ("u", "v"), (0, 0), (1, 1))
        grid = OutputGrid(out_space, (6, 6), (3, 3))
        mapping = GridMapping(in_space, out_space, (6, 6))
        q = RangeQuery("sensors", Rect((0, 0), (10, 10)), mapping, grid,
                       aggregation="mean", strategy="FRA")

        wire_query = json.dumps(query_to_dict(q))
        server_query = query_from_dict(json.loads(wire_query))
        result = adr.execute(server_query)
        wire_result = json.dumps(result_to_dict(result))
        client_result = result_from_dict(json.loads(wire_result))

        assert client_result.output_ids.tolist() == result.output_ids.tolist()
        for a, b in zip(client_result.chunk_values, result.chunk_values):
            np.testing.assert_allclose(a, b, equal_nan=True)
        assert client_result.n_reads == result.n_reads

    def test_nan_encoding(self):
        from repro.runtime.engine import QueryResult

        res = QueryResult(
            strategy="FRA",
            output_ids=np.array([0]),
            chunk_values=[np.array([[1.0, np.nan]])],
            n_tiles=1, n_reads=1, bytes_read=10, n_combines=0, n_aggregations=1,
        )
        payload = json.loads(json.dumps(result_to_dict(res)))
        back = result_from_dict(payload)
        assert back.chunk_values[0][0, 0] == 1.0
        assert np.isnan(back.chunk_values[0][0, 1])

    def test_result_bad_version(self):
        with pytest.raises(ProtocolError):
            result_from_dict({"version": 0})

    def test_phase_times_and_cache_stats_roundtrip(self):
        from repro.runtime.engine import QueryResult

        res = QueryResult(
            strategy="FRA",
            output_ids=np.array([0]),
            chunk_values=[np.array([[2.0]])],
            n_tiles=1, n_reads=1, bytes_read=10, n_combines=0, n_aggregations=1,
            phase_times={"initialize": 0.25, "reduce": 1.5,
                         "combine": 0.0, "output": 0.125},
            cache_stats={"routing_hits": 3, "routing_misses": 1,
                         "chunk_misses": 2},
        )
        back = result_from_dict(json.loads(json.dumps(result_to_dict(res))))
        assert back.phase_times == res.phase_times
        assert back.cache_stats == res.cache_stats

    def test_result_without_timings_stays_empty(self):
        """Old payloads (and counters-only servers) decode to empty
        dicts, not missing attributes."""
        from repro.runtime.engine import QueryResult

        res = QueryResult(
            strategy="FRA",
            output_ids=np.array([0]),
            chunk_values=[np.array([[2.0]])],
            n_tiles=1, n_reads=1, bytes_read=10, n_combines=0, n_aggregations=1,
        )
        payload = json.loads(json.dumps(result_to_dict(res)))
        assert "phase_times" not in payload and "cache_stats" not in payload
        back = result_from_dict(payload)
        assert back.phase_times == {} and back.cache_stats == {}


# A per-element reference for the block record: each value packed by
# ``struct`` and the concatenation base64-encoded; its decoder checks the
# record field by field in plain Python before unpacking value by value.
def oracle_encode(arr):
    data = b"".join(struct.pack("<d", float(v)) for v in np.asarray(arr).flat)
    return {"shape": list(np.shape(arr)), "data": base64.b64encode(data).decode("ascii")}


B64 = re.compile(r"(?:[A-Za-z0-9+/]{4})*(?:[A-Za-z0-9+/]{2}==|[A-Za-z0-9+/]{3}=)?")


def oracle_decode(record):
    if not isinstance(record, dict) or not {"shape", "data"} <= set(record):
        raise ProtocolError(f"not a block record: {record!r}")
    shape, data = record["shape"], record["data"]
    if not (isinstance(shape, list) and (len(shape) == 2 or shape == [0])
            and all(type(d) is int and d >= 0 for d in shape)):
        raise ProtocolError(f"bad block shape {shape!r}")
    if not isinstance(data, str) or not B64.fullmatch(data):
        raise ProtocolError(f"block data is not base64: {data!r}")
    raw = base64.b64decode(data)
    count = math.prod(shape)
    if len(raw) != 8 * count:
        raise ProtocolError(f"{len(raw)} bytes for shape {shape}")
    return np.array(struct.unpack(f"<{count}d", raw), dtype=np.float64).reshape(shape)


def block_result(*blocks):
    from repro.runtime.engine import QueryResult

    return QueryResult(
        strategy="FRA",
        output_ids=np.arange(len(blocks)),
        chunk_values=list(blocks),
        n_tiles=1, n_reads=1, bytes_read=10, n_combines=0, n_aggregations=1,
    )


EDGE_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2e-308,
               1e300, -1e300, 1e-300, 1.0, 0.1, -2.5]


def make_block(n, k, dtype, flat):
    with np.errstate(over="ignore"):  # 1e300 is inf in float32
        return np.asarray(flat).reshape(n, k).astype(dtype)


value_blocks = st.tuples(
    st.integers(0, 6), st.integers(1, 3), st.sampled_from(["f8", "f4", "i8", "i4"])
).flatmap(
    lambda nkd: st.lists(
        st.integers(-(2 ** 31), 2 ** 31 - 1) if nkd[2][0] == "i"
        else st.sampled_from(EDGE_FLOATS) | st.floats(),
        min_size=nkd[0] * nkd[1], max_size=nkd[0] * nkd[1],
    ).map(lambda flat: make_block(*nkd, flat))
)


def b64(raw):
    return base64.b64encode(raw).decode("ascii")


def malformed_records(block, data):
    """One way to break *block*'s record, drawn from *data*.  Shape
    breakages keep the byte count consistent with the product, so the
    shape check itself must refuse them."""
    n, k = block.shape
    raw = np.asarray(block, dtype="<f8").tobytes()
    good = {"shape": [n, k], "data": b64(raw)}
    one = b64(bytes(8))
    at = data.draw(st.integers(0, len(good["data"])))
    return data.draw(st.sampled_from([
        # not an object: the v1 list of rows, and other JSON values
        block.astype(np.float64).tolist(), None, good["data"], 3.0, [good],
        # a key missing
        {"shape": [n, k]}, {"data": good["data"]},
        # bool / negative / float / rank-1 / rank-3 / non-list shapes
        {"shape": [True, True], "data": one}, {"shape": [-1, -1], "data": one},
        {"shape": [float(n), k], "data": good["data"]},
        {"shape": [1], "data": one}, {"shape": [n, k, 1], "data": good["data"]},
        {"shape": f"[{n}, {k}]", "data": good["data"]}, {"shape": None, "data": ""},
        # data that is not a string
        {"shape": [n, k], "data": None}, {"shape": [n, k], "data": 0},
        {"shape": [n, k], "data": [good["data"]]},
        # a character outside the base64 alphabet, or torn padding
        *({"shape": [n, k], "data": good["data"][:at] + c + good["data"][at:]}
          for c in ("!", "-", "_", " ", "\n", "\u00e9")),
        {"shape": [n, k], "data": good["data"] + "A"},
        # one byte too many or too few
        {"shape": [n, k], "data": b64(raw + b"\0")},
        {"shape": [n + 1, k], "data": b64(raw + bytes(8 * k - 1))},
    ]))


class TestArrayCodecMatchesPerElementOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(value_blocks, max_size=3))
    def test_wire_text_identical_and_roundtrip_exact(self, blocks):
        payload = result_to_dict(block_result(*blocks))
        assert json.dumps(payload["chunk_values"]) == json.dumps(
            [oracle_encode(b) for b in blocks]
        )
        assert payload["output_ids"] == list(range(len(blocks)))
        assert all(type(o) is int for o in payload["output_ids"])
        back = result_from_dict(json.loads(json.dumps(payload)))
        for block, record, got in zip(blocks, payload["chunk_values"], back.chunk_values):
            want = oracle_decode(json.loads(json.dumps(record)))
            assert got.dtype == want.dtype == np.float64
            assert got.shape == want.shape == block.shape
            assert got.flags.writeable
            # bit for bit: NaN payloads and the sign of zero included
            bits = block.astype(np.float64).view("<u8")
            assert np.array_equal(got.view("<u8"), bits, equal_nan=True)
            assert np.array_equal(want.view("<u8"), bits, equal_nan=True)

    @settings(max_examples=200, deadline=None)
    @given(value_blocks, st.data())
    def test_malformed_blocks_refused_like_the_oracle(self, block, data):
        record = malformed_records(block, data)
        payload = result_to_dict(block_result(block))
        payload["chunk_values"] = [record]
        with pytest.raises(ProtocolError):
            oracle_decode(record)
        with pytest.raises(ProtocolError):
            result_from_dict(json.loads(json.dumps(payload)))

    def test_empty_block_list_decodes_to_empty_float_vector(self):
        payload = result_to_dict(block_result(np.zeros((1, 1))))
        payload["chunk_values"] = [{"shape": [0], "data": ""}]
        got = result_from_dict(payload).chunk_values[0]
        assert got.shape == (0,) and got.dtype == np.float64

    def test_v1_payload_with_rows_refused_by_version(self):
        payload = result_to_dict(block_result(np.array([[1.0, np.nan]])))
        payload.update(version=1, chunk_values=[[[1.0, "nan"]]])
        with pytest.raises(ProtocolError, match="protocol version 1 not supported"):
            result_from_dict(payload)

    def test_result_frames_are_strict_json(self):
        import io

        from repro.frontend.protocol import write_frame

        def refuse(token):
            raise AssertionError(f"non-JSON token {token} in a result frame")

        bits = np.array([
            [0x7FF8000000000000, 0x7FF0000000000000],  # nan, inf
            [0xFFF0000000000000, 0x8000000000000000],  # -inf, -0.0
            [0x7FF8000000000123, 0xFFF0000000000001],  # NaN payloads, one negative signalling
        ], dtype="<u8")
        buf = io.BytesIO()
        write_frame(buf, {"ok": True, "result": result_to_dict(block_result(bits.view("<f8")))})
        message = json.loads(buf.getvalue()[4:].decode("utf-8"), parse_constant=refuse)
        got = result_from_dict(message["result"]).chunk_values[0]
        assert np.array_equal(got.view("<u8"), bits)

    @pytest.mark.parametrize("payload", [[], [1, 2], "query", None, 7])
    def test_non_object_payloads_refused(self, payload):
        with pytest.raises(ProtocolError, match="not an object"):
            result_from_dict(payload)
        with pytest.raises(ProtocolError, match="not an object"):
            query_from_dict(payload)


class TestStrategyChoiceOnTheWire:
    def _result(self, **kw):
        from repro.runtime.engine import QueryResult

        return QueryResult(
            strategy="SRA",
            output_ids=np.array([0]),
            chunk_values=[np.array([[2.0]])],
            n_tiles=1, n_reads=1, bytes_read=10, n_combines=0,
            n_aggregations=1, **kw,
        )

    def test_selection_roundtrip(self):
        res = self._result(
            selected_strategy="SRA",
            strategy_ranking={"SRA": 1.25, "FRA": 2.5, "DA": 4.0,
                              "HYBRID": 4.5},
        )
        back = result_from_dict(json.loads(json.dumps(result_to_dict(res))))
        assert back.selected_strategy == "SRA"
        assert back.strategy_ranking == res.strategy_ranking
        # rank order survives the wire (dict order is part of the payload)
        assert list(back.strategy_ranking) == ["SRA", "FRA", "DA", "HYBRID"]

    def test_fixed_strategy_payload_omits_selection(self):
        """Explicit-strategy results carry no selection fields -- the
        payload stays byte-compatible with pre-auto servers."""
        payload = json.loads(json.dumps(result_to_dict(self._result())))
        assert "selected_strategy" not in payload
        assert "strategy_ranking" not in payload
        back = result_from_dict(payload)
        assert back.selected_strategy == ""
        assert back.strategy_ranking == {}

    def test_auto_query_roundtrip(self):
        q = make_query()
        q.strategy = "AUTO"
        back = query_from_dict(json.loads(json.dumps(query_to_dict(q))))
        assert back.strategy == "AUTO"

    def test_missing_strategy_defaults_to_auto(self):
        """A client that omits strategy gets automatic selection."""
        payload = json.loads(json.dumps(query_to_dict(make_query())))
        del payload["strategy"]
        assert query_from_dict(payload).strategy == "AUTO"

    def test_auto_end_to_end_on_the_wire(self, rng):
        adr = ADR(machine=MachineConfig(n_procs=2, memory_per_proc=MB))
        in_space = AttributeSpace.regular("s", ("x", "y"), (0, 0), (10, 10))
        coords = rng.uniform(0, 10, size=(200, 2))
        values = rng.integers(1, 20, size=200).astype(float)
        adr.load("sensors", in_space, hilbert_partition(coords, values, 20))
        out_space = AttributeSpace.regular("o", ("u", "v"), (0, 0), (1, 1))
        grid = OutputGrid(out_space, (6, 6), (3, 3))
        mapping = GridMapping(in_space, out_space, (6, 6))
        q = RangeQuery("sensors", Rect((0, 0), (10, 10)), mapping, grid,
                       aggregation="mean", strategy="AUTO")

        server_query = query_from_dict(json.loads(json.dumps(query_to_dict(q))))
        result = adr.execute(server_query)
        back = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
        assert back.selected_strategy == result.strategy
        assert back.strategy_ranking == result.strategy_ranking
        assert set(back.strategy_ranking) == {"FRA", "SRA", "DA", "HYBRID"}


class TestSharedCountersOnTheWire:
    def _result(self, **kw):
        from repro.runtime.engine import QueryResult

        return QueryResult(
            strategy="FRA",
            output_ids=np.array([0]),
            chunk_values=[np.array([[2.0]])],
            n_tiles=1, n_reads=4, bytes_read=40, n_combines=0,
            n_aggregations=4, **kw,
        )

    def test_shared_counters_roundtrip(self):
        res = self._result(shared_reads=3, shared_bytes=1536)
        back = result_from_dict(json.loads(json.dumps(result_to_dict(res))))
        assert back.shared_reads == 3
        assert back.shared_bytes == 1536

    def test_unshared_result_payload_has_no_shared_keys(self):
        """Back-compat: isolated executions encode byte-identically to
        pre-sharing payloads."""
        payload = result_to_dict(self._result())
        assert "shared_reads" not in payload
        assert "shared_bytes" not in payload

    def test_old_payload_decodes_with_zero_shared(self):
        payload = json.loads(json.dumps(result_to_dict(self._result())))
        back = result_from_dict(payload)
        assert back.shared_reads == 0 and back.shared_bytes == 0


class TestErrorEncoding:
    def test_exception_renders_as_typename_message(self):
        from repro.frontend.protocol import error_to_dict

        payload = error_to_dict("bad_request", KeyError("absent"))
        assert payload == {
            "ok": False,
            "code": "bad_request",
            "error": "KeyError: 'absent'",
        }

    def test_plain_text_error(self):
        from repro.frontend.protocol import error_to_dict

        payload = error_to_dict("overloaded", "pending queue full")
        assert payload["code"] == "overloaded"
        assert payload["error"] == "pending queue full"

    def test_unknown_code_rejected(self):
        from repro.frontend.protocol import ERROR_CODES, error_to_dict

        assert set(ERROR_CODES) == {
            "bad_request", "overloaded", "internal",
            "shard_unavailable", "deadline_exceeded",
        }
        with pytest.raises(ValueError, match="unknown error code"):
            error_to_dict("teapot", "x")


class TestFraming:
    """Edge cases of the length-prefixed frame codec: every corruption
    mode must surface as a loud ProtocolError, never a hang, a short
    result, or a bare struct/json error."""

    def roundtrip(self, message):
        import io

        from repro.frontend.protocol import read_frame, write_frame

        buf = io.BytesIO()
        write_frame(buf, message)
        buf.seek(0)
        return read_frame(buf)

    def test_roundtrip(self):
        message = {"op": "query", "nested": {"xs": [1, 2.5, None, "s"]}}
        assert self.roundtrip(message) == message

    def test_clean_eof_is_none(self):
        import io

        from repro.frontend.protocol import read_frame

        assert read_frame(io.BytesIO(b"")) is None

    @pytest.mark.parametrize("payload", [None, [1, 2], 3, "s"])
    def test_non_object_payload_is_not_eof(self, payload):
        with pytest.raises(NotAnObjectError, match="not a JSON object"):
            self.roundtrip(payload)

    def test_truncated_header(self):
        import io

        from repro.frontend.protocol import read_frame

        with pytest.raises(ProtocolError, match="truncated frame header"):
            read_frame(io.BytesIO(b"\x00\x00"))

    def test_oversized_declared_length(self):
        import io
        import struct

        from repro.frontend.protocol import MAX_FRAME_BYTES, read_frame

        header = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="exceeds MAX_FRAME_BYTES"):
            read_frame(io.BytesIO(header))

    def test_torn_payload(self):
        import io
        import struct

        from repro.frontend.protocol import read_frame

        data = struct.pack(">I", 10) + b"{}"
        with pytest.raises(ProtocolError, match="torn frame: got 2 of 10"):
            read_frame(io.BytesIO(data))

    def test_non_json_payload(self):
        import io
        import struct

        from repro.frontend.protocol import read_frame

        data = struct.pack(">I", 3) + b"\xff\xfe\xfd"
        with pytest.raises(ProtocolError, match="bad frame payload"):
            read_frame(io.BytesIO(data))

    def test_oversized_outgoing_payload_refused(self):
        import io

        from repro.frontend.protocol import MAX_FRAME_BYTES, write_frame

        big = {"blob": "x" * (MAX_FRAME_BYTES + 1)}
        with pytest.raises(ProtocolError, match="exceeds MAX_FRAME_BYTES"):
            write_frame(io.BytesIO(), big)


class TestRobustnessErrorCodes:
    """Round-trips for the shard-era error codes and their details."""

    def test_shard_unavailable_roundtrip(self):
        from repro.frontend.protocol import error_to_dict

        payload = error_to_dict(
            "shard_unavailable",
            "server is draining and admits no new queries",
        )
        assert json.loads(json.dumps(payload)) == payload
        assert payload["code"] == "shard_unavailable"
        assert "details" not in payload

    def test_deadline_exceeded_roundtrip(self):
        from repro.frontend.protocol import DeadlineExceededError, error_to_dict

        e = DeadlineExceededError("deadline of 1.5s expired")
        payload = error_to_dict("deadline_exceeded", e)
        assert payload["error"] == (
            "DeadlineExceededError: deadline of 1.5s expired"
        )
        # DeadlineExceededError is a TimeoutError, hence an OSError:
        # retry policies treat it like any transient I/O failure.
        assert isinstance(e, TimeoutError) and isinstance(e, OSError)

    def test_explicit_details_travel(self):
        from repro.frontend.protocol import error_to_dict

        payload = error_to_dict(
            "overloaded", "queue full",
            details={"queue_depth": 7, "retry_after_s": 0.25},
        )
        assert payload["details"] == {"queue_depth": 7, "retry_after_s": 0.25}
        assert json.loads(json.dumps(payload)) == payload

    def test_wire_details_attribute_used_when_present(self):
        from repro.frontend.protocol import error_to_dict
        from repro.frontend.queryservice import ServiceOverloadedError

        e = ServiceOverloadedError(
            "pending queue full", queue_depth=5, retry_after_s=0.1
        )
        payload = error_to_dict("overloaded", e)
        assert payload["details"] == {"queue_depth": 5, "retry_after_s": 0.1}


class TestValueComponentsOnTheWire:
    def test_spec_instance_components_survive_roundtrip(self):
        """A query built with a multi-component spec instance leaves
        the ``value_components`` *field* at its default; the encoder
        must ship the spec's component count, not the field's."""
        from repro.aggregation.functions import MinAggregation

        q = make_query()
        from dataclasses import replace

        q = replace(q, aggregation=MinAggregation(2), value_components=1)
        back = query_from_dict(query_to_dict(q))
        assert back.aggregation == "min"
        assert back.value_components == 2
        assert back.spec().value_components == 2


# -- the hand-listed result codec the field table replaced ---------------
# Kept as the oracle for the wire text, the round trip and the refusals
# of ``result_to_dict`` / ``result_from_dict``; its blocks are written by
# the per-element ``oracle_encode`` and read by the module's decoder, so
# the refusal texts stay comparable.


def oracle_result_to_dict(result):
    from repro.frontend.protocol import PROTOCOL_VERSION

    payload = {
        "version": PROTOCOL_VERSION,
        "strategy": result.strategy,
        "output_ids": np.asarray(result.output_ids, dtype=np.int64).tolist(),
        "chunk_values": [oracle_encode(v) for v in result.chunk_values],
        "n_tiles": result.n_tiles,
        "n_reads": result.n_reads,
        "bytes_read": result.bytes_read,
        "n_combines": result.n_combines,
        "n_aggregations": result.n_aggregations,
    }
    if result.phase_times:
        payload["phase_times"] = {k: float(v) for k, v in result.phase_times.items()}
    if result.cache_stats:
        payload["cache_stats"] = {k: int(v) for k, v in result.cache_stats.items()}
    if result.chunks_pruned:
        payload["chunks_pruned"] = int(result.chunks_pruned)
        payload["bytes_pruned"] = int(result.bytes_pruned)
    if result.shared_reads:
        payload["shared_reads"] = int(result.shared_reads)
        payload["shared_bytes"] = int(result.shared_bytes)
    if result.chunk_errors:
        payload["chunk_errors"] = {str(k): str(v) for k, v in result.chunk_errors.items()}
        payload["completeness"] = float(result.completeness)
    if result.shard_errors:
        payload["shard_errors"] = {str(k): str(v) for k, v in result.shard_errors.items()}
        payload["completeness"] = float(result.completeness)
    if result.selected_strategy:
        payload["selected_strategy"] = str(result.selected_strategy)
        if result.strategy_ranking:
            payload["strategy_ranking"] = {
                str(k): float(v) for k, v in result.strategy_ranking.items()
            }
    return payload


def oracle_result_from_dict(payload):
    from repro.frontend.protocol import PROTOCOL_VERSION, _decode_block
    from repro.runtime.engine import QueryResult

    if payload.get("version") != PROTOCOL_VERSION:
        raise ProtocolError(f"protocol version {payload.get('version')!r} not supported")
    try:
        return QueryResult(
            strategy=payload["strategy"],
            output_ids=np.asarray(payload["output_ids"], dtype=np.int64),
            chunk_values=[_decode_block(v) for v in payload["chunk_values"]],
            n_tiles=int(payload["n_tiles"]),
            n_reads=int(payload["n_reads"]),
            bytes_read=int(payload["bytes_read"]),
            n_combines=int(payload["n_combines"]),
            n_aggregations=int(payload["n_aggregations"]),
            phase_times={str(k): float(v) for k, v in payload.get("phase_times", {}).items()},
            cache_stats={str(k): int(v) for k, v in payload.get("cache_stats", {}).items()},
            chunk_errors={int(k): str(v) for k, v in payload.get("chunk_errors", {}).items()},
            shard_errors={int(k): str(v) for k, v in payload.get("shard_errors", {}).items()},
            completeness=float(payload.get("completeness", 1.0)),
            chunks_pruned=int(payload.get("chunks_pruned", 0)),
            bytes_pruned=int(payload.get("bytes_pruned", 0)),
            shared_reads=int(payload.get("shared_reads", 0)),
            shared_bytes=int(payload.get("shared_bytes", 0)),
            selected_strategy=str(payload.get("selected_strategy", "")),
            strategy_ranking={
                str(k): float(v) for k, v in payload.get("strategy_ranking", {}).items()
            },
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ProtocolError(f"bad result payload: {e}") from e


def optional(value_strategy, default):
    """A field either at its dataclass default or set."""
    return st.just(default) | value_strategy


counts = st.integers(0, 2 ** 40)
names = st.sampled_from(["FRA", "SRA", "DA", "HYBRID"])
messages = st.text(max_size=12)
finite = st.floats(0, 1e6, allow_nan=False)


@st.composite
def wire_results(draw):
    from repro.runtime.engine import QueryResult
    from repro.runtime.phases import PHASES

    blocks = draw(st.lists(value_blocks, max_size=3))
    r = QueryResult(
        strategy=draw(names | st.just("")),
        output_ids=np.asarray(
            draw(st.lists(counts, min_size=len(blocks), max_size=len(blocks))),
            dtype=np.int64,
        ),
        chunk_values=blocks,
        n_tiles=draw(counts), n_reads=draw(counts), bytes_read=draw(counts),
        n_combines=draw(counts), n_aggregations=draw(counts),
        phase_times=draw(optional(st.fixed_dictionaries({p: finite for p in PHASES}), {})),
        cache_stats=draw(optional(st.dictionaries(st.sampled_from(
            ["routing_hits", "routing_bytes", "chunk_hits", "chunk_misses"]), counts,
            min_size=1), {})),
        chunk_errors=draw(optional(st.dictionaries(counts, messages, min_size=1), {})),
        completeness=draw(optional(st.floats(0, 1, exclude_max=True), 1.0)),
        chunks_pruned=draw(optional(st.integers(1, 2 ** 40), 0)),
        bytes_pruned=draw(optional(st.integers(1, 2 ** 40), 0)),
        shared_reads=draw(optional(st.integers(1, 2 ** 40), 0)),
        shared_bytes=draw(optional(st.integers(1, 2 ** 40), 0)),
        shard_errors=draw(optional(st.dictionaries(counts, messages, min_size=1), {})),
        selected_strategy=draw(optional(names, "")),
        strategy_ranking=draw(optional(st.dictionaries(names, finite, min_size=1), {})),
    )
    if draw(st.booleans()):  # pair the fields the way real results do
        r = replace(
            r,
            bytes_pruned=(r.bytes_pruned or 1) if r.chunks_pruned else 0,
            shared_bytes=(r.shared_bytes or 1) if r.shared_reads else 0,
            shard_errors=r.shard_errors if r.chunk_errors else {},
            completeness=min(r.completeness, 0.5) if r.chunk_errors else 1.0,
            strategy_ranking=(r.strategy_ranking or {"FRA": 1.0})
            if r.selected_strategy else {},
        )
    return r


def paired(r):
    """The field pairs every real result keeps, which the hand-listed
    encoder's layout relied on: pruned bytes with pruned chunks, shared
    bytes with shared reads, incompleteness with errors (and shard
    errors with the chunk errors they charge), the ranking with the
    selected strategy."""
    errors = bool(r.chunk_errors or r.shard_errors)
    return (
        bool(r.chunks_pruned) == bool(r.bytes_pruned)
        and bool(r.shared_reads) == bool(r.shared_bytes)
        and (r.completeness < 1.0) == errors
        and (not r.shard_errors or bool(r.chunk_errors))
        and bool(r.selected_strategy) == bool(r.strategy_ranking)
    )


def assert_same_result(got, want):
    from dataclasses import fields

    from repro.runtime.engine import QueryResult

    for f in fields(QueryResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "output_ids":
            assert a.dtype == b.dtype and a.tolist() == b.tolist()
        elif f.name == "chunk_values":
            assert len(a) == len(b)
            for x, y in zip(a, b):
                assert x.size == y.size
                assert np.array_equal(x.reshape(y.shape), y, equal_nan=True)
        else:
            assert a == b, f.name


class TestResultFieldTable:
    """One field table drives the result codec: it round-trips every
    field and writes the hand-listed encoder's JSON text for every
    result whose paired fields agree."""

    def test_every_result_field_travels(self):
        from dataclasses import fields

        from repro.runtime.engine import QueryResult

        assert {name for name, _, _ in _RESULT_WIRE} == {
            f.name for f in fields(QueryResult)
        }

    @settings(max_examples=300, deadline=None)
    @given(wire_results())
    def test_roundtrip_and_wire_text_match_the_oracle(self, r):
        payload = result_to_dict(r)
        text = json.dumps(payload)  # what the server writes into a frame
        back = result_from_dict(json.loads(text))
        want = replace(r, chunk_values=[np.asarray(v, dtype=np.float64) for v in r.chunk_values])
        assert_same_result(back, want)
        old = oracle_result_from_dict(json.loads(json.dumps(oracle_result_to_dict(r))))
        if paired(r):
            assert text == json.dumps(oracle_result_to_dict(r))
            for x, y in zip(back.chunk_values, old.chunk_values):
                assert x.shape == y.shape and x.dtype == y.dtype
            assert_same_result(back, old)

    def test_empty_result_carries_the_counters_alone(self):
        from repro.runtime.engine import QueryResult

        r = QueryResult("FRA", np.empty(0, dtype=np.int64), [], 0, 0, 0, 0, 0)
        payload = result_to_dict(r)
        assert payload == oracle_result_to_dict(r) == {
            "version": 2, "strategy": "FRA", "output_ids": [], "chunk_values": [],
            "n_tiles": 0, "n_reads": 0, "bytes_read": 0, "n_combines": 0,
            "n_aggregations": 0,
        }
        assert_same_result(result_from_dict(payload), r)

    @settings(max_examples=200, deadline=None)
    @given(wire_results(), st.data())
    def test_malformed_payloads_refused_like_the_oracle(self, r, data):
        payload = result_to_dict(r)
        required = ["strategy", "output_ids", "chunk_values", "n_tiles", "n_reads",
                    "bytes_read", "n_combines", "n_aggregations"]
        breakage = data.draw(st.sampled_from([
            ("drop", name) for name in required
        ] + [
            ("set", "version", 0), ("set", "n_reads", "many"), ("set", "n_tiles", None),
            ("set", "output_ids", [["x"]]), ("set", "chunk_values", [[[1.0], None]]),
            ("set", "completeness", "x"), ("set", "chunks_pruned", [1]),
            ("set", "chunk_errors", {"seven": "lost"}), ("set", "phase_times", {"reduce": "x"}),
            ("set", "cache_stats", {"routing_hits": "x"}),
            ("set", "strategy_ranking", {"FRA": None}),
        ]))
        if breakage[0] == "drop":
            del payload[breakage[1]]
        else:
            payload[breakage[1]] = breakage[2]
        with pytest.raises(ProtocolError) as new:
            result_from_dict(payload)
        with pytest.raises(ProtocolError) as old:
            oracle_result_from_dict(payload)
        assert str(new.value) == str(old.value)
