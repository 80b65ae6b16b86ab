"""Tests for the client wire protocol."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.functions import SumAggregation
from repro.aggregation.output_grid import OutputGrid
from repro.dataset.partition import hilbert_partition
from repro.frontend.adr import ADR
from repro.frontend.protocol import (
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
                         "pool_reuses": 2},
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


# The per-element codec the array-at-a-time one replaced: kept here as
# the oracle for the wire text and for what the decoder must refuse.
def oracle_encode(arr):
    return [["nan" if np.isnan(v) else float(v) for v in row] for row in arr]


def oracle_decode(rows):
    try:
        return np.asarray(
            [[np.nan if v == "nan" else float(v) for v in row] for row in rows]
        )
    except (TypeError, ValueError) as e:
        raise ProtocolError(f"bad result payload: {e}") from e


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

good_row = st.lists(st.sampled_from([1.0, 2, "nan", -0.5]), min_size=2, max_size=2)
bad_cell = st.sampled_from([None, "x", {}, [1.0], [], [None]])
malformed_blocks = st.one_of(
    # a bad entry somewhere among good rows: null, non-numeric, nested
    st.tuples(st.lists(good_row, max_size=2), bad_cell, st.lists(good_row, max_size=2))
    .map(lambda pre_bad_post: [*pre_bad_post[0], [1.0, pre_bad_post[1]], *pre_bad_post[2]]),
    # ragged, flat, and uniformly nested blocks
    st.just([[1.0], [1.0, 2.0]]),
    st.just([[1.0, 2.0], []]),
    st.just([1.0, 2.0]),
    st.just([[[1.0], [2.0]]]),
    st.just([None]),
    st.just(None),
)


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
        for block, rows, got in zip(blocks, payload["chunk_values"], back.chunk_values):
            want = oracle_decode(json.loads(json.dumps(rows)))
            assert got.dtype == want.dtype == np.float64
            assert got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(
                got.reshape(block.shape), block.astype(np.float64), equal_nan=True
            )
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @settings(max_examples=100, deadline=None)
    @given(malformed_blocks)
    def test_malformed_blocks_refused_like_the_oracle(self, rows):
        payload = result_to_dict(block_result(np.zeros((1, 2))))
        payload["chunk_values"] = [rows]
        with pytest.raises(ProtocolError):
            oracle_decode(rows)
        with pytest.raises(ProtocolError):
            result_from_dict(payload)

    def test_empty_block_list_decodes_to_empty_float_vector(self):
        payload = result_to_dict(block_result(np.zeros((1, 1))))
        payload["chunk_values"] = [[]]
        got = result_from_dict(payload).chunk_values[0]
        assert got.shape == (0,) and got.dtype == np.float64


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
