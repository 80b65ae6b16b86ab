"""Tests for the socket front-end service."""

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.aggregation.output_grid import OutputGrid
from repro.dataset.partition import hilbert_partition
from repro.frontend.adr import ADR
from repro.frontend.protocol import ProtocolError, read_frame, write_frame
from repro.frontend.query import RangeQuery
from repro.frontend.service import ADRClient, ADRServer
from repro.machine.config import MachineConfig
from repro.space.attribute_space import AttributeSpace
from repro.space.mapping import GridMapping
from repro.util.geometry import Rect
from repro.util.units import MB


@pytest.fixture
def service(rng):
    adr = ADR(machine=MachineConfig(n_procs=2, memory_per_proc=MB))
    in_space = AttributeSpace.regular("s", ("x", "y"), (0, 0), (10, 10))
    coords = rng.uniform(0, 10, size=(200, 2))
    values = rng.integers(1, 20, size=200).astype(float)
    adr.load("sensors", in_space, hilbert_partition(coords, values, 20))
    out_space = AttributeSpace.regular("o", ("u", "v"), (0, 0), (1, 1))
    grid = OutputGrid(out_space, (6, 6), (3, 3))
    mapping = GridMapping(in_space, out_space, (6, 6))
    query = RangeQuery("sensors", Rect((0, 0), (10, 10)), mapping, grid,
                       aggregation="sum", strategy="FRA")
    with ADRServer(adr, port=0) as server:
        yield adr, server, query


class TestService:
    def test_ping(self, service):
        adr, server, _ = service
        with ADRClient(*server.address) as client:
            assert client.ping()

    def test_query_over_the_wire_matches_local(self, service):
        adr, server, query = service
        local = adr.execute(query)
        with ADRClient(*server.address) as client:
            remote = client.query(query)
        assert remote.output_ids.tolist() == local.output_ids.tolist()
        for a, b in zip(remote.chunk_values, local.chunk_values):
            np.testing.assert_allclose(a, b, equal_nan=True)

    def test_multiple_requests_one_connection(self, service):
        adr, server, query = service
        with ADRClient(*server.address) as client:
            assert client.ping()
            r1 = client.query(query)
            r2 = client.query(query)
            assert r1.output_ids.tolist() == r2.output_ids.tolist()

    def test_two_clients(self, service):
        adr, server, query = service
        with ADRClient(*server.address) as c1, ADRClient(*server.address) as c2:
            assert c1.ping() and c2.ping()
            assert c1.query(query).n_reads == c2.query(query).n_reads

    def test_unknown_dataset_error_travels_back(self, service):
        adr, server, query = service
        query.dataset = "absent"
        with ADRClient(*server.address) as client:
            with pytest.raises(RuntimeError, match="rejected"):
                client.query(query)

    def test_unknown_op(self, service):
        adr, server, _ = service
        with ADRClient(*server.address) as client:
            response = client._call({"op": "teleport"})
            assert not response["ok"]
            assert "unknown op" in response["error"]

    def test_malformed_json_survives(self, service):
        """Bytes that are not a frame cost their own connection only:
        one framed refusal, EOF, and the server keeps serving."""
        adr, server, _ = service
        with ADRClient(*server.address) as client:
            client._file.write(b"this is not json\n")
            client._file.flush()
            assert not read_frame(client._file)["ok"]
            assert client._file.read() == b""
        with ADRClient(*server.address) as client:
            assert client.ping()


class TestFailedBind:
    @pytest.mark.parametrize("kind", ["adr", "shard"])
    def test_failed_bind_leaves_no_worker_threads(self, service, kind):
        """Regression: the owned QueryService used to start its workers
        before the bind, so ``EADDRINUSE`` leaked them forever."""
        from repro.shard.server import ShardServer

        adr, server, _ = service
        port = server.address[1]
        before = threading.active_count()
        with pytest.raises(OSError):
            if kind == "adr":
                ADRServer(adr, port=port)
            else:
                ShardServer(adr, 0, port=port)
        assert threading.active_count() == before


class TestErrorCodes:
    """Structured protocol errors: machine-distinguishable ``code``
    next to the back-compat free-text ``error``."""

    def test_bad_request_code_for_unknown_dataset(self, service):
        adr, server, query = service
        query.dataset = "absent"
        with ADRClient(*server.address) as client:
            response = client._call(
                {"op": "query", "query": query_to_dict_helper(query)}
            )
            assert response["ok"] is False
            assert response["code"] == "bad_request"
            assert "absent" in response["error"]

    def test_bad_request_code_for_malformed_payload(self, service):
        adr, server, _ = service
        with ADRClient(*server.address) as client:
            response = client._call({"op": "query", "query": {"version": 99}})
            assert response["code"] == "bad_request"

    def test_bad_request_code_for_non_object_query(self, service):
        adr, server, _ = service
        with ADRClient(*server.address) as client:
            response = client._call({"op": "query", "query": []})
            assert response["code"] == "bad_request"
            assert "not an object" in response["error"]
            assert client.ping()

    def test_bad_request_code_for_non_object_message(self, service):
        """A well-formed frame whose JSON is not an object is a bad
        request, answered in turn; the connection keeps serving."""
        adr, server, _ = service
        with ADRClient(*server.address) as client:
            write_frame(client._file, [1, 2])
            response = read_frame(client._file)
            assert response["code"] == "bad_request"
            assert "not a JSON object" in response["error"]
            assert client.ping()

    def test_bad_request_code_for_null_message(self, service):
        """A ``null`` frame is a message, not end of stream: it is
        answered ``bad_request`` and the connection keeps serving."""
        adr, server, _ = service
        with ADRClient(*server.address) as client:
            write_frame(client._file, None)
            response = read_frame(client._file)
            assert response is not None and response["code"] == "bad_request"
            assert "not a JSON object" in response["error"]
            assert client.ping()

    def test_non_object_result_is_a_protocol_error(self, service):
        """A server answering ``"result": []`` gets a ProtocolError at
        the client, not an AttributeError."""
        _, _, query = service
        listener = socket.create_server(("127.0.0.1", 0))

        def answer_once():
            conn, _ = listener.accept()
            with conn, conn.makefile("rwb") as f:
                read_frame(f)
                write_frame(f, {"ok": True, "result": []})

        thread = threading.Thread(target=answer_once, daemon=True)
        thread.start()
        try:
            with ADRClient(*listener.getsockname()[:2]) as client:
                with pytest.raises(ProtocolError, match="not an object"):
                    client.query(query)
        finally:
            thread.join(timeout=5)
            listener.close()

    def test_bad_request_code_for_unknown_op(self, service):
        adr, server, _ = service
        with ADRClient(*server.address) as client:
            response = client._call({"op": "teleport"})
            assert response["code"] == "bad_request"

    def test_malformed_json_gets_bad_request_code(self, service):
        adr, server, _ = service
        with ADRClient(*server.address) as client:
            client._file.write(b'{"op": "ping"}\n')
            client._file.flush()
            response = read_frame(client._file)
            assert response["code"] == "bad_request"
            assert "exceeds MAX_FRAME_BYTES" in response["error"]
            assert read_frame(client._file) is None

    def test_client_error_message_carries_code(self, service):
        adr, server, query = service
        query.dataset = "absent"
        with ADRClient(*server.address) as client:
            with pytest.raises(RuntimeError, match=r"\[bad_request\]"):
                client.query(query)

    def test_overloaded_code_when_queue_full(self, rng):
        """Admission-control rejections travel as ``overloaded``."""
        from repro.frontend.queryservice import ServicePolicy
        from repro.store.chunk_store import ChunkStoreStage, MemoryChunkStore

        class GateStore(ChunkStoreStage):
            def __init__(self, inner):
                super().__init__(inner)
                self.gate = threading.Event()

            def read_batch(self, dataset, chunk_ids):
                assert self.gate.wait(timeout=30)
                return self.inner.read_batch(dataset, chunk_ids)

        gate = GateStore(MemoryChunkStore())
        adr = ADR(machine=MachineConfig(n_procs=2, memory_per_proc=MB), store=gate)
        in_space = AttributeSpace.regular("s", ("x", "y"), (0, 0), (10, 10))
        coords = rng.uniform(0, 10, size=(100, 2))
        values = rng.integers(1, 20, size=100).astype(float)
        adr.load("sensors", in_space, hilbert_partition(coords, values, 20))
        out_space = AttributeSpace.regular("o", ("u", "v"), (0, 0), (1, 1))
        grid = OutputGrid(out_space, (6, 6), (3, 3))
        mapping = GridMapping(in_space, out_space, (6, 6))
        query = RangeQuery("sensors", Rect((0, 0), (10, 10)), mapping, grid,
                           aggregation="sum", strategy="FRA")
        policy = ServicePolicy(max_queue=1, max_inflight=1, batch_max=1)
        with ADRServer(adr, port=0, policy=policy) as server:
            background = []

            def blocked_query():
                with ADRClient(*server.address) as c:
                    background.append(c.query(query))

            threads = [threading.Thread(target=blocked_query) for _ in range(2)]
            deadline = time.monotonic() + 10
            with ADRClient(*server.address) as probe:
                def wait_for(condition):
                    while True:
                        stats = probe.stats()
                        if condition(stats):
                            return
                        assert time.monotonic() < deadline, stats
                        time.sleep(0.01)

                # sequence the saturation: first query in flight
                # (blocked on the gate), then the second one queued --
                # submitting both at once would race the worker's
                # dequeue and reject a background client instead of
                # the probe.
                threads[0].start()
                wait_for(lambda s: s["in_flight"] >= 1)
                threads[1].start()
                wait_for(lambda s: s["queue_depth"] >= 1)
                response = probe._call(
                    {"op": "query", "query": query_to_dict_helper(query)}
                )
                assert response["ok"] is False
                assert response["code"] == "overloaded"
            gate.gate.set()
            for t in threads:
                t.join(timeout=30)
            assert len(background) == 2


def query_to_dict_helper(query):
    from repro.frontend.protocol import query_to_dict

    return query_to_dict(query)


class TestStatsEndpoint:
    def test_stats_roundtrip(self, service):
        adr, server, query = service
        with ADRClient(*server.address) as client:
            before = client.stats()
            assert before["queue_depth"] == 0
            client.query(query)
            after = client.stats()
        assert after["completed"] == before["completed"] + 1
        assert after["submitted"] == before["submitted"] + 1
        for key in ("rejected", "failed", "batches", "batched_queries",
                    "shared_reads", "shared_bytes", "in_flight", "policy",
                    "cache"):
            assert key in after
        assert 0.0 <= after["cache"]["chunk_hit_rate"] <= 1.0

    def test_stats_is_json_clean(self, service):
        adr, server, query = service
        with ADRClient(*server.address) as client:
            client.query(query)
            stats = client.stats()
        json.dumps(stats)  # wire-safe by construction


class TestQueryServiceInfo:
    def test_response_carries_service_diagnostics(self, service):
        adr, server, query = service
        with ADRClient(*server.address) as client:
            result, info = client.query_with_info(query)
        assert result.n_reads > 0
        assert info is not None
        for key in ("queue_wait_s", "batch_size", "batch_pos",
                    "shared_reads", "shared_bytes"):
            assert key in info
        assert info["batch_size"] >= 1


class TestClientThreadSafety:
    def test_shared_client_serializes_frames(self, service):
        """Regression: one ADRClient shared by many threads must not
        interleave request/response frames (the old unlocked client
        corrupted the stream)."""
        adr, server, query = service
        expected = adr.execute(query)
        failures = []
        lock = threading.Lock()
        with ADRClient(*server.address) as client:
            def hammer(tid):
                try:
                    for i in range(5):
                        if (tid + i) % 2:
                            assert client.ping()
                        else:
                            result = client.query(query)
                            assert result.output_ids.tolist() == \
                                expected.output_ids.tolist()
                            for a, b in zip(result.chunk_values,
                                            expected.chunk_values):
                                np.testing.assert_allclose(a, b, equal_nan=True)
                except BaseException as e:
                    with lock:
                        failures.append(e)

            threads = [threading.Thread(target=hammer, args=(t,))
                       for t in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        assert not failures, failures[0]


class TestClientDeadlines:
    @pytest.fixture
    def black_hole(self):
        """A listener that accepts connections and never answers."""
        import socket

        sink = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sink.bind(("127.0.0.1", 0))
        sink.listen(4)
        yield sink.getsockname()
        sink.close()

    def test_deadline_bounds_a_stalled_exchange(self, black_hole):
        from repro.frontend.protocol import DeadlineExceededError

        client = ADRClient(*black_hole, timeout=30.0)
        start = time.monotonic()
        with pytest.raises(DeadlineExceededError):
            client.ping(deadline=0.3)
        assert time.monotonic() - start < 5.0
        client.close()

    def test_expired_client_is_broken_until_reopened(self, black_hole):
        from repro.frontend.protocol import DeadlineExceededError

        client = ADRClient(*black_hole, timeout=30.0)
        with pytest.raises(DeadlineExceededError):
            client.ping(deadline=0.2)
        # The stream is desynchronized; reuse must fail loudly rather
        # than read the stalled exchange's eventual response bytes.
        with pytest.raises(ConnectionError, match="open a new ADRClient"):
            client.ping()
        client.close()

    def test_deadline_does_not_fire_on_fast_exchanges(self, service):
        adr, server, query = service
        with ADRClient(*server.address) as client:
            assert client.ping(deadline=10.0)
            result = client.query(query, deadline=30.0)
            assert result.n_reads > 0


class TestInterleavedOps:
    def test_mixed_op_sequence_on_one_connection(self, service):
        """Every op type interleaved on a single connection: each
        response must match its request (no frame misattribution)."""
        adr, server, query = service
        expected = adr.execute(query)
        with ADRClient(*server.address) as client:
            assert client.ping()
            r1 = client.query(query)
            stats = client.stats()
            health = client.health()
            r2 = client.query(query)
        assert health["status"] == "serving"
        assert stats["completed"] >= 1
        for r in (r1, r2):
            assert r.output_ids.tolist() == expected.output_ids.tolist()
            for a, b in zip(r.chunk_values, expected.chunk_values):
                np.testing.assert_allclose(a, b, equal_nan=True)


class TestDrainOverTheWire:
    def test_drain_rejects_queries_keeps_probes(self, service):
        from repro.frontend.service import RemoteQueryError

        adr, server, query = service
        with ADRClient(*server.address) as client:
            health = client.drain()
            assert health["status"] == "draining"
            # Probes keep working so operators can watch the drain.
            assert client.ping()
            assert client.health()["status"] == "draining"
            with pytest.raises(RemoteQueryError) as exc:
                client.query(query)
            assert exc.value.code == "shard_unavailable"
