"""Tests for the wire-level chaos proxy and its fault plans."""

import time

import pytest

from repro.dataset.partition import hilbert_partition
from repro.faults.wire import (
    WIRE_FAULT_KINDS,
    ChaosProxy,
    WireFaultPlan,
    WireFaultSpec,
)
from repro.frontend.adr import ADR
from repro.frontend.protocol import ProtocolError
from repro.frontend.service import ADRClient, ADRServer
from repro.machine.config import MachineConfig
from repro.space.attribute_space import AttributeSpace
from repro.util.units import MB


@pytest.fixture
def server(rng):
    adr = ADR(machine=MachineConfig(n_procs=2, memory_per_proc=MB))
    space = AttributeSpace.regular("s", ("x", "y"), (0, 0), (10, 10))
    coords = rng.uniform(0, 10, size=(100, 2))
    values = rng.integers(1, 20, size=100).astype(float)
    adr.load("sensors", space, hilbert_partition(coords, values, 20))
    with ADRServer(adr, port=0) as srv:
        yield srv


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown wire fault kind"):
            WireFaultSpec("explode")

    def test_bounds_enforced(self):
        with pytest.raises(ValueError, match="probability"):
            WireFaultSpec("refuse", p=1.5)
        with pytest.raises(ValueError, match="times"):
            WireFaultSpec("refuse", times=0)
        with pytest.raises(ValueError, match="delay_s"):
            WireFaultSpec("delay", delay_s=-1.0)
        with pytest.raises(ValueError, match="after_bytes"):
            WireFaultSpec("cut", after_bytes=-1)

    def test_every_kind_constructible(self):
        for kind in WIRE_FAULT_KINDS:
            assert WireFaultSpec(kind).kind == kind


class TestPlanConstructors:
    def test_constructors_map_to_specs(self):
        assert WireFaultPlan.refuse(times=None).specs[0] == WireFaultSpec(
            "refuse", times=None
        )
        assert WireFaultPlan.slow(2.5).specs[0] == WireFaultSpec(
            "delay", delay_s=2.5
        )
        assert WireFaultPlan.cut().specs[0] == WireFaultSpec(
            "cut", after_bytes=6
        )
        assert WireFaultPlan.corrupt(after_bytes=9).specs[0] == WireFaultSpec(
            "corrupt", after_bytes=9
        )

    def test_extend_preserves_seed(self):
        plan = WireFaultPlan.refuse(seed=7).extend(WireFaultSpec("cut"))
        assert len(plan) == 2
        assert plan.seed == 7


def client_through(proxy, timeout=5.0):
    return ADRClient(*proxy.address, timeout=timeout)


class TestChaosProxy:
    def test_clean_plan_forwards_verbatim(self, server):
        with ChaosProxy(server.address, WireFaultPlan()) as proxy:
            with client_through(proxy) as client:
                assert client.ping()
                stats = client.stats()
        assert stats["policy"]["max_queue"] > 0

    def test_refuse_once_then_heals(self, server):
        with ChaosProxy(server.address, WireFaultPlan.refuse(times=1)) as proxy:
            with pytest.raises((OSError, ProtocolError)):
                with client_through(proxy) as client:
                    client.ping()
            # The spec is spent: the next connection passes untouched.
            with client_through(proxy) as client:
                assert client.ping()

    def test_refuse_all_never_heals(self, server):
        with ChaosProxy(server.address, WireFaultPlan.refuse(times=None)) as proxy:
            for _ in range(3):
                with pytest.raises((OSError, ProtocolError)):
                    with client_through(proxy) as client:
                        client.ping()

    def test_cut_surfaces_torn_frame(self, server):
        with ChaosProxy(server.address, WireFaultPlan.cut(after_bytes=6)) as proxy:
            with client_through(proxy) as client:
                with pytest.raises(ProtocolError, match="torn frame"):
                    client.ping()
                # A half-finished exchange poisons the client loudly.
                with pytest.raises(ConnectionError, match="broken"):
                    client.ping()

    def test_corrupt_header_declares_oversized_frame(self, server):
        """Flipping the response's first byte turns the 4-byte length
        header into an absurd declared length the client must refuse
        before reading (or allocating) anything."""
        with ChaosProxy(server.address, WireFaultPlan.corrupt(after_bytes=0)) as proxy:
            with client_through(proxy) as client:
                with pytest.raises(ProtocolError, match="exceeds MAX_FRAME_BYTES"):
                    client.ping()

    def test_corrupt_payload_breaks_the_json(self, server):
        with ChaosProxy(server.address, WireFaultPlan.corrupt(after_bytes=8)) as proxy:
            with client_through(proxy) as client:
                with pytest.raises(ProtocolError, match="bad frame payload"):
                    client.ping()

    def test_delay_stalls_at_least_delay_seconds(self, server):
        with ChaosProxy(server.address, WireFaultPlan.slow(0.3)) as proxy:
            with client_through(proxy) as client:
                start = time.monotonic()
                assert client.ping()
                assert time.monotonic() - start >= 0.3

    def test_zero_probability_never_fires(self, server):
        plan = WireFaultPlan(
            (WireFaultSpec("refuse", p=0.0, times=None),), seed=3
        )
        with ChaosProxy(server.address, plan) as proxy:
            for _ in range(3):
                with client_through(proxy) as client:
                    assert client.ping()

    def test_close_converges_with_connection_open(self, server):
        proxy = ChaosProxy(server.address, WireFaultPlan()).start()
        client = client_through(proxy)
        assert client.ping()
        start = time.monotonic()
        proxy.close()
        assert time.monotonic() - start < 10.0
        client.close()
