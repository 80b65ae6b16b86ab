"""RetryPolicy backoff/deadline arithmetic and the retrying store.

All timing runs on a fake clock -- these tests never actually sleep.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.chunk import Chunk
from repro.store.chunk_store import FileChunkStore, MemoryChunkStore, unwrap
from repro.store.format import CorruptChunkError
from repro.store.retry import DEFAULT_RETRY_ON, RetryPolicy, RetryingChunkStore


class FakeClock:
    """Monotonic clock advanced only by (recorded) sleeps."""

    def __init__(self) -> None:
        self.now = 0.0
        self.sleeps = []

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


class Flaky:
    """Callable failing the first *n* calls with *exc*."""

    def __init__(self, n: int, exc: Exception, value="ok") -> None:
        self.n = n
        self.exc = exc
        self.value = value
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.n:
            raise self.exc
        return self.value


def run_one(policy, fn, **kw):
    """*fn* under *policy* as the one slot of a batch: its value, or
    its last error raised."""

    def once(_keys):
        try:
            return [fn()]
        except Exception as e:
            return [e]

    return unwrap(policy.run_batch(once, [None], **kw)[0])


class TestBackoffArithmetic:
    def test_delay_schedule(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.1, multiplier=2.0,
                             max_delay=0.5)
        assert [policy.delay(k) for k in range(4)] == [0.1, 0.2, 0.4, 0.5]
        assert list(policy.delays()) == [0.1, 0.2, 0.4, 0.5]

    def test_delays_capped_at_max_delay(self):
        policy = RetryPolicy(max_attempts=10, base_delay=1.0, multiplier=3.0,
                             max_delay=2.5)
        assert all(d <= 2.5 for d in policy.delays())

    @given(
        st.integers(1, 8),
        st.floats(0.0, 1.0),
        st.floats(1.0, 4.0),
        st.floats(0.0, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_schedule_properties(self, attempts, base, mult, cap):
        """Backoffs are non-negative, non-decreasing up to the cap, and
        there are exactly max_attempts - 1 of them."""
        policy = RetryPolicy(max_attempts=attempts, base_delay=base,
                             multiplier=mult, max_delay=cap)
        delays = list(policy.delays())
        assert len(delays) == attempts - 1
        assert all(d >= 0 for d in delays)
        assert all(d <= max(cap, 0) or np.isclose(d, cap) for d in delays)
        assert all(a <= b or np.isclose(a, b) for a, b in zip(delays, delays[1:]))

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="delays"):
            RetryPolicy(base_delay=-1)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError, match="deadline"):
            RetryPolicy(deadline=0)


class TestRunSemantics:
    def test_success_after_transient_failures(self):
        fake = FakeClock()
        policy = RetryPolicy(max_attempts=4, base_delay=0.1, multiplier=2.0)
        fn = Flaky(2, OSError("flaky disk"))
        assert run_one(policy, fn, clock=fake.clock, sleep=fake.sleep) == "ok"
        assert fn.calls == 3
        assert fake.sleeps == [0.1, 0.2]

    def test_exhaustion_reraises_last_error_unchanged(self):
        fake = FakeClock()
        policy = RetryPolicy(max_attempts=3, base_delay=0.1)
        err = CorruptChunkError("CRC mismatch")
        fn = Flaky(99, err)
        with pytest.raises(CorruptChunkError) as excinfo:
            run_one(policy, fn, clock=fake.clock, sleep=fake.sleep)
        assert excinfo.value is err
        assert fn.calls == 3
        assert fake.sleeps == [0.1, 0.2]  # no sleep after the last attempt

    def test_non_retryable_propagates_immediately(self):
        fake = FakeClock()
        policy = RetryPolicy(max_attempts=5, base_delay=0.1)
        fn = Flaky(99, KeyError("absent"))
        with pytest.raises(KeyError):
            run_one(policy, fn, clock=fake.clock, sleep=fake.sleep)
        assert fn.calls == 1 and fake.sleeps == []

    def test_deadline_checked_before_sleeping(self):
        """A backoff that would overrun the deadline is not slept; the
        read fails with the underlying error right away."""
        fake = FakeClock()
        policy = RetryPolicy(max_attempts=10, base_delay=0.6, multiplier=1.0,
                             max_delay=0.6, deadline=1.0)
        fn = Flaky(99, OSError("down"))
        with pytest.raises(OSError):
            run_one(policy, fn, clock=fake.clock, sleep=fake.sleep)
        # attempt 0 fails -> sleep 0.6 (0.0 + 0.6 <= 1.0);
        # attempt 1 fails -> next 0.6 would reach 1.2 > 1.0 -> raise now.
        assert fake.sleeps == [0.6]
        assert fn.calls == 2
        assert fake.now == pytest.approx(0.6)

    @given(st.integers(1, 6), st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_total_sleep_never_exceeds_deadline(self, attempts, tenths):
        """Property: accumulated fake-clock time stays within deadline."""
        deadline = 0.1 + tenths / 10.0
        fake = FakeClock()
        policy = RetryPolicy(max_attempts=attempts, base_delay=0.07,
                             multiplier=2.0, max_delay=5.0, deadline=deadline)
        fn = Flaky(99, OSError("down"))
        with pytest.raises(OSError):
            run_one(policy, fn, clock=fake.clock, sleep=fake.sleep)
        assert fake.now <= deadline + 1e-9

    def test_default_retry_on(self):
        assert OSError in DEFAULT_RETRY_ON
        assert CorruptChunkError in DEFAULT_RETRY_ON


def _store_with_chunk(rng):
    store = MemoryChunkStore()
    coords = rng.uniform(0, 10, size=(5, 2))
    values = rng.uniform(0, 1, size=(5, 1))
    store.write_chunk("d", Chunk.from_items(0, coords, values), 0, 0)
    return store


class TestRetryingChunkStore:
    def test_read_retries_then_succeeds(self, rng):
        inner = _store_with_chunk(rng)
        real_read = inner.read_chunk
        failures = {"left": 2}

        def flaky_read(dataset, chunk_id):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise OSError("transient")
            return real_read(dataset, chunk_id)

        inner.read_chunk = flaky_read
        store = RetryingChunkStore(inner, RetryPolicy(max_attempts=4, base_delay=0))
        assert store.read_chunk("d", 0).chunk_id == 0

    def test_absence_not_retried(self, rng):
        inner = _store_with_chunk(rng)
        calls = {"n": 0}
        real_read = inner.read_chunk

        def counting_read(dataset, chunk_id):
            calls["n"] += 1
            return real_read(dataset, chunk_id)

        inner.read_chunk = counting_read
        store = RetryingChunkStore(inner, RetryPolicy(max_attempts=4, base_delay=0))
        with pytest.raises(KeyError):
            store.read_chunk("d", 99)
        assert calls["n"] == 1

    def test_writes_pass_through(self, rng):
        inner = MemoryChunkStore()
        store = RetryingChunkStore(inner, RetryPolicy(base_delay=0))
        coords = rng.uniform(0, 10, size=(3, 2))
        store.write_chunk("d", Chunk.from_items(1, coords, np.ones((3, 1))), 0, 0)
        assert inner.chunk_ids("d") == [1]
        assert store.placement("d", 1) == (0, 0)


class TestFileStoreRetry:
    def test_corrupt_file_retried_then_surfaced(self, rng, tmp_path):
        """A persistently corrupt file exhausts the budget and raises
        the real CorruptChunkError, not a wrapper."""
        with pytest.raises(TypeError):  # the wrapper is the one wiring point
            FileChunkStore(tmp_path, retry=RetryPolicy())
        base = FileChunkStore(tmp_path)
        store = RetryingChunkStore(base, RetryPolicy(max_attempts=3, base_delay=0))
        coords = rng.uniform(0, 10, size=(4, 2))
        store.write_chunk("d", Chunk.from_items(0, coords, np.ones((4, 1))), 0, 0)
        path = Path(base._chunk_path("d", 0, 0, 0))
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptChunkError):
            store.read_chunk("d", 0)

    def test_transient_corruption_healed_by_retry(self, rng, tmp_path):
        """If the file is repaired between attempts (transient bus/cache
        corruption), the retried read succeeds -- the heal happens in a
        zero-delay sleep hook, inside the store's own retry loop."""
        coords = rng.uniform(0, 10, size=(4, 2))
        plain = FileChunkStore(tmp_path)
        plain.write_chunk("d", Chunk.from_items(0, coords, np.ones((4, 1))), 0, 0)
        path = Path(plain._chunk_path("d", 0, 0, 0))
        good = path.read_bytes()
        raw = bytearray(good)
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))

        heal = lambda: path.write_bytes(good)  # noqa: E731
        policy = RetryPolicy(max_attempts=3, base_delay=0)
        (chunk,) = policy.run_batch(
            lambda ids: FileChunkStore(tmp_path).read_batch("d", ids), [0],
            sleep=lambda _pause: heal(),
        )
        assert chunk.chunk_id == 0
        np.testing.assert_array_equal(chunk.coords, coords)
