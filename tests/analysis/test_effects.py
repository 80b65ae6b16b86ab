"""Tests for the ADR7xx dataflow/concurrency lint.

Each rule gets a firing snippet (seeded mutation of the real pattern
it guards) and a clean counterpart proving the guard does not
overreach.  The snippets run through :func:`lint_source` at a path
under the concurrency paths, so noqa handling and diagnostic plumbing
are exercised too.
"""

import textwrap
from pathlib import Path

from repro.analysis import Severity, lint_source
from repro.analysis.effects import check_effects
from repro.analysis.lint import lint_file


def findings(src, path="repro/runtime/mod.py"):
    return lint_source(textwrap.dedent(src), path)


def codes(src, **kwargs):
    return {d.code for d in findings(src, **kwargs)}


class TestThreadWorkerWrites:
    """ADR701: thread-worker functions mutate shared state under a
    lock or not at all."""

    UNGUARDED = """
    import threading

    class Prefetcher:
        def start(self):
            self._th = threading.Thread(target=self._work, daemon=True)
            self._th.start()

        def _work(self):
            self.results[0] = fetch()
    """

    GUARDED = """
    import threading

    class Prefetcher:
        def start(self):
            self._th = threading.Thread(target=self._work, daemon=True)
            self._th.start()

        def _work(self):
            with self._cv:
                self.results[0] = fetch()
    """

    def test_unguarded_write_flagged(self):
        out = findings(self.UNGUARDED)
        assert [d.code for d in out] == ["ADR701"]
        assert out[0].severity == Severity.ERROR
        assert "self.results" in out[0].message

    def test_write_under_lock_ok(self):
        assert codes(self.GUARDED) == set()

    def test_mutating_method_call_flagged(self):
        src = self.UNGUARDED.replace(
            "self.results[0] = fetch()", "self.results.append(fetch())"
        )
        assert codes(src) == {"ADR701"}

    def test_non_worker_method_not_flagged(self):
        src = """
        import threading

        class Prefetcher:
            def start(self):
                self._th = threading.Thread(target=self._work, daemon=True)

            def _work(self):
                pass

            def reset(self):
                self.results = {}
        """
        assert codes(src) == set()

    def test_process_targets_exempt(self):
        # multiprocessing workers get a copied address space: writes
        # there are not shared-state races.
        src = """
        import multiprocessing as mp

        class Host:
            def start(self):
                self._p = mp.Process(target=self._work)

            def _work(self):
                self.local = compute()
        """
        assert codes(src) == set()

    def test_outside_concurrency_paths_not_flagged(self):
        assert codes(self.UNGUARDED, path="repro/planner/mod.py") == set()


class TestLockOrder:
    """ADR702: one global lock order per module."""

    ABBA = """
    def one(self):
        with self._alock:
            with self._block:
                work()

    def two(self):
        with self._block:
            with self._alock:
                work()
    """

    def test_abba_nesting_flagged(self):
        out = findings(self.ABBA)
        assert [d.code for d in out] == ["ADR702"]
        assert "ABBA" in out[0].message

    def test_consistent_nesting_ok(self):
        src = """
        def one(self):
            with self._alock:
                with self._block:
                    work()

        def two(self):
            with self._alock:
                with self._block:
                    other()
        """
        assert codes(src) == set()

    def test_non_lock_contexts_ignored(self):
        src = """
        def one(self):
            with open(a) as f:
                with open(b) as g:
                    copy(f, g)

        def two(self):
            with open(b) as g:
                with open(a) as f:
                    copy(g, f)
        """
        assert codes(src) == set()


class TestUnboundedWaits:
    """ADR703: every blocking wait in the concurrency-critical paths
    carries a timeout."""

    def test_bare_queue_get_flagged(self):
        assert codes("item = q.get()\n") == {"ADR703"}

    def test_bare_join_flagged(self):
        assert codes("th.join()\n") == {"ADR703"}

    def test_timeout_variants_ok(self):
        assert codes("item = q.get(timeout=5.0)\n") == set()
        assert codes("item = q.get(True, 5.0)\n") == set()
        assert codes("th.join(timeout=deadline - now)\n") == set()

    def test_string_join_ok(self):
        assert codes("s = ', '.join(names)\n") == set()

    def test_dict_get_with_default_ok(self):
        assert codes("v = d.get(key, None)\n") == set()

    def test_outside_concurrency_paths_not_flagged(self):
        assert codes("item = q.get()\n", path="repro/planner/mod.py") == set()

    def test_noqa_opt_out(self):
        src = "item = q.get()  # noqa: ADR703 -- consumer owns the queue\n"
        assert codes(src) == set()


class TestSharedMemoryCleanup:
    """ADR704: SharedMemory bindings need close (+unlink when created)
    on a finally path of the same function."""

    LEAKY = """
    from multiprocessing import shared_memory

    def attach(name):
        shm = shared_memory.SharedMemory(name=name)
        return consume(shm.buf)
    """

    CLEAN = """
    from multiprocessing import shared_memory

    def attach(name):
        shm = shared_memory.SharedMemory(name=name)
        try:
            return consume(shm.buf)
        finally:
            shm.close()
    """

    def test_missing_close_flagged(self):
        out = findings(self.LEAKY)
        assert [d.code for d in out] == ["ADR704"]
        assert "shm.close()" in out[0].message

    def test_close_in_finally_ok(self):
        assert codes(self.CLEAN) == set()

    def test_created_segment_also_needs_unlink(self):
        src = self.CLEAN.replace(
            "SharedMemory(name=name)", "SharedMemory(create=True, size=n)"
        )
        out = findings(src)
        assert [d.code for d in out] == ["ADR704"]
        assert "shm.unlink()" in out[0].message

    def test_created_segment_with_both_ok(self):
        src = """
        from multiprocessing import shared_memory

        def serve(n):
            shm = shared_memory.SharedMemory(create=True, size=n)
            try:
                fill(shm.buf)
            finally:
                shm.close()
                shm.unlink()
        """
        assert codes(src) == set()

    def test_nested_function_scopes_are_separate(self):
        # A finally in an inner function must not satisfy an outer
        # binding (and vice versa).
        src = """
        from multiprocessing import shared_memory

        def outer(name):
            shm = shared_memory.SharedMemory(name=name)

            def inner(other):
                shm2 = shared_memory.SharedMemory(name=other)
                try:
                    return consume(shm2.buf)
                finally:
                    shm2.close()

            return inner
        """
        out = findings(src)
        assert [d.code for d in out] == ["ADR704"]
        assert "'shm'" in out[0].message


class TestGuardedCache:
    """ADR705: the guarded-cache module mutates only under the lock
    or in *_locked helpers."""

    def fcodes(self, src):
        return codes(src, path="repro/store/cache.py")

    def test_unlocked_mutation_flagged(self):
        src = """
        class Cache:
            def drop(self, key):
                self._entries.pop(key)
        """
        assert self.fcodes(src) == {"ADR705"}

    def test_mutation_under_lock_ok(self):
        src = """
        class Cache:
            def drop(self, key):
                with self._lock:
                    self._entries.pop(key)
        """
        assert self.fcodes(src) == set()

    def test_locked_helper_ok(self):
        src = """
        class Cache:
            def _insert_locked(self, key, chunk):
                self._entries[key] = chunk
                self._bytes += 64
        """
        assert self.fcodes(src) == set()

    def test_init_exempt(self):
        src = """
        class Cache:
            def __init__(self):
                self._entries = {}
                self._bytes = 0
        """
        assert self.fcodes(src) == set()

    def test_counter_augassign_flagged(self):
        src = """
        class Cache:
            def hit(self):
                self.hits += 1
        """
        assert self.fcodes(src) == {"ADR705"}

    def test_not_enforced_outside_cache_module(self):
        src = """
        class Other:
            def bump(self):
                self.hits += 1
        """
        assert codes(src) == set()


class TestScopeResolution:
    """lint_file turns file locations into the right rule scopes."""

    UNBOUNDED = "item = q.get()\n"

    def test_concurrency_paths_get_adr7xx(self, tmp_path):
        hot = tmp_path / "repro" / "frontend" / "mod.py"
        hot.parent.mkdir(parents=True)
        hot.write_text(self.UNBOUNDED)
        cold = tmp_path / "repro" / "planner" / "mod.py"
        cold.parent.mkdir(parents=True)
        cold.write_text(self.UNBOUNDED)
        assert {d.code for d in lint_file(hot)} == {"ADR703"}
        assert {d.code for d in lint_file(cold)} == set()

    def test_cache_module_gets_adr705(self, tmp_path):
        src = "class C:\n    def f(self):\n        self.hits += 1\n"
        cache = tmp_path / "repro" / "store" / "cache.py"
        cache.parent.mkdir(parents=True)
        cache.write_text(src)
        other = tmp_path / "repro" / "store" / "other.py"
        other.write_text(src)
        assert {d.code for d in lint_file(cache)} == {"ADR705"}
        assert {d.code for d in lint_file(other)} == set()


class TestCheckEffectsApi:
    def test_syntax_error_returns_nothing(self):
        # the project lint owns ADR300 for unparseable files
        assert check_effects("def f(:\n", "mod.py") == []

    def test_real_cache_module_is_clean(self):
        root = Path(__file__).resolve().parents[2]
        cache = root / "src" / "repro" / "store" / "cache.py"
        assert lint_file(cache) == []
