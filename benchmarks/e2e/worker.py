"""One workload in its own process, driven pass by pass.

``run.py`` starts one worker per selected workload and sends it
commands on stdin, one per line; each is answered by one JSON line on
stdout:

- ``prepare`` -- data set-up (timed, three times), reference, and the
  verification pass, which also warms every cache;
- ``pass``    -- one timed pass over the whole op list, tracing off;
- ``tpass``   -- one traced pass (the first call builds the traced
  stack and runs its fresh-cache warm-up);
- ``finish``  -- final checks, metrics, clean-up.

Every latency is taken beside a timing of the calibration kernel
(``probes.spin``) and reported *at reference machine speed*: divided by
how much slower than ``REFERENCE_KERNEL_S`` the kernel ran around that
op.  README.md has the measurements behind that choice; the plain
best-of-pass figures are printed beside the corrected ones.

Keeping the clock in the orchestrator lets it interleave the passes of
several workloads, so that a slow episode of the machine cannot cover
all the passes of one of them.  End of stdin means the orchestrator is
gone: the worker cleans up and leaves.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import sys
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import numpy as np  # noqa: E402

import fixture  # noqa: E402
from probes import SpanLog, clock, peak_rss_mb, rss_mb, spin  # noqa: E402
from workloads import WORKLOADS, Outcome, Workload  # noqa: E402

#: timed set-ups per run; ``setup_s`` is the fastest
SETUP_REPS = 3
#: what the calibration kernel takes on the *reference machine*, the one
#: all timings are expressed for.  It fixes the unit, nothing else: a
#: latency is reported as (latency / kernel time beside it) x this.
#: 75 us is what the sandbox the benchmark was built in takes on a
#: quiet day (its best is ~60 us); every run prints the value.
REFERENCE_KERNEL_S = 75e-6
#: ops on either side whose kernel timings tell an op's machine speed
SPEED_WINDOW = 10


class Pass:
    """One pass over the op list: per op, the latency as the caller saw
    it and the kernel timing taken just before it (NaN: the op failed)."""

    def __init__(self, n_ops: int) -> None:
        self.raw = np.full(n_ops, np.nan)
        self.kernel = np.empty(n_ops)

    def slowness(self) -> np.ndarray:
        """Per op, how many times slower than the reference the kernel
        ran over the ``SPEED_WINDOW`` ops on either side."""
        total = np.concatenate([[0.0], np.cumsum(self.kernel)])
        at = np.arange(len(self.kernel))
        lo = np.clip(at - SPEED_WINDOW + 1, 0, None)
        hi = np.clip(at + SPEED_WINDOW + 1, None, len(self.kernel))
        return (total[hi] - total[lo]) / (hi - lo) / REFERENCE_KERNEL_S


class Run:
    def __init__(self, workload: Workload, spans_out: Optional[str]) -> None:
        self.w = workload
        self.spans_out = spans_out
        self.setup_s: List[float] = []
        self.digests: List[str] = []
        self.payload = 0  # chunk payload bytes one pass reduces and writes
        self.delivered = 0  # chunk payload bytes one pass hands to kernels
        self.attempted = 0
        self.failed = 0
        self.first_failure = ""
        self.passes: List[Pass] = []
        self.pass_rss: List[float] = []
        self.counters: List[Dict[str, int]] = []
        self.spans: Optional[SpanLog] = None
        self.traced: List[dict] = []
        self.layers: Dict[str, float] = {}

    # -- ops with failure accounting -----------------------------------

    def _fail(self, i: int, why: str) -> None:
        self.failed += 1
        if not self.first_failure:
            self.first_failure = f"op {i}: {why}"

    def _try(self, i: int, traced: bool) -> Tuple[Optional[Outcome], str]:
        """Op *i*, or why it raised."""
        try:
            return (self.w.run_traced_op(i) if traced else self.w.run_op(i)), ""
        except Exception:  # any failure of the program is an op failed, not a crash
            return None, traceback.format_exc(limit=3)

    def _attempt(self, i: int, traced: bool) -> Optional[Outcome]:
        """Run op *i*; an exception or a result that differs from the
        verified one is a failed op with no latency."""
        self.attempted += 1
        outcome, error = self._try(i, traced)
        if outcome is None:
            self._fail(i, error)
        elif outcome.digest(self.w.repeatable) != self.digests[i]:
            self._fail(i, "result differs from the verified result")
            return None
        return outcome

    def _pass(self, traced: bool) -> Pass:
        this = Pass(self.w.n_ops)
        for i in range(self.w.n_ops):
            # Run twice, time the second: the first pays for the caches
            # and the core state the op (or a wait for a reply) left.
            spin()
            t0 = clock()
            spin()
            this.kernel[i] = clock() - t0
            outcome = self._attempt(i, traced)
            if outcome is not None:
                this.raw[i] = outcome.seconds
        return this

    # -- commands ------------------------------------------------------

    def prepare(self) -> dict:
        """Set-ups, reference, verification pass.  ``os.sync()`` before
        each set-up and before the first op lets the lazy part of what
        came before finish outside the clock: while dirty pages and
        deletions are still being written back, every file-system call
        runs slower, by amounts that differ from run to run."""
        w = self.w
        for rep in range(SETUP_REPS):
            directory = w.workdir / f"setup{rep}"
            os.sync()
            t0 = clock()
            stack = w.build(directory)
            self.setup_s.append(clock() - t0)
            if rep + 1 < SETUP_REPS:
                del stack
                shutil.rmtree(directory)
        w.adopt(stack)
        self.layers.update(stack.layers)
        os.sync()
        reference = w.reference()
        self.counters.append(w.store_counters())
        for i in range(w.n_ops):
            self.attempted += 1
            outcome, error = self._try(i, False)
            if outcome is None:
                self._fail(i, error)
                self.digests.append("")
                continue
            if not w.verify(reference, i, outcome):
                self._fail(i, "result differs from the reference ADR")
            self.digests.append(outcome.digest(w.repeatable))
            self.payload += outcome.read_payload + outcome.written_payload
            self.delivered += outcome.read_payload
        del reference
        stack.chunks = []
        gc.collect()
        gc.freeze()
        return {"ops": w.n_ops}

    def timed_pass(self) -> dict:
        t0 = clock()
        self.passes.append(self._pass(traced=False))
        seconds = clock() - t0
        self.pass_rss.append(rss_mb())
        if len(self.counters) == 1:
            self.counters.append(self.w.store_counters())
        return {"seconds": seconds}

    def traced_pass(self) -> dict:
        w = self.w
        t0 = clock()
        if self.spans is None:
            w.close()
            gc.unfreeze()
            self.spans = SpanLog()
            stack = w.build(w.workdir / "traced", self.spans)
            w.adopt(stack, self.spans)
            self.layers.update(stack.layers)
            stack.chunks = []
            self._pass(traced=True)  # fresh caches; checked against the verified digests
            gc.collect()
            gc.freeze()
        first_row = len(self.spans.rows)
        first_read = len(w.stack.probe.read_log) if w.stack.probe is not None else 0
        before, child_before = w.store_counters(), w.child_self_s()
        w.tally = {}
        this = self._pass(traced=True)
        after, child_after = w.store_counters(), w.child_self_s()
        self_s = self.spans.self_times(first_row)
        for key, value in child_after.items():
            self_s[key] = self_s.get(key, 0.0) + value - child_before.get(key, 0.0)
        self.traced.append({
            "pass": this,
            "self_s": self_s,
            "budget_s": self.spans.self_times(first_row, under=w.root),
            "tally": dict(w.tally),
            "counters": {k: after[k] - before.get(k, 0) for k in after},
            "decode_s": w.replay_decode(first_read),
        })
        return {"seconds": clock() - t0}

    def finish(self) -> dict:
        w = self.w
        problems = w.final_check() if self.passes else []
        timed = any(not np.isnan(p.raw).all() for p in self.passes)
        code_rss = w.code_rss_mb() if w.children or not self.pass_rss else max(self.pass_rss)
        w.close()
        if self.spans is not None and self.spans_out:
            self.spans.dump(Path(self.spans_out), w.name)
        return {
            "workload": w.name,
            "root": w.root,
            "correct": self.failed == 0 and not problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": problems + ([self.first_failure] if self.first_failure else []),
            "n_ops": w.n_ops,
            "n_passes": len(self.passes),
            "ops_digest": fixture.ops_digest(w.ops),
            # No figures at all when no op ever succeeded: there is no
            # latency to report, only the failures above.
            "end_to_end": self._end_to_end(code_rss) if timed else {},
            "per_layer": self._per_layer() if timed and self.traced else {},
            "budget_ms": self._budget() if timed and self.traced else {},
            "diagnostics": self._diagnostics() if timed else {},
            # Every sample behind the figures, for --out: seconds per
            # pass and op, as seen and for the kernel beside it.
            "samples": {
                "raw_s": [p.raw.tolist() for p in self.passes],
                "kernel_s": [p.kernel.tolist() for p in self.passes],
            },
        }

    # -- metrics -------------------------------------------------------

    def _best(self, passes: List[Pass]) -> np.ndarray:
        """``best_i``: each op's fastest pass, expressed at reference
        speed by the kernel timings around that very sample (ops that
        never succeeded are dropped).  The fastest *raw* sample is
        picked, then corrected: picking the smallest corrected value
        would favour samples whose slowness happened to be overrated."""
        raw = np.vstack([p.raw for p in passes])
        slowness = np.vstack([p.slowness() for p in passes])
        ran = ~np.isnan(raw).all(axis=0)
        fastest = np.nanargmin(raw[:, ran], axis=0)
        at = np.arange(int(ran.sum()))
        return raw[:, ran][fastest, at] / slowness[:, ran][fastest, at]

    def _end_to_end(self, code_rss: float) -> Dict[str, float]:
        w = self.w
        best = self._best(self.passes)
        total = float(best.sum())
        fetched = self.counters[-1]["read_bytes"] - self.counters[0]["read_bytes"]
        counted_passes = len(self.counters)  # verification pass + first timed pass
        return {
            "setup_s": min(self.setup_s),
            "qps": w.callers * len(best) / total,
            "mb_s": self.payload / 1e6 / total,
            "p50_ms": 1e3 * float(np.median(best)),
            "p95_ms": 1e3 * float(np.percentile(best, 95)),
            "peak_rss_mb": code_rss,
            "read_amp": fetched / (counted_passes * self.delivered),
        }

    def _diagnostics(self) -> Dict[str, float]:
        """The kernel as this run saw it, and the timing figures as
        plain best-of-pass (``min_j L[j,i]``, no correction)."""
        raw = np.vstack([p.raw for p in self.passes])
        kernels = np.vstack([p.kernel for p in self.passes])
        plain = np.nanmin(raw[:, ~np.isnan(raw).all(axis=0)], axis=0)
        return {
            "reference_kernel_us": 1e6 * REFERENCE_KERNEL_S,
            "kernel_min_us": 1e6 * float(kernels.min()),
            "kernel_median_us": 1e6 * float(np.median(kernels)),
            "plain_qps": self.w.callers * len(plain) / float(plain.sum()),
            "plain_p50_ms": 1e3 * float(np.median(plain)),
            "plain_p95_ms": 1e3 * float(np.percentile(plain, 95)),
        }

    def _traced_speed(self) -> List[float]:
        """Per traced pass, the mean slowness its span times are divided
        by, so that layers read at reference speed like the end-to-end
        figures they add up to."""
        return [float(t["pass"].slowness().mean()) for t in self.traced]

    def _budget(self) -> Dict[str, float]:
        """Self ms/op of every span under the op's root span, from the
        faster traced pass; the root's own entry is what no span covers."""
        speed = self._traced_speed()
        k = int(np.argmin([sum(t["budget_s"].values()) / f for t, f in zip(self.traced, speed)]))
        scale = 1e3 / speed[k] / self.w.n_ops
        return {name: seconds * scale for name, seconds in self.traced[k]["budget_s"].items()}

    def _per_layer(self) -> Dict[str, float]:
        w = self.w
        n = w.n_ops
        speed = self._traced_speed()
        ms = {}  # span self time per op at reference speed, the faster traced pass
        for key in {k for t in self.traced for k in t["self_s"]}:
            ms[key] = 1e3 * min(t["self_s"].get(key, 0.0) / f for t, f in zip(self.traced, speed)) / n
        last = self.traced[-1]
        tally = {k: v / n for k, v in last["tally"].items()}
        for key in tally:
            if key.endswith("_ms"):
                tally[key] /= speed[-1]
        count = {k: v / n for k, v in last["counters"].items()}
        budget = self._budget()
        root_ms = sum(budget.values())
        fair = min(len(self.traced), len(self.passes))
        raw = np.vstack([p.raw for p in self.passes])

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        out = {
            "index.query_ms": ms.get("index.query", 0.0),
            "index.build_s": self.layers.get("index.build_s", 0.0),
            "dataset.partition_s": self.layers.get("dataset.partition_s", 0.0),
            "dataset.describe_ms": ms.get("dataset.describe", 0.0),
            "planner.build_problem_ms": ms.get("planner.build_problem", 0.0),
            "planner.select_ms": ms.get("planner.select", 0.0),
            "planner.validate_ms": ms.get("planner.validate", 0.0),
            "store.read_ms": ms.get("store.read", 0.0),
            "store.reads": count.get("reads", 0.0),
            "store.read_bytes": count.get("read_bytes", 0.0),
            "store.cache_ms": ms.get("store.cache", 0.0),
            "store.cache_hit_ratio": ratio(
                count.get("chunk_hits", 0.0),
                count.get("chunk_hits", 0.0) + count.get("chunk_misses", 0.0),
            ),
            "store.decode_ms": 1e3 * min(t["decode_s"] / f for t, f in zip(self.traced, speed)) / n,
            "store.write_ms": ms.get("store.write", 0.0),
            "store.writes": count.get("writes", 0.0),
            "store.write_bytes": count.get("write_bytes", 0.0),
            "store.write_amp": ratio(
                count.get("write_bytes", 0.0) + count.get("manifest_bytes", 0.0),
                (self.payload - self.delivered) / n,
            ),
            "runtime.execute_ms": ms.get("runtime.execute", 0.0),
            "runtime.routing_hit_ratio": ratio(
                tally.get("routing_hits", 0.0),
                tally.get("routing_hits", 0.0) + tally.get("routing_misses", 0.0),
            ),
            "frontend.adr.execute_ms": root_ms if w.root == "frontend.adr.execute" else 0.0,
            "frontend.adr.unattributed_ms": ms.get("frontend.adr.execute", 0.0),
            "frontend.adr.write_back_ms": ms.get("frontend.adr.write_back", 0.0),
            "frontend.protocol.encode_query_ms": ms.get("frontend.protocol.encode_query", 0.0),
            "frontend.protocol.decode_result_ms": ms.get(
                "frontend.protocol.decode_result",
                tally.get("frontend.protocol.decode_result_ms", 0.0),
            ),
            "frontend.service.wait_ms": ms.get("frontend.service.wait", 0.0),
            "frontend.service.read_frame_ms": ms.get("frontend.service.read_frame", 0.0),
            "frontend.service.spawn_s": self.layers.get("frontend.service.spawn_s", 0.0),
            "frontend.queryservice.batched_share": ratio(tally.get("batched", 0.0), w.callers),
            "frontend.queryservice.shared_read_ratio": ratio(
                tally.get("shared_bytes", 0.0), tally.get("read_payload", 0.0)
            ),
            "shard.router.plan_ms": ms.get("shard.router.plan", 0.0),
            "shard.router.rpc_max_ms": ms.get("shard.router.rpc", 0.0),
            "shard.router.merge_ms": ms.get("shard.router.merge", 0.0),
            "trace.coverage": 1.0 - ratio(budget.get(w.root, 0.0), root_ms),
            # Best of equally many passes on either side, or the side
            # with more passes would look faster for that alone.
            "trace.overhead": ratio(
                float(self._best([t["pass"] for t in self.traced][:fair]).sum()),
                float(self._best(self.passes[:fair]).sum()),
            ) - 1.0,
            "client.noise_ratio": ratio(
                float(np.nansum(np.nanmedian(raw, axis=0))), float(np.nansum(np.nanmin(raw, axis=0)))
            ),
            "client.machine_slowness": float(np.median(
                np.concatenate([p.slowness() for p in self.passes])
            )),
            "client.peak_rss_mb": peak_rss_mb(),
        }
        for key in (
            "index.candidates", "dataset.pruned_chunks", "dataset.pruned_bytes",
            "planner.plans_priced", "planner.tiles",
            "runtime.phase_initialize_ms", "runtime.phase_reduce_ms",
            "runtime.phase_combine_ms", "runtime.phase_output_ms",
            "runtime.aggregations", "runtime.combines",
            "frontend.protocol.encode_result_ms", "frontend.protocol.request_bytes",
            "frontend.protocol.response_bytes",
            "frontend.queryservice.queue_wait_ms", "frontend.queryservice.batch_size",
            "shard.router.rpc_skew", "shard.partial.combine_ms",
            "shard.partial.response_bytes",
        ):
            out[key] = tally.get(key, 0.0)
        # Per query, not per burst of two.
        for key in ("frontend.queryservice.queue_wait_ms", "frontend.queryservice.batch_size"):
            out[key] /= w.callers
        pooled = 1e3 * raw[~np.isnan(raw)]
        for q in (50, 95, 99):
            out[f"client.raw_p{q}_ms"] = float(np.percentile(pooled, q))
        return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()
    # The orchestrator stops a worker with SIGTERM; leave through the
    # ``finally`` below so the children are reaped first.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    scale = fixture.TINY if args.tiny else fixture.FULL
    workload = WORKLOADS[args.workload](args.seed, scale, workdir)
    run = Run(workload, args.spans_out)
    commands = {
        "prepare": run.prepare, "pass": run.timed_pass,
        "tpass": run.traced_pass, "finish": run.finish,
    }
    try:
        for line in sys.stdin:
            command = line.strip()
            print(json.dumps(commands[command]()), flush=True)
            if command == "finish":
                return 0
        return 1  # the orchestrator went away mid-run
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
