"""Child launcher: one ``ADRServer`` or ``ShardServer`` over a
``FileChunkStore``, for the ``service_shared`` and ``shard_scatter``
workloads.

Loads the pickled chunk list its parent wrote, prints ``PORT <n>`` then
``READY`` like ``repro.shard.server``, then answers ``STATS`` lines on
stdin with one JSON line of probe counters.  End of stdin is the
shutdown signal, so the child cannot outlive the process that holds
its pipe.
"""

from __future__ import annotations

import argparse
import json
import pickle
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.frontend.adr import ADR  # noqa: E402
from repro.frontend.service import ADRServer  # noqa: E402
from repro.shard.server import ShardServer  # noqa: E402
from repro.store.chunk_store import FileChunkStore  # noqa: E402

import fixture  # noqa: E402
from probes import (  # noqa: E402
    DEFAULT_CACHE_BYTES,
    SpanLog,
    StoreProbe,
    TimedCache,
    peak_rss_mb,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="FileChunkStore directory")
    parser.add_argument("--chunks", required=True, help="pickled chunk list")
    parser.add_argument("--shard-id", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminal's Ctrl-C reaches the whole process group; the parent
    # handles it and closes our stdin, which is the one shutdown path.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    # Only ever a file the parent benchmark process just wrote.
    with open(args.chunks, "rb") as f:
        chunks = pickle.load(f)
    probe = StoreProbe(FileChunkStore(args.root))
    spans = None
    store = probe
    if args.trace:
        spans = probe.spans = SpanLog()
        store = TimedCache(probe, DEFAULT_CACHE_BYTES, spans)
    t0 = time.perf_counter()
    adr = ADR(machine=fixture.MACHINE, store=store)
    adr.load(fixture.DATASET, fixture.IN_SPACE, chunks)
    load_s = time.perf_counter() - t0
    del chunks

    server = (
        ADRServer(adr) if args.shard_id is None else ShardServer(adr, args.shard_id)
    )
    with server:
        print(f"PORT {server.address[1]}", flush=True)
        print("READY", flush=True)
        for line in sys.stdin:
            if line.strip() != "STATS":
                continue
            print(json.dumps({
                "store": probe.counters(),
                "cache": {k: int(v) for k, v in adr.store.stats().items()},
                "self_s": spans.self_times() if spans is not None else {},
                "peak_rss_mb": peak_rss_mb(),
                "load_s": load_s,
            }), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
