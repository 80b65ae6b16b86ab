"""End-to-end benchmark of the ADR reproduction: one command, five
workloads, absolute numbers and a per-layer time budget.

    PYTHONPATH=src python benchmarks/e2e/run.py [--workload NAME ...]
        [--seed S] [--trace 1] [--out FILE] [--spans-out FILE]
        [--repeat N] [--selftest]

Prints every metric of BENCHMARK.json by name with its unit (with
``--trace 1`` the per-layer ones too), verifies outputs before and
while timing, and exits non-zero when a verification fails.  The timed
window is BENCHMARK.json's ``run_seconds``; ``--seconds`` is accepted
because the benchmark driver passes it, and must say the same.  See
README.md beside this file for what each number means and why timings
are best-of-pass.

This process only keeps the clock: each workload runs in its own
``worker.py`` subprocess, and with several workloads selected their
passes are issued round-robin.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from procs import LinePipe

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
DEFAULT_SEED = 20260929
#: passes a timed window holds at least, however slow the machine
MIN_PASSES = 5
MIN_TRACED_PASSES = 2
#: seconds one worker command may take before the run is abandoned
COMMAND_S = 170.0


def load_spec() -> dict:
    with open(REPO / "BENCHMARK.json", "r", encoding="utf-8") as f:
        return json.load(f)


def start_worker(name: str, seed: int, workdir: Path, tiny: bool,
                 spans_out: Optional[str]) -> LinePipe:
    argv = [
        sys.executable, str(HERE / "worker.py"), "--workload", name,
        "--seed", str(seed), "--workdir", str(workdir / name),
    ]
    if tiny:
        argv.append("--tiny")
    if spans_out:
        argv += ["--spans-out", spans_out]
    return LinePipe(argv)


def run_set(names: List[str], seed: int, seconds: float, trace: bool,
            workdir: Path, tiny: bool = False, spans_out: Optional[str] = None,
            least: int = MIN_PASSES) -> List[dict]:
    """One full set: every named workload prepared, timed and finished.

    Timed passes fill the window of *seconds*, and are at least *least*
    however slow the machine; with tracing the traced passes come on
    top of that, never out of it.  (*tiny* and *least* are the
    self-test's: a small problem and a short window.)
    """
    root = workdir / f"run{os.getpid()}"
    root.mkdir(parents=True, exist_ok=True)
    workers: Dict[str, LinePipe] = {}
    try:
        for name in names:
            workers[name] = start_worker(name, seed, root, tiny, spans_out)
        for w in workers.values():
            w.ask("prepare", COMMAND_S)
        phases = [("pass", seconds, least)]
        if trace:
            phases.append(("tpass", 0.0, MIN_TRACED_PASSES))
        for command, budget, floor in phases:
            used = dict.fromkeys(workers, 0.0)
            done = dict.fromkeys(workers, 0)
            live = list(workers)
            while live:
                for name in list(live):
                    used[name] += workers[name].ask(command, COMMAND_S)["seconds"]
                    done[name] += 1
                    # Stop before the pass that would overrun the window.
                    if done[name] >= floor and used[name] * (1 + 1 / done[name]) > budget:
                        live.remove(name)
        records = [w.ask("finish", COMMAND_S) for w in workers.values()]
        for w in workers.values():
            w.stop(polite=True)  # it is on its way out: let it clean up
        return records
    finally:
        # A worker that finished has left; any other is told to stop and
        # reaps its own children on the way out.
        for w in workers.values():
            w.stop(polite=False)
        shutil.rmtree(root, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            workdir.rmdir()


# -- output ------------------------------------------------------------


def environment(seed: int, seconds: float) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "commit": commit, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy_version,
        "seed": seed, "seconds": seconds,
    }


def print_budget(record: dict) -> None:
    """Layers by self time per op; the rows sum to the op's wall time,
    with what no span covers on a row of its own."""
    layer, budget = record["per_layer"], dict(record["budget_ms"])
    total = sum(budget.values())
    unattributed = budget.pop(record["root"], 0.0)
    print(f"  layer budget (self ms/op at reference speed, traced; total {total:.3f} ms/op)")
    for label, value in list(budget.items()) + [("unattributed", unattributed)]:
        print(f"    {label:<36}{value:10.3f}  {100 * value / total:5.1f} %")
    print(f"    trace.coverage {layer['trace.coverage']:.3f}   "
          f"trace.overhead {100 * layer['trace.overhead']:+.1f} %")


def print_record(record: dict, spec: dict) -> None:
    unit = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    state = "correct" if record["correct"] else "FAILED"
    print(f"== {record['workload']} ==  n_ops={record['n_ops']} "
          f"n_passes={record['n_passes']} attempted={record['attempted']} "
          f"failed={record['failed']} {state}")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    for name, value in record["end_to_end"].items():
        print(f"  {name:<14}{value:14.4f} {unit[name]}")
    print("  diagnostics: " + " ".join(f"{k}={v:.4g}" for k, v in record["diagnostics"].items()))
    if record["per_layer"]:
        for name, value in sorted(record["per_layer"].items()):
            print(f"  {name:<44}{value:14.4f} {unit[name]}")
        print_budget(record)


def contract_line(record: dict, spec: dict, trace: bool) -> str:
    """The one JSON object the benchmark driver reads, last on stdout:
    the end-to-end metrics, or with tracing the per-layer ones (the
    lines above it name both groups)."""
    kind = "per_layer" if trace else "end_to_end"
    metrics = {
        m["name"]: {"value": record[kind][m["name"]], "unit": m["unit"]}
        for m in spec[kind]
    }
    return json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"], "metrics": metrics,
    })


def print_repeat(sets: List[List[dict]], spec: dict) -> None:
    """Per workload x end-to-end metric: median, quartiles and
    (max-min)/median over the sets."""
    print(f"repeatability over {len(sets)} sets")
    print(f"  {'workload':<16}{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'iqr/med':>9}{'range/med':>10}{'bound':>7}")
    for position, first in enumerate(sets[0]):
        for m in spec["end_to_end"]:
            values = [s[position]["end_to_end"][m["name"]] for s in sets]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            print(f"  {first['workload']:<16}{m['name']:<14}{median:12.4f}{q1:12.4f}"
                  f"{q3:12.4f}{(q3 - q1) / median:9.4f}"
                  f"{(max(values) - min(values)) / median:10.4f}{m['bound']:7.2f}")


# -- self-test ---------------------------------------------------------


def selftest(spec: dict, workdir: Path) -> int:
    """Harness checks at tiny scale (well under a minute): names,
    determinism, coverage, and that nothing outlives a run."""
    import re
    import signal

    names = [w["name"] for w in spec["workloads"]]
    problems: List[str] = []

    def check(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    def leftovers() -> List[str]:
        ours = subprocess.run(
            ["pgrep", "-f", str(HERE)], capture_output=True, text=True, timeout=10
        ).stdout.split()
        ours = [p for p in ours if int(p) != os.getpid()]
        files = [str(p) for p in workdir.glob("*")] if workdir.exists() else []
        return ours + files

    shm_before = sorted(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else []
    pattern = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")
    all_names = names + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(all(pattern.match(n) for n in all_names), "names match [A-Za-z0-9_.-]+")
    check(len(set(all_names)) == len(all_names), "names are used once")

    a = run_set(names, 7, 0.5, True, workdir, tiny=True, least=2)
    b = run_set(names, 7, 0.5, True, workdir, tiny=True, least=2)
    c = run_set(names[:1], 8, 0.5, False, workdir, tiny=True, least=2)
    check([r["workload"] for r in a] == names, "workload names equal BENCHMARK.json")
    check(all(r["correct"] for r in a + b + c), "every op verified, none failed")
    check(a[0]["ops_digest"] != c[0]["ops_digest"], "another seed, another op list")
    check(set(c[0]["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}
          and not c[0]["per_layer"], "without --trace, the end-to-end metrics alone")
    for ra, rb in zip(a, b):
        w = ra["workload"]
        check(set(ra["end_to_end"]) == {m["name"] for m in spec["end_to_end"]},
              f"{w}: end-to-end metric names equal BENCHMARK.json")
        check(set(ra["per_layer"]) == {m["name"] for m in spec["per_layer"]},
              f"{w}: per-layer metric names equal BENCHMARK.json")
        check(ra["ops_digest"] == rb["ops_digest"] and ra["n_ops"] == rb["n_ops"],
              f"{w}: same seed, same op list")
        if w != "service_shared":  # two callers race for the server's cache
            check(ra["end_to_end"]["read_amp"] == rb["end_to_end"]["read_amp"]
                  and ra["per_layer"]["store.reads"] == rb["per_layer"]["store.reads"],
                  f"{w}: read_amp and store.reads repeat exactly")
        check(ra["per_layer"]["trace.coverage"] >= 0.9,
              f"{w}: trace.coverage {ra['per_layer']['trace.coverage']:.3f} >= 0.9")
    check(not leftovers(), "nothing survives a normal exit")

    # A worker that dies mid-run, and an interrupted orchestrator.
    try:
        run_set(["no_such_workload"], 7, 0.5, False, workdir, tiny=True)
        check(False, "a failing worker is reported")
    except RuntimeError:
        check(not leftovers(), "nothing survives a failing worker")
    interrupted = (
        "import sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); import run; "
        "run.run_set(['shard_scatter'], 7, 30.0, False, Path(sys.argv[2]), tiny=True)"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", interrupted, str(HERE), str(workdir)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline and not any("serve.py" in p for p in _commands()):
        time.sleep(0.2)
    proc.send_signal(signal.SIGINT)
    proc.wait(timeout=60)
    time.sleep(0.5)
    check(proc.returncode != 0 and not leftovers(), "nothing survives SIGINT")
    shm_after = sorted(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else []
    check(shm_before == shm_after, "no /dev/shm segment left behind")
    print("selftest " + ("passed" if not problems else f"FAILED ({len(problems)})"))
    return 1 if problems else 0


def _commands() -> List[str]:
    out = subprocess.run(
        ["pgrep", "-af", str(HERE)], capture_output=True, text=True, timeout=10
    ).stdout
    return out.splitlines()


# -- entry -------------------------------------------------------------


def main() -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, choices=(float(spec["run_seconds"]),),
                        default=float(spec["run_seconds"]),
                        help="the timed window; fixed by BENCHMARK.json (run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 adds the traced run: per-layer metrics and the layer budget")
    parser.add_argument("--out", help="write the full record of the run as JSON")
    parser.add_argument("--spans-out", help="write every span as JSONL")
    parser.add_argument("--workdir", default=str(REPO / ".bench_e2e"),
                        help="scratch directory (emptied of this run's files at exit)")
    parser.add_argument("--repeat", type=int, default=1, help="run N full sets and "
                        "print the spread of every end-to-end metric")
    parser.add_argument("--selftest", action="store_true",
                        help="check the harness itself at tiny scale (about half a minute)")
    args = parser.parse_args()
    workdir = Path(args.workdir)
    if args.selftest:
        return selftest(spec, workdir)

    env = environment(args.seed, args.seconds)
    print("# e2e " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("# file reads are served from the OS page cache: latencies are this "
          "sandbox's, not a storage device's")
    trace = bool(args.trace)
    sets = []
    for _ in range(args.repeat):
        sets.append(run_set(args.workload, args.seed, args.seconds, trace, workdir,
                            spans_out=args.spans_out))
    if args.repeat > 1:
        print_repeat(sets, spec)
    records = sets[-1]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"environment": env, "sets": sets}, f, indent=1)
    for record in records:
        print_record(record, spec)
    for record in records:
        if record["end_to_end"]:  # else every op failed: nothing to report but that
            print(contract_line(record, spec, trace))
    return 0 if all(r["correct"] for s in sets for r in s) else 1


if __name__ == "__main__":
    raise SystemExit(main())
