"""Seeded, self-checking benchmark of the eqcrit CLI paths.

    python3 perfbench/run.py --workload pairs --seed 1 --seconds 30 --trace 0

Run from anywhere in a source checkout: eqcrit is imported from ``src/`` next
to this directory, never from an installed copy, and the run fails without a
result when ``src/eqcrit`` is missing.

Load is a closed loop of one client in one process: a fresh worker process
(``worker.py``) makes one ``eqcrit.cli.main(argv)`` call per op, the next op
starting when the previous one returned, with no other threads.  Set-up is
measured ``SETUPS`` times, each in a fresh interpreter, and reported as a
median; one of those processes runs the timed phase.  After it exits, every
output is checked by ``checker.py``, which does not use eqcrit.

The last stdout line is the result: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` the run is split into an untraced and a traced half and
the metrics are the per-layer ones from the traced half, with the tracing
overhead.  The line before it is a report: sample counts, the tail
percentile, the input sizes sent, the set-up breakdown and every failed op.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_NAMES
from workloads import WORKLOADS, input_summary

SETUPS = 5
SETUPS_BEFORE = 3
RUN_TIMEOUT_S = 170
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def spawn(workload: str, seed: int) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--src", str(SRC)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE)


class Channel:
    """A worker's stdout, read with a deadline.  During the timed phase the
    bytes are only collected; decoding waits until the worker is done, so the
    parent takes as little CPU as it can from the measured process."""

    def __init__(self, proc: subprocess.Popen, deadline: float) -> None:
        self.proc, self.deadline = proc, deadline
        self.chunks: list[bytes] = []

    def _read(self) -> bytes:
        fd = self.proc.stdout.fileno()
        readable, _, _ = select.select([fd], [], [],
                                       max(0.0, self.deadline - time.monotonic()))
        if not readable:
            raise TimeoutError("the worker did not answer in time")
        return os.read(fd, 1 << 16)

    def line(self) -> dict:
        while not self.chunks or b"\n" not in self.chunks[-1]:
            chunk = self._read()
            if not chunk:
                raise RuntimeError(f"the worker exited with {self.proc.wait()}")
            self.chunks.append(chunk)
        line, rest = b"".join(self.chunks).split(b"\n", 1)
        self.chunks = [rest] if rest else []
        return json.loads(line)

    def rest(self) -> list[dict]:
        while chunk := self._read():
            self.chunks.append(chunk)
        return [json.loads(line) for line in b"".join(self.chunks).splitlines()]


def start_worker(workload: str, seed: int, deadline: float,
                 procs: list) -> tuple[Channel, float, dict]:
    """A fresh worker, its set-up time and its ready message."""
    start = time.perf_counter()
    proc = spawn(workload, seed)
    procs.append(proc)
    channel = Channel(proc, deadline)
    ready = channel.line()
    return channel, time.perf_counter() - start, ready


def command(channel: Channel, message: dict) -> None:
    channel.proc.stdin.write(json.dumps(message).encode() + b"\n")
    channel.proc.stdin.close()


def finish(channel: Channel) -> None:
    if channel.proc.wait(timeout=max(0.0, channel.deadline - time.monotonic())):
        raise RuntimeError(f"the worker exited with {channel.proc.returncode}")


def measure(workload: str, seed: int, seconds: float, trace: bool,
            deadline: float) -> tuple[list[float], list[dict], list[dict], dict]:
    """Set-up is timed in SETUPS fresh workers, some before the timed phase
    and some after it, so that one slow spell of the machine does not move
    the median.  The last worker started before the timed phase runs it.
    Returns set-up times, ready messages, op records and the done message."""
    setup_s, ready, procs = [], [], []

    def set_up() -> Channel:
        channel, elapsed, message = start_worker(workload, seed, deadline, procs)
        setup_s.append(elapsed)
        ready.append(message)
        return channel

    def set_up_only() -> None:
        channel = set_up()
        command(channel, {"exit": True})
        finish(channel)

    try:
        for _ in range(SETUPS_BEFORE - 1):
            set_up_only()
        runner = set_up()
        command(runner, {"seconds": seconds, "trace": int(trace)})
        *ops, last = runner.rest()
        finish(runner)
        for _ in range(SETUPS - SETUPS_BEFORE):
            set_up_only()
        return setup_s, ready, ops, last["done"]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def percentile(values: list[float], level: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(level / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(workload: str, setup_s: list[float], ops: list[dict],
               done: dict, failed: int) -> tuple[dict, dict]:
    ms = [op["ns"] / 1e6 for op in ops]
    level = WORKLOADS[workload].tail_percentile
    tail, beyond = percentile(ms, level)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (len(ops) / done["untraced"]["wall_s"], "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "peak_rss_mb": (done["peak_rss_mb"], "MB"),
        "ok_ratio": ((len(ops) - failed) / len(ops), "ratio"),
    }
    notes = {"samples": len(ops), "tail_percentile": level,
             "tail_samples_beyond": beyond, "max_ms": max(ms)}
    return metrics, notes


def per_layer(done: dict, ready: list[dict]) -> dict:
    trace = done["trace"]
    ops = trace["ops"]
    calls, counters = trace["calls"], trace["counters"]
    op_ns = trace["incl_ns"]["cli.main"]
    metrics = {}
    for layer in LAYER_NAMES:
        metrics[f"{layer}.calls"] = (calls.get(layer, 0) / ops, "count")
        metrics[f"{layer}.self_ms"] = (trace["self_ns"].get(layer, 0) / ops / 1e6, "ms")
        metrics[f"{layer}.share"] = (trace["incl_ns"].get(layer, 0) / op_ns, "ratio")

    def per_call(counter: str, layer: str) -> float:
        return counters.get(counter, 0) / calls[layer] if calls.get(layer) else 0.0

    for name, counter, layer, unit in (
            ("critical.cvpoly.distinct_ratio", "critical.cvpoly.distinct",
             "critical.cvpoly", "ratio"),
            ("poly.rational_roots.input_bits", "poly.rational_roots.input_bits",
             "poly.rational_roots", "bits"),
            ("moduli.lifts_from_cvpoly.lifts_per_call", "moduli.lifts_from_cvpoly.lifts",
             "moduli.lifts_from_cvpoly", "count"),
            ("weyl.weyl_direct.terms", "weyl.weyl_direct.terms",
             "weyl.weyl_direct", "count"),
            ("weyl.weyl_direct.bytes_computed", "weyl.weyl_direct.bytes_computed",
             "weyl.weyl_direct", "bytes")):
        metrics[name] = (per_call(counter, layer), unit)
    for key in ("numpy_import_ms", "eqcrit_import_ms"):
        metrics[f"setup.{key}"] = (statistics.median(r[key] for r in ready), "ms")
    rates = {phase: done[phase]["ops"] / done[phase]["wall_s"]
             for phase in ("untraced", "traced")}
    metrics["trace.untraced_ops_per_s"] = (rates["untraced"], "1/s")
    metrics["trace.traced_ops_per_s"] = (rates["traced"], "1/s")
    metrics["trace.overhead_ops_per_s"] = (rates["untraced"] - rates["traced"], "1/s")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "eqcrit" / "__init__.py").is_file():
        print(f"no eqcrit sources under {SRC}", file=sys.stderr)
        return 1
    try:
        setup_s, ready, ops, done = measure(args.workload, args.seed, args.seconds,
                                            bool(args.trace),
                                            time.monotonic() + RUN_TIMEOUT_S)
    except (RuntimeError, ValueError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    from checker import Checker
    checker = Checker()
    failures = []
    for op in ops:
        reason = checker.check(op)
        if reason is not None:
            failures.append({"argv": op["argv"], "rc": op["rc"], "reason": reason})

    report = {"workload": args.workload, "seed": args.seed,
              "inputs": input_summary(args.workload,
                                      [(op["argv"], op["meta"]) for op in ops]),
              "setup_ms_median": {key: statistics.median(r[key] for r in ready)
                                  for key in ("numpy_import_ms", "eqcrit_import_ms",
                                              "inputs_ms", "warmup_ms")},
              "warmup_errors": [argv for r in ready for argv in r["warmup_errors"]],
              "failed_ratio": len(failures) / len(ops),
              "failures": failures}
    if args.trace:
        metrics = per_layer(done, ready)
    else:
        metrics, notes = end_to_end(args.workload, setup_s, ops, done, len(failures))
        report.update(notes)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failures and not report["warmup_errors"],
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
