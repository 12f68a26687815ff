"""One fresh eqcrit process of the benchmark: set-up, then a closed loop.

The parent (``run.py``) starts this script and times it until it prints its
ready line, which follows the import of ``eqcrit.cli``, input generation and
warm-up.  It then sends one JSON command line: ``{"exit": true}`` for a
process that only measured set-up, or ``{"seconds": S, "trace": 0|1}``.  The
worker runs whole rounds of ops, one ``eqcrit.cli.main(argv)`` call at a time
with stdout and stderr captured, until S seconds have passed (with tracing,
S/2 untraced and then S/2 traced).  It prints one JSON line per op as the op
completes and a last ``{"done": ...}`` line with the phase wall times, the
trace aggregates and its peak RSS.

It imports eqcrit from the ``--src`` directory only, and never imports the
output checker, so its peak RSS is that of the CLI work alone.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import resource
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

from workloads import WORKLOADS


def run_op(cli, argv: list[str], meta: dict) -> dict:
    """One closed-loop op; a raised exception is recorded, not propagated."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    start = perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the argv
        error = f"SystemExit({exc.code}): {err.getvalue().strip()}"
    except Exception as exc:  # an uncaught exception is a failed op
        error = f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter_ns() - start
    return {"argv": argv, "meta": meta, "rc": rc, "error": error,
            "out": out.getvalue(), "ns": elapsed}


def run_phase(cli, rounds, seconds: float, emit, recorder=None) -> dict:
    """Whole rounds until ``seconds`` have passed.  Each op record goes to
    ``emit`` as it completes, so the worker's memory holds no outputs."""
    ops = 0
    start = perf_counter()
    deadline = start + seconds
    for rnd in rounds:
        for argv, meta in rnd:
            if recorder is not None:
                recorder.begin_op()
            emit(run_op(cli, argv, meta))
            ops += 1
        if perf_counter() >= deadline:
            break
    return {"ops": ops, "wall_s": perf_counter() - start}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--src", required=True, type=Path)
    args = ap.parse_args()
    channel = sys.stdout

    start = perf_counter()
    import numpy  # noqa: F401  (timed on its own: eqcrit.cli imports it)
    numpy_done = perf_counter()
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import eqcrit.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"eqcrit was imported from {cli.__file__}, not {src}")
    import_done = perf_counter()

    workload = WORKLOADS[args.workload]
    warm, timed = workload.streams(args.seed)
    pool = list(itertools.islice(timed, workload.pool_rounds))
    rounds = itertools.chain(pool, timed)
    inputs_done = perf_counter()
    warm_ops = [run_op(cli, argv, meta) for argv, meta in warm]
    warm_done = perf_counter()

    ready = {"ready": True,
             "numpy_import_ms": (numpy_done - start) * 1e3,
             "eqcrit_import_ms": (import_done - numpy_done) * 1e3,
             "inputs_ms": (inputs_done - import_done) * 1e3,
             "warmup_ms": (warm_done - inputs_done) * 1e3,
             "warmup_errors": [op["argv"] for op in warm_ops
                               if op["error"] or op["rc"] not in (0, 1, 2)]}
    channel.write(json.dumps(ready) + "\n")
    channel.flush()

    command = json.loads(sys.stdin.readline() or '{"exit": true}')
    if command.get("exit"):
        return 0
    seconds = float(command["seconds"])

    def emitter(phase):
        def emit(record):
            record["phase"] = phase
            channel.write(json.dumps(record) + "\n")
        return emit

    done: dict = {}
    if command["trace"]:
        from tracer import Recorder, installed
        done["untraced"] = run_phase(cli, rounds, seconds / 2, emitter("untraced"))
        with installed(Recorder()) as recorder:
            done["traced"] = run_phase(cli, rounds, seconds / 2, emitter("traced"),
                                       recorder)
        done["trace"] = recorder.summary()
    else:
        done["untraced"] = run_phase(cli, rounds, seconds, emitter("untraced"))
    # ru_maxrss is in KiB on Linux
    done["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    channel.write(json.dumps({"done": done}) + "\n")
    channel.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
