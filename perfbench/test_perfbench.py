"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

from __future__ import annotations

import copy
import itertools
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import eqcrit.cli as cli  # noqa: E402

from checker import Checker  # noqa: E402
from tracer import Recorder, installed  # noqa: E402
from worker import run_op  # noqa: E402
from workloads import WORKLOADS, theta  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_each_workload_emits_every_metric(workload, trace):
    # A run this short does one round of ops (per phase when tracing).
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for spec in wanted:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]


def test_run_fails_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "pairs",
         "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_streams_are_seeded_distinct_and_apart_from_warmup():
    for workload in WORKLOADS.values():
        warm, timed = workload.streams(5)
        ops = [op for rnd in itertools.islice(timed, 50) for op in rnd]
        again = [op for rnd in itertools.islice(workload.streams(5)[1], 50) for op in rnd]
        other = [op for rnd in itertools.islice(workload.streams(6)[1], 50) for op in rnd]
        argvs = [tuple(argv) for argv, _ in ops]
        assert ops == again and ops != other
        assert len(set(argvs)) == len(argvs)
        assert not set(argvs) & {tuple(argv) for argv, _ in warm}


def _op(argv, meta):
    return run_op(cli, argv, meta)


def _with_output(op, doc):
    bad = copy.deepcopy(op)
    bad["out"] = json.dumps(doc)
    return bad


@pytest.fixture(scope="module")
def checker():
    return Checker()


def test_checker_flags_an_altered_pair(checker):
    op = _op(["pair", "--t=42"], {"t": "42", "field": "qq", "token": False})
    assert checker.check(op) is None
    doc = json.loads(op["out"])
    doc["g"]["coeffs"][2][0] = str(Fraction(doc["g"]["coeffs"][2][0]) + 1)
    assert checker.check(_with_output(op, doc)) is not None
    # The resultant comparison alone rejects it as well.
    f = [[Fraction(c) for c in cs] for cs in doc["f"]["coeffs"]]
    g = [[Fraction(c) for c in cs] for cs in doc["g"]["coeffs"]]
    assert checker.cvpoly("qq", f) != checker.cvpoly("qq", g)


def test_checker_flags_an_altered_special_pair(checker):
    op = _op(["pair", "--t", "rho", "--field", "q-sqrt3"],
             {"t": "rho", "field": "q-sqrt3", "token": True})
    assert checker.check(op) is None
    doc = json.loads(op["out"])
    doc["g"]["coeffs"][1][1] = str(Fraction(doc["g"]["coeffs"][1][1]) + 1)
    assert checker.check(_with_output(op, doc)) == "cvpoly(f) != cvpoly(g)"


def test_checker_flags_unexpected_exit(checker):
    op = _op(["pair", "--t", "omega", "--field", "q-omega"],
             {"t": "omega", "field": "q-omega", "token": True})
    assert op["rc"] == 2 and checker.check(op) is None
    assert checker.check(dict(op, rc=0)) is not None


def test_checker_flags_a_lift_with_a_wrong_critical_value(checker):
    points = [Fraction(1), Fraction(-2), Fraction(3, 2)]
    ys = theta(points)
    op = _op(["lift"] + [f"--y{i}={y}" for i, y in enumerate(ys, 1)],
             {"built": "theta", "y": [str(y) for y in ys]})
    assert op["rc"] == 0 and checker.check(op) is None
    doc = json.loads(op["out"])
    # Moving the constant term moves every critical value.
    for lift in [doc["lift"]] + doc["all_lifts"]:
        lift["coeffs"][0][0] = str(Fraction(lift["coeffs"][0][0]) + 1)
    assert checker.check(_with_output(op, doc)) == \
        "a lift has other critical values than requested"
    doc = json.loads(op["out"])
    doc["j"] = "1"
    assert checker.check(_with_output(op, doc)).startswith("j = ")


def test_checker_flags_a_wrong_weyl_sum(checker):
    op = _op(["weyl", "--t", "5", "--p", "101", "--a", "7"], {"t": 5, "p": 101, "a": 7})
    assert checker.check(op) is None
    doc = json.loads(op["out"])
    doc["W_f"][0] += 1e-3
    assert checker.check(_with_output(op, doc)).startswith("W_f = ")


def test_tracer_self_times_partition_the_op_and_restore():
    original = cli.critical.cvpoly
    recorder = Recorder()
    with installed(recorder):
        recorder.begin_op()
        op = _op(["pair", "--t=3"], {})
        assert cli.critical.cvpoly is not original
    assert cli.critical.cvpoly is original
    assert op["rc"] == 0
    assert recorder.calls["critical.cvpoly"] == 3
    assert recorder.counters["critical.cvpoly.distinct"] == 2
    assert sum(recorder.self_ns.values()) == recorder.incl_ns["cli.main"]
