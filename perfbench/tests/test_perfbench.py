"""Tests of the benchmark itself: oracles, deadline, determinism, contract."""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import streamcalc.cli  # noqa: E402,F401


def test_named_sequences():
    assert oracles.catalan(8) == [1, 1, 2, 5, 14, 42, 132, 429]
    assert oracles.schroder(6) == [1, 2, 6, 22, 90, 394]
    assert oracles.a000831(7) == [1, 2, 4, 16, 80, 512, 3904]
    assert oracles.hamming(12) == [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16]
    assert oracles.thue_morse(8) == [0, 1, 1, 0, 1, 0, 0, 1]
    assert oracles.factorials(6) == [1, 1, 2, 6, 24, 120]
    assert oracles.binary_rational(17, 5, 11) == [1, 0, 1, 1, 1, 0, 0, 1, 1, 0, 0]


def test_closed_form_and_linear_oracles():
    num, den = oracles.parse_ratexpr("(X)/(1 - X - X^2)")
    fib = [0, 1, 1, 2, 3, 5, 8, 13]
    assert oracles.expand_ratexpr(num, den, 8) == fib
    q = oracles.ring("Q")
    assert oracles.linear_prefix(q, [[0, 1], [1, 1]], [0, 1], 8)[0] == fib
    assert oracles.charpoly([[0, 1], [1, 1]]) == [-1, -1, 1]
    assert oracles.parse_poly("-3/2*X^2 + 1 - X") == [1, -1, -1.5]


def test_moore_split_index():
    out1, next1 = {"a": 0, "b": 1}, {"a": "b", "b": "a"}
    out2, next2 = {"c": 0, "d": 1, "e": 0}, {"c": "d", "d": "e", "e": "d"}
    assert oracles.moore_split_index(out1, next1, "a", out2, next2, "c") is None
    out2["e"] = 1
    assert oracles.moore_split_index(out1, next1, "a", out2, next2, "c") == 2


def test_verdict_check_rejects_wrong_answers():
    check = workloads.expect_verdict("Nat", lambda: [1, 2, 3], lambda: [1, 2, 4])
    assert check(1, "Refuted at index 2: 3 != 4\n") == (True, True)
    assert check(0, "Proved\n")[0] is False
    assert check(1, "Refuted at index 1: 2 != 2\n")[0] is False
    assert check(2, "Unknown (budget exceeded)\n") == (True, False)


@pytest.fixture
def alarm():
    old = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, old)


def _runner(plan, tmp_path, deadline=workloads.DEADLINE_S):
    for name, text in plan.files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return run.Runner(plan, tmp_path, deadline)


def test_deadline_fires_on_default_budget_rewrite_pair(alarm, tmp_path):
    slow_plan = workloads.runaway_plan(1)
    (slow,) = slow_plan.rounds[0]
    assert slow.kind == "equiv" and "--budget" not in slow.argv
    latency, outcome, _, decided = _runner(slow_plan, tmp_path, 0.5).execute(slow)
    assert outcome == "deadline" and decided is False
    assert 0.5 <= latency < 5
    # the run goes on: the next request is answered normally
    plan = workloads.plan_equiv_upto(1, ROOT / "corpus")
    rewrite = next(r for r in plan.warmup if "--budget" in r.argv)
    assert _runner(plan, tmp_path, 0.5).execute(rewrite)[1] == "ok"


def test_same_seed_same_inputs_other_seed_other_inputs():
    for name, make in workloads.PLANS.items():
        a, b, c = (make(seed, ROOT / "corpus") for seed in (3, 3, 4))
        argv = [[r.argv for r in rnd] for rnd in a.rounds]
        assert argv == [[r.argv for r in rnd] for rnd in b.rounds], name
        assert a.files == b.files, name
        assert a.files != c.files or argv != [[r.argv for r in rnd] for rnd in c.rounds], name


def test_outputs_and_layer_counts_repeat(alarm, tmp_path):
    """Warm-up requests of every workload, traced twice: identical outputs
    and identical per-layer counts."""
    results = []
    for attempt in range(2):
        outputs, tracer = [], tracing.Tracer()
        tracer.install()
        try:
            for name, make in sorted(workloads.PLANS.items()):
                plan = make(5, ROOT / "corpus")
                spec_dir = tmp_path / f"{attempt}-{name}"
                spec_dir.mkdir()
                runner = _runner(plan, spec_dir)
                for request in plan.warmup:
                    tracer.begin_request(len(outputs))
                    _, outcome, text, _ = runner.execute(request)
                    assert outcome == "ok", (request.argv, text)
                    outputs.append(text)
        finally:
            tracer.uninstall()
        counts = {k: v for k, (v, unit) in tracer.metrics().items() if unit == "count"}
        results.append((outputs, counts))
    assert results[0] == results[1]
    counts = results[0][1]
    for metric in ("gsos.states", "algebra.poly_gcd_calls", "equivalence.up_to_pairs",
                   "stream.elements", "equivalence.proved"):
        assert counts[metric] > 0, metric


def test_result_line_and_failure_without_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "small-requests",
         "--seed", "2", "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 110
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert not list((ROOT / ".perfbench").glob("small-requests-2-*"))

    bare = tmp_path / "bare"
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "prefix-cf", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
