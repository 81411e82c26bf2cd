"""The streamcalc benchmark: one seeded workload, run in-process through cli.run.

    python3 perfbench/run.py --workload prefix-cf --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: it imports streamcalc from src/ and reads
corpus/.  Set-up imports the package, generates the workload's spec files
from the seed into .perfbench/ and runs a few warm-up requests; it is
repeated SETUP_REPEATS times and setup_s is the median.  One client then
sends the requests as a closed loop, round after round, until --seconds
have passed and at least MIN_SAMPLES requests are done, checking every
answer against the oracles.  The last stdout line is a JSON object with
the end-to-end metrics (--trace 0), or with the per-layer metrics of a
fixed number of rounds run once untraced and once traced (--trace 1).
"""

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
MIN_SAMPLES = 110  # at least ten samples beyond p90
# stop starting rounds after this long, so the process ends within 180 s
TIME_LIMIT_S = 140
# rounds replayed by --trace 1 (fixed, so per-layer counts repeat exactly)
TRACE_ROUNDS = {"prefix-cf": 4, "closed-form": 3, "equiv-upto": 4, "small-requests": 12}
# The speed of a shared machine drifts by up to 2x within a minute, and the
# program and any other pure-Python work drift together.  A fixed piece of
# such work is timed around every request and set-up, and each time metric
# is scaled to a machine on which that work takes REFERENCE_S: times are
# milliseconds (or seconds) at the reference speed.  The unscaled wall
# times are printed on the `wall:` line.
REFERENCE_S = 0.0015


def reference_time():
    """Median of three timings of a fixed piece of interpreter work."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        table, total = {}, Fraction(0)
        for i in range(3000):
            key = (i % 97, i % 13)
            table[key] = table.get(key, 0) + i
            if i % 50 == 0:
                total += Fraction(i, 7)
        rows = [tuple(range(i % 7)) for i in range(1600)]
        times.append(time.perf_counter() - start)
    del table, rows
    return statistics.median(times)


class DeadlineExceeded(BaseException):
    """Raised in the main thread when a request overruns DEADLINE_S.

    A BaseException, so that no `except Exception` in the program can
    swallow it.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def import_streamcalc(root):
    """A fresh import of the package from the checkout's src/."""
    if not (root / "src" / "streamcalc").is_dir() or not (root / "corpus").is_dir():
        raise SystemExit(f"error: {root} holds no src/streamcalc/ and corpus/ to benchmark")
    for name in [m for m in sys.modules if m == "streamcalc" or m.startswith("streamcalc.")]:
        del sys.modules[name]
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    importlib.import_module("streamcalc.cli")


class Runner:
    """Executes requests of one plan against the imported package."""

    def __init__(self, plan, spec_dir, deadline=workloads.DEADLINE_S):
        self.plan, self.spec_dir, self.deadline = plan, spec_dir, deadline
        self.cli = sys.modules["streamcalc.cli"]
        self.equivalence = sys.modules["streamcalc.equivalence"]
        self.solvers = sys.modules["streamcalc.solvers"]
        self.algebra = sys.modules["streamcalc.algebra"]

    def _argv(self, request):
        return [str(self.spec_dir / a) if a.split("#")[0] in self.plan.files else a
                for a in request.argv]

    def _call(self, request):
        if request.automata is None:
            out, err = io.StringIO(), io.StringIO()
            argv = self._argv(request)
            return lambda: (self.cli.run(argv, out, err), out)
        alg_name, out1, next1, s1, out2, next2, s2 = request.automata
        alg = self.algebra.get_algebra(alg_name)
        aut1 = self.solvers.SimpleAutomaton(alg, out1, next1)
        aut2 = self.solvers.SimpleAutomaton(alg, out2, next2)

        def call():
            result = self.equivalence.bisim_finite(aut1, s1, aut2, s2)
            if isinstance(result, self.equivalence.Proved):
                return 0, io.StringIO("Proved")
            return 1, io.StringIO(f"Refuted at index {result.index}: "
                                  f"{alg.fmt(result.left)} != {alg.fmt(result.right)}")

        return call

    def execute(self, request):
        """(latency s, outcome, text, decided); outcome is 'ok', 'deadline',
        'exception', 'exit <code>' or 'wrong'."""
        call = self._call(request)
        gc.collect()
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.deadline)
            try:
                code, out = call()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineExceeded:
            return time.perf_counter() - start, "deadline", "", False if request.equiv else None
        except Exception as exc:  # a crash is a failed request, not a crashed run
            return time.perf_counter() - start, "exception", repr(exc), None
        latency = time.perf_counter() - start
        text = out.getvalue()
        if code == 3 or (code == 2 and not request.equiv):
            return latency, f"exit {code}", text, None
        try:
            ok, decided = request.check(code, text)
        except (ValueError, IndexError, ZeroDivisionError):  # unreadable output
            ok, decided = False, None
        return latency, "ok" if ok else "wrong", text, decided


def repeat_key(plan, request):
    texts = tuple(plan.files.get(a.split("#")[0], "") for a in request.argv)
    return request.argv, texts, repr(request.automata)


class Tally:
    """Outcomes of the measured requests."""

    def __init__(self):
        self.latencies, self.wall, self.round_rps = [], [], []
        self.failed = self.equiv = self.decided = self.repeats = 0
        self.wrong = []
        self.seen = set()

    def add(self, plan, request, latency, outcome, text, decided):
        self.latencies.append(latency)
        if outcome != "ok":
            self.failed += 1
            if outcome != "deadline":
                self.wrong.append((request.argv, outcome, text[:300]))
        if request.equiv:
            self.equiv += 1
            self.decided += bool(decided)
        key = repeat_key(plan, request)
        self.repeats += key in self.seen
        self.seen.add(key)


def run_rounds(runner, rounds, tally, seconds):
    """Run whole rounds until `seconds` have passed and MIN_SAMPLES
    requests are done, or the rounds run out."""
    start = time.perf_counter()
    before = reference_time()
    for rnd in rounds:
        busy = 0.0
        for request in rnd:
            wall, outcome, text, decided = runner.execute(request)
            after = reference_time()
            latency = wall * 2 * REFERENCE_S / (before + after)
            before = after
            busy += latency
            tally.wall.append(wall)
            tally.add(runner.plan, request, latency, outcome, text, decided)
        tally.round_rps.append(len(rnd) / busy)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(tally.latencies) >= MIN_SAMPLES or elapsed >= TIME_LIMIT_S:
            break


def setup(workload, seed, root, spec_dir):
    """Import, generate, write and warm up; returns (seconds, plan, runner)."""
    start = time.perf_counter()
    import_streamcalc(root)
    plan = workloads.PLANS[workload](seed, root / "corpus")
    spec_dir.mkdir(parents=True, exist_ok=True)
    for name, text in plan.files.items():
        (spec_dir / name).write_text(text, encoding="utf-8")
    runner = Runner(plan, spec_dir)
    warm = Tally()
    for request in plan.warmup:
        warm.add(plan, request, *runner.execute(request))
    if warm.failed:
        raise RuntimeError(f"warm-up failed: {warm.wrong}")
    return time.perf_counter() - start, plan, runner


def end_to_end(tally, setup_s):
    lat = sorted(tally.latencies)
    return {
        "throughput_rps": (statistics.median(tally.round_rps), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "decided_frac": (tally.decided / tally.equiv if tally.equiv else 1.0, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    work_dir = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        setups, before = [], reference_time()
        for _ in range(SETUP_REPEATS):
            seconds, plan, runner = setup(args.workload, args.seed, root, work_dir)
            after = reference_time()
            setups.append((seconds * 2 * REFERENCE_S / (before + after), seconds))
            before = after
        setup_s, setup_wall = sorted(setups)[SETUP_REPEATS // 2]
        # the plan and the package live for the whole run: keep them out of
        # the collections between requests
        gc.collect()
        gc.freeze()
        tally = Tally()
        if args.trace:
            metrics = traced(args, plan, runner, tally, root)
        else:
            run_rounds(runner, plan.rounds, tally, args.seconds)
            metrics = end_to_end(tally, setup_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(tally.latencies)
    print(f"summary: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"samples={attempted} rounds={len(tally.round_rps)} failed={tally.failed} "
          f"failed_frac={tally.failed / attempted:.4f} "
          f"repeat_share={tally.repeats / attempted:.4f}")
    if tally.wall:
        wall = sorted(tally.wall)
        print(f"wall: setup_s={setup_wall:.4f} latency_p50_ms={statistics.median(wall) * 1e3:.4f} "
              f"latency_p90_ms={statistics.quantiles(wall, n=10)[8] * 1e3:.4f} "
              f"throughput_rps={len(wall) / sum(wall):.4f}")
    for argv_, outcome, text in tally.wrong[:5]:
        print(f"wrong: {outcome}: {' '.join(argv_)}: {text!r}")
    for name, (value, unit) in metrics.items():
        print(f"metric: {name} = {value} {unit}")
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def traced(args, plan, runner, tally, root):
    """Per-layer metrics of a fixed set of rounds.

    Every request runs once untraced and once traced, alternating which
    goes first, so that the tracing overhead is measured on requests in
    the same state of the process.
    """
    tracer = tracing.Tracer()
    overhead = 0.0
    for rnd in plan.rounds[:TRACE_ROUNDS[args.workload]]:
        for request in rnd:
            for traced_pass in ((False, True) if len(tally.latencies) % 2 else (True, False)):
                if not traced_pass:
                    overhead -= runner.execute(request)[0]
                    continue
                tracer.install()
                tracer.begin_request(len(tally.latencies))
                try:
                    result = runner.execute(request)
                finally:
                    tracer.uninstall()
                overhead += result[0]
            tally.add(plan, request, *result)
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
