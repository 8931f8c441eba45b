#!/usr/bin/env python3
"""The hsforge benchmark: one workload per process, on one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
src/ directory and nowhere else.  Set-up is timed SETUP_REPEATS times: the
import of hsforge in a fresh interpreter, and input generation with file
writing; setup_s is the sum of the two medians.  Then one untimed warm-up
round, and whole timed rounds of the workload's operations until the next
round would end after S seconds, at least one.  Each operation is timed
alone and its output checked after the clock stops; the warm-up round is
checked and counted in `attempted` too.

On a shared machine the speed of the processor moves between states, from
seconds to minutes long, that differ by more than half, so seconds on the
clock compare neither between runs nor between commits.  A gauge, a fixed
pure-Python loop, is timed before and after an operation whenever
GAUGE_EVERY seconds have passed since its last reading, and every time
taken (operations and set-up alike) is scaled by REFERENCE_S / the gauge's
reading, the mean of the readings before and after an operation where it
has both.  So it is reported in reference seconds, the seconds of the
machine in the state in which the gauge takes REFERENCE_S.  Every round
repeats the same operations, so each operation's scaled samples are
summarised by their median.  run_s is the sum of these medians, the time of one round;
op_p50_ms and op_p95_ms are percentiles over the round's operations of
their medians.

With --trace 0 the last line of stdout is the JSON result with every
end-to-end metric.  With --trace 1 untraced and traced rounds alternate for
S seconds, and the result holds the per-layer metrics per traced round
instead, plus the tracing overhead.  Results and span
dumps go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
GAUGE_EVERY = 0.02
GAUGE_STEPS = 2000
# A reading is the best of this many passes, which keeps out a pass that
# an interrupt lengthened.
GAUGE_PASSES = 2
# About one reading of the gauge on the 2-core machine of the README's
# figures in its fastest state (0.34 to 0.37 ms); a constant of the
# benchmark, so that scaled times compare between runs and commits.
REFERENCE_S = 0.0004
GAUGE_TABLE = tuple((7 * v + 3) % 211 for v in range(211))
# The workloads of BENCHMARK.json.  lifted-batch runs the same layers as
# sym-ladder and is kept for runs by hand; see the README.
WORKLOAD_NAMES = ("sym-ladder", "word-orbits", "zcheck-periods")
BY_HAND = ("lifted-batch",)


def import_program() -> None:
    """Import hsforge from the checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "hsforge" / "__init__.py").is_file():
        raise SystemExit(f"error: no hsforge sources under {src}")
    sys.path.insert(0, str(src))
    import hsforge.cli  # noqa: F401
    import hsforge.sampling  # noqa: F401
    if Path(hsforge.__file__).resolve().parent != src / "hsforge":
        raise SystemExit(f"error: hsforge was imported from {hsforge.__file__}")


class Gauge:
    """The machine's speed, read from a fixed pure-Python loop of the kind
    hsforge runs (table lookups, tuple keys, a small dict)."""

    def __init__(self) -> None:
        self.readings: list[float] = []
        self.read_at = -GAUGE_EVERY

    def read(self) -> None:
        passes = []
        for _ in range(GAUGE_PASSES):
            begin = time.perf_counter()
            counts = {}
            v = 0
            for i in range(GAUGE_STEPS):
                v = GAUGE_TABLE[v]
                key = (v, i & 3)
                counts[key] = counts.get(key, 0) + 1
            self.read_at = time.perf_counter()
            passes.append(self.read_at - begin)
        self.readings.append(min(passes))

    def read_if_due(self) -> None:
        if time.perf_counter() - self.read_at >= GAUGE_EVERY:
            self.read()

    def scaled(self, seconds: float, first: int = -1) -> float:
        """`seconds` on the clock, in reference seconds at the mean of the
        readings from index `first` on."""
        return seconds * REFERENCE_S / statistics.fmean(self.readings[first:])


IMPORT = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
          "started = time.perf_counter(); import hsforge.cli, hsforge.sampling; "
          "print(time.perf_counter() - started)")


def import_seconds(gauge: Gauge) -> float:
    """Median time to import hsforge in a fresh interpreter, which is what a
    command-line call pays; the interpreter's own start-up is not counted."""
    times = []
    for _ in range(SETUP_REPEATS):
        gauge.read()
        child = subprocess.run(
            [sys.executable, "-c", IMPORT, str(ROOT / "src")],
            capture_output=True, text=True, check=True, timeout=120)
        times.append(gauge.scaled(float(child.stdout)))
    return statistics.median(times)


def new_tally() -> dict:
    return {"latencies": [], "attempted": 0, "failed": 0, "gauge": Gauge()}


def run_round(workload, tally: dict, tracer=None, record: bool = True) -> None:
    """One round: every operation timed alone, then checked; adds to tally,
    the latencies only if `record`.  A collection first, so that the
    garbage collector runs at the same points in every round."""
    gc.collect()
    ops = workload.round()
    if record and not tally["latencies"]:
        tally["latencies"] = [[] for _ in ops]
    for i, op in enumerate(ops):
        tally["attempted"] += 1
        gauge = tally["gauge"]
        gauge.read_if_due()
        first = len(gauge.readings) - 1
        root = tracer.begin_op() if tracer else None
        begin = time.perf_counter()
        try:
            result = op.call()
        except Exception:
            result = None
            error = traceback.format_exc()
        else:
            error = None
        elapsed = time.perf_counter() - begin
        if tracer:
            tracer.finish(root)
        # An operation longer than GAUGE_EVERY is scaled by the mean of the
        # readings on either side of it.
        gauge.read_if_due()
        if record:
            tally["latencies"][i].append(gauge.scaled(elapsed, first))
        if error is None:
            try:
                op.check(result)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            tally["failed"] += 1
            if tally["failed"] <= 3:
                print(f"operation {tally['attempted']} failed:\n{error}", file=sys.stderr)


def repeat_until(deadline: float, step) -> None:
    """`step()` at least once, and again while it would end by `deadline`
    if it takes as long as the last one did."""
    while True:
        begin = time.perf_counter()
        step()
        now = time.perf_counter()
        if now + (now - begin) > deadline:
            return


def run_untraced(workload, seconds: float) -> dict:
    """A warm-up round, then timed rounds for about `seconds` in all."""
    deadline = time.perf_counter() + seconds
    tally = new_tally()
    run_round(workload, tally, record=False)
    repeat_until(deadline, lambda: run_round(workload, tally))
    return tally


def run_traced(workload, seconds: float):
    """A warm-up round, then pairs of one untraced and one traced round for
    about `seconds` in all; alternating keeps the machine's drift out of the
    overhead.  Returns both tallies, the per-layer metrics per traced round
    and the tracer, whose spans the caller writes out."""
    from tracer import Tracer

    deadline = time.perf_counter() + seconds
    untraced, traced = new_tally(), new_tally()
    run_round(workload, untraced, record=False)
    tracer = Tracer()
    totals = []

    def pair() -> None:
        run_round(workload, untraced)
        tracer.install()
        try:
            run_round(workload, traced, tracer)
        finally:
            tracer.uninstall()
        totals.append(dict(tracer.counts))

    repeat_until(deadline, pair)
    per_round = [totals[0]] + [
        {k: after[k] - before.get(k, 0) for k in after}
        for before, after in zip(totals, totals[1:])]
    if any(counts != per_round[0] for counts in per_round[1:]):
        print("warning: traced counts differ between rounds", file=sys.stderr)
    metrics = tracer.per_round(len(totals))
    metrics["trace.overhead_s"] = (round_seconds(traced) - round_seconds(untraced), "s")
    return untraced, traced, metrics, tracer


def op_medians(run: dict) -> list[float]:
    """Each operation's median scaled latency, in round order."""
    return [statistics.median(samples) for samples in run["latencies"]]


def round_seconds(run: dict) -> float:
    return sum(op_medians(run))


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup_s: float, run: dict) -> dict:
    medians = op_medians(run)
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (sum(medians), "s"),
        "op_p50_ms": (statistics.median(medians) * 1000, "ms"),
        "op_p95_ms": (percentile(medians, 95) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + BY_HAND)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import workloads

    setup_gauge = Gauge()
    import_s = import_seconds(setup_gauge)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            setup_gauge.read()
            started = time.perf_counter()
            workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
            setups.append(setup_gauge.scaled(time.perf_counter() - started))
        setup_s = import_s + statistics.median(setups)
        if args.trace:
            untraced, traced, metrics, tracer = run_traced(workload, args.seconds)
            runs = (untraced, traced)
            tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            run = run_untraced(workload, args.seconds)
            metrics = end_to_end(setup_s, run)
            runs = (run,)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for name, (value, unit) in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{args.workload} {name} = {shown} {unit}")
    readings = runs[0]["gauge"].readings + setup_gauge.readings
    print(f"{args.workload}: {len(readings)} gauge readings, from"
          f" {min(readings) * 1000:.4f} to {max(readings) * 1000:.4f} ms,"
          f" median {statistics.median(readings) * 1000:.4f} ms")
    timed = sum(len(r["latencies"][0]) for r in runs)
    print(f"{args.workload}: {attempted} operations in {timed} timed rounds"
          f" and one warm-up round, {failed} failed")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
