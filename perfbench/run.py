"""bimop benchmark: one seeded workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 20 --trace 0

Run from the repository root; bimop is imported from ./src.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end metrics
of BENCHMARK.json, with --trace 1 the per-layer ones.  Every time is scaled
to a reference CPU speed measured during the run (speed.py).  The input
properties of the seed go to standard error.

Operations are judged by the independent oracle after the timed loop.
`failed` counts every operation the oracle rejects, and every repeated job
that answers differently from its first run; `correct` is true only when
nothing failed.  The inputs are chosen so that bimop passes every check.
The float calls bimop is known to get wrong (the workload's probes) run
once after the loop, untimed; their census goes to standard error as
{"known_defects": {"attempted": ..., "failed": ...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import workloads as W  # noqa: E402
from speed import EVERY_S, Speed  # noqa: E402

SETUP_REPS = 15
END_TO_END = {
    "job_p50_s": "s",
    "job_p90_s": "s",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def setup(wl: W.Workload) -> float:
    """Median time of importing bimop afresh and building the workload's systems.

    Scaled to the reference speed, like every time the benchmark reports.
    """
    speed = Speed()
    times = []
    for _ in range(SETUP_REPS):
        for name in [m for m in sys.modules if m == "bimop" or m.startswith("bimop.")]:
            del sys.modules[name]
        speed.sample()
        t0 = time.perf_counter()
        wl.setup()
        times.append((t0, time.perf_counter()))
    speed.sample()
    return statistics.median((t1 - t0) / speed.slowdown(t0, t1) for t0, t1 in times)


class Loop:
    """Closed loop over whole rounds; keeps the first outcome of each job."""

    def __init__(self, wl: W.Workload):
        self.wl = wl
        self.speed = Speed()
        self.first = {}
        self.digest = {}
        self.runs = {}
        self.mismatch = {}

    def run(self, seconds=None, min_jobs=0, rounds=None, tracer=None):
        """Run until `seconds` passed and `min_jobs` ran, or for `rounds` rounds.

        Returns (latencies, loop wall time, rounds run, mean slowdown), with
        the times scaled to the reference speed (speed.py).  The wall time
        leaves out the speed samples taken between jobs.
        """
        wl, clock, speed = self.wl, time.perf_counter, self.speed
        intervals = []
        k = 0
        paused = 0.0
        start = last = clock()
        speed.sample()
        while True:
            index = k % len(wl.rounds)
            for pos, job in enumerate(wl.rounds[index]):
                if clock() - last >= EVERY_S:
                    paused += speed.sample()
                    last = clock()
                if tracer is not None:
                    tracer.job = len(intervals)
                t0 = clock()
                outcome = wl.run(job)
                intervals.append((t0, clock()))
                self.record((index, pos), outcome)
            k += 1
            if rounds is not None:
                if k >= rounds:
                    break
            elif clock() - start - paused >= seconds and len(intervals) >= min_jobs:
                break
        wall = clock() - start - paused
        speed.sample()
        latencies = [(t1 - t0) / speed.slowdown(t0, t1) for t0, t1 in intervals]
        slowdown = sum(t1 - t0 for t0, t1 in intervals) / sum(latencies)
        return latencies, wall / slowdown, k, slowdown

    def record(self, key, outcome):
        self.runs[key] = self.runs.get(key, 0) + 1
        if key not in self.first:
            self.first[key] = outcome
            return
        if key not in self.digest:
            self.digest[key] = repr(self.first[key])
        if repr(outcome) != self.digest[key]:
            self.mismatch[key] = self.mismatch.get(key, 0) + 1

    def judge(self):
        """(correct, attempted, failed) over every job run, by the oracle."""
        attempted, failed = 0, 0
        for key, outcome in self.first.items():
            index, pos = key
            oks = self.wl.check(self.wl.rounds[index][pos], outcome)
            bad = oks.count(False)
            again = self.mismatch.get(key, 0)
            attempted += len(oks) * self.runs[key]
            failed += bad * self.runs[key] + (len(oks) - bad) * again
        return failed == 0, attempted, failed


def census(wl) -> dict:
    """Run the workload's probes once, untimed: operations attempted and failed."""
    oks = [ok for job in wl.probes() for ok in wl.check(job, wl.run(job))]
    return {"attempted": len(oks), "failed": oks.count(False)}


def measure(wl, seconds) -> tuple:
    """Untraced loop: (correct, attempted, failed, end-to-end values but setup_s)."""
    loop = Loop(wl)
    latencies, wall, _, _ = loop.run(seconds=seconds, min_jobs=wl.min_jobs)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct, attempted, failed = loop.judge()
    values = {
        "job_p50_s": statistics.median(latencies),
        "job_p90_s": statistics.quantiles(latencies, n=10)[8],
        "jobs_per_s": len(latencies) / wall,
        "peak_rss_mb": rss_mb,
    }
    return correct, attempted, failed, values


def traced(wl, seconds, trace_path) -> tuple:
    """Untraced pass for half the time, then the same rounds traced.

    Returns (correct, attempted, failed, per-layer values); trace.overhead
    is the traced pass's wall time over the untraced pass's.
    """
    loop = Loop(wl)
    _, plain_wall, rounds, _ = loop.run(seconds=seconds / 2, min_jobs=1)
    tracer = spans.Tracer()
    tracer.install()
    wl.tracer = tracer
    try:
        latencies, traced_wall, _, slowdown = loop.run(rounds=rounds, tracer=tracer)
    finally:
        tracer.uninstall()
        wl.tracer = None
    values = tracer.metrics(len(latencies), traced_wall / plain_wall, slowdown)
    tracer.write(trace_path)
    correct, attempted, failed = loop.judge()
    return correct, attempted, failed, values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    work = os.path.join(ROOT, ".perfbench_work")
    rundir = os.path.join(work, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(rundir, exist_ok=True)
    try:
        wl = W.WORKLOADS[args.workload](args.seed, rundir)
        print(json.dumps({"inputs": wl.properties()}), file=sys.stderr)
        if isinstance(wl, W.Cli):
            wl.write_configs()
        setup_s = setup(wl)
        if args.trace:
            trace_path = os.path.join(work, f"trace-{args.workload}-{args.seed}.jsonl")
            correct, attempted, failed, values = traced(wl, args.seconds, trace_path)
            units = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
        else:
            correct, attempted, failed, values = measure(wl, args.seconds)
            values["setup_s"] = setup_s
            units = END_TO_END
        print(json.dumps({"known_defects": census(wl)}), file=sys.stderr)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
