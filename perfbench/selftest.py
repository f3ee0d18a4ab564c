"""Self-test of the benchmark; exits non-zero on the first failed check.

    python3 perfbench/selftest.py

1. The metric names and units the runner prints match BENCHMARK.json, and so
   do the workload names.
2. A tiny smoke of every workload (one round, untraced and traced) passes
   its oracle checks and prints every metric.
3. A planted wrong Type II coefficient counts as a failed operation and makes
   the run incorrect, on the construct and cli workloads.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (puts ./src on sys.path)
import spans  # noqa: E402
import workloads as W  # noqa: E402

WORK = os.path.join(run.ROOT, ".perfbench_work", f"selftest-{os.getpid()}")


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def smoke(name: str, trace: bool):
    """One round of a workload: (correct, attempted, failed, metrics)."""
    wl = W.WORKLOADS[name](seed=7, workdir=WORK)
    wl.min_jobs = 1
    if isinstance(wl, W.Cli):
        wl.write_configs()
    run.setup(wl)
    if trace:
        return run.traced(wl, 0, os.path.join(WORK, f"trace-{name}.jsonl"))
    return run.measure(wl, 0)


def check_names(spec) -> None:
    expect([w["name"] for w in spec["workloads"]] == list(W.WORKLOADS),
           "workload names differ from BENCHMARK.json")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "end-to-end metrics differ from BENCHMARK.json")
    expect({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == spans.PER_LAYER,
           "per-layer metrics differ from BENCHMARK.json")


def check_smoke(spec) -> None:
    e2e = [m["name"] for m in spec["end_to_end"] if m["name"] != "setup_s"]
    layers = [m["name"] for m in spec["per_layer"]]
    for name in W.WORKLOADS:
        correct, attempted, failed, values = smoke(name, trace=False)
        expect(correct and attempted > 0, f"{name}: smoke run is not correct")
        expect(sorted(values) == sorted(e2e), f"{name}: end-to-end metrics missing")
        correct, attempted, failed, values = smoke(name, trace=True)
        expect(correct, f"{name}: traced smoke run is not correct")
        expect(sorted(values) == sorted(layers), f"{name}: per-layer metrics missing")
        print(f"smoke {name}: ok ({attempted} operations, {failed} failed)")


def check_planted() -> None:
    """Shift the constant coefficient of every Type II polynomial by one."""
    def make(fn):
        def wrong(sys_, n):
            poly = fn(sys_, n)
            return type(poly)((poly.coeffs[0] + 1,) + poly.coeffs[1:])
        return wrong

    for name in ("construct", "cli"):
        wl = W.WORKLOADS[name](seed=7, workdir=WORK)
        wl.min_jobs = 1
        if isinstance(wl, W.Cli):
            wl.write_configs()
        run.setup(wl)
        undo = []
        spans.patch("mopcore", "type2", make, undo)
        try:
            correct, attempted, failed, _ = run.measure(wl, 0)
        finally:
            spans.unpatch(undo)
        expect(failed > 0 and not correct, f"{name}: a planted wrong coefficient went unnoticed")
        print(f"planted {name}: ok ({failed} of {attempted} operations failed)")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(WORK, exist_ok=True)
    try:
        check_names(spec)
        print("names: ok")
        check_smoke(spec)
        check_planted()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
