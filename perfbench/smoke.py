"""Smoke test of the benchmark: every workload, tiny inputs, one process.

Run from the root of a checkout::

    python3 perfbench/smoke.py

Runs every workload (those ``BENCHMARK.json`` lists and ``wide-hss``),
untraced and traced, on tiny inputs for a fraction of a second; checks
that every run is correct and reports exactly the metric names and
units ``BENCHMARK.json`` declares; runs the leak check after each
workload; and prints every metric with its unit.  Exits 1 on any
mismatch or failed output, 2 on a leak.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS

SECONDS = 0.3


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            try:
                result = run.run_workload(
                    workload, seed=1, seconds=SECONDS, trace=bool(trace),
                    tiny=True,
                )
            except run.LeakError as exc:
                print(f"smoke: {workload}: {exc}", file=sys.stderr)
                return 2
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[trace]:
                problems.append(
                    f"{workload} trace={trace}: metrics {got} != "
                    f"BENCHMARK.json {declared[trace]}"
                )
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: {result}")
            for name, metric in result["metrics"].items():
                print(f"{workload:13s} {trace} {name:34s} "
                      f"{metric['value']:>16.6g} {metric['unit']}")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
