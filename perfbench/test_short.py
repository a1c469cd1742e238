#!/usr/bin/env python3
"""The benchmark's own test: every workload in --short mode.

Runs each workload for a few periods, untraced and traced, with the same
checks as a full run, and verifies the result line: correct, no failed
periods, and exactly the metrics BENCHMARK.json declares, each with its
unit. Run from the repository root:

    python3 perfbench/test_short.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(spec, workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--short"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr[-2000:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{where}: correct={result.get('correct')} "
                      f"failed={result.get('failed')}: {done.stderr[-2000:]}")
    if not result.get("attempted", 0) >= 1:
        errors.append(f"{where}: nothing attempted")
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        errors.append(f"{where}: metrics {got} != declared {want}")
    for name, value in result.get("metrics", {}).items():
        if not isinstance(value.get("value"), (int, float)):
            errors.append(f"{where}: {name} is not a number")
    return errors


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = run(spec, workload, trace)
            print(f"{workload} --trace {trace}: "
                  f"{'FAIL' if found else 'ok'}", flush=True)
            errors += found
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
