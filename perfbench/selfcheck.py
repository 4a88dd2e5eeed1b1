"""Determinism self-check of the traced run.

    python3 perfbench/selfcheck.py

For each workload it makes two traced runs at seed 0 and requires that

- both runs are correct, which includes that the traced pass emitted the same
  report JSON as the untraced pass before it, that every patched name was
  restored, and that the layer self times plus ``py.gc.self_s`` plus
  ``trace.unattributed_s`` add up to ``trace.wall_s``;
- every count metric, and every ratio of counts, is equal in the two runs.

Run it from the repository root; it exits 1 on the first violation.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import grid
import spans

RUN = Path(__file__).with_name("run.py")
EXACT = [name for name, unit, _ in spans.PER_LAYER
         if unit == "count" or (unit == "frac" and not name.startswith("trace."))]


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    for workload in grid.WORKLOADS:
        a, b = traced_run(workload), traced_run(workload)
        if not (a["correct"] and b["correct"]):
            print(f"{workload}: a traced run is not correct", file=sys.stderr)
            return 1
        diff = [n for n in EXACT
                if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
        if diff:
            print(f"{workload}: counts differ between runs: {diff}",
                  file=sys.stderr)
            return 1
        m = a["metrics"]
        parts = sum(m[f"{layer}.self_s"]["value"] for layer in spans.LAYERS)
        parts += m["py.gc.self_s"]["value"] + m["trace.unattributed_s"]["value"]
        print(f"{workload} seed 0: {len(EXACT)} count metrics repeat "
              f"exactly; traced JSON equals untraced; layers + gc + "
              f"unattributed = {parts:.6f} s, trace.wall_s = "
              f"{m['trace.wall_s']['value']:.6f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
