"""Benchmark of the spincheck verification stack; see perfbench/README.md.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  One closed-loop client in one fresh worker
process runs the workload's jobs one after another.  With ``--trace 0`` the
worker repeats whole passes until S seconds have elapsed (at least one pass)
and the end-to-end metrics are reported.  Half of ``SETUP_SAMPLES``
set-up-only workers (import ``spincheck``, build the job list, exit) start
before the measuring worker and half after it; ``setup_s`` is the median of
all the set-up times.  With ``--trace 1`` the
worker runs one untraced and one traced pass, alternating job by job, and
the per-layer metrics are reported.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import grid
import spans

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 16
TIME_LIMIT_S = 170.0

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("slowest_job_s", "s"),
              ("job_pass_frac", "frac")]


class WorkerError(RuntimeError):
    pass


def start_worker(args, mode: str) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait until it is set up; returns the set-up time."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(ROOT),
           args.workload, str(args.seed), str(args.seconds), mode]
    # a fixed hash seed keeps set and dict orders, hence every count, repeatable
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.stdout.close()
        proc.wait()
        raise WorkerError(f"worker failed to start (exit {proc.returncode})")
    return proc, setup


def finish_worker(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker ran past the time limit") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}")
    return out


def setup_times(args, n: int, deadline: float) -> list[float]:
    times = []
    for _ in range(n):
        proc, setup = start_worker(args, "setup")
        times.append(setup)
        finish_worker(proc, deadline)
    return times


def measure(args) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    # One set-up takes 0.10-0.17 s, and the machine's speed changes within
    # seconds, so setup_s is the median of set-ups on both sides of the
    # measured passes (see README, "setup_s").
    half = 0 if args.trace else SETUP_SAMPLES // 2
    setups = setup_times(args, half, deadline)
    proc, setup = start_worker(args, "trace" if args.trace else "time")
    setups.append(setup)
    res = json.loads(finish_worker(proc, deadline).strip().splitlines()[-1])
    setups += setup_times(args, half, deadline)
    print("setup_samples " + json.dumps({"samples": setups, "worker": half}),
          file=sys.stderr)

    passes = res["passes"]
    attempted = sum(p["jobs"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    for p in passes:
        print(f"pass {p['wall_s']:.3f} s, cpu {p['cpu_s']:.3f} s, slowest "
              f"{p['slowest_job']} {p['slowest_job_s']:.3f} s, "
              f"failed {p['failed']}", file=sys.stderr)
    for err in res["errors"]:
        print(f"error: {err}", file=sys.stderr)

    if args.trace:
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        values = res["trace"] or {}
    else:
        units = dict(END_TO_END)
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "slowest_job_s": statistics.median(p["slowest_job_s"]
                                               for p in passes),
            "job_pass_frac": (attempted - failed) / attempted,
        }
    return {
        "correct": failed == 0 and not res["errors"] and set(values) == set(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=grid.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "spincheck" / "__init__.py").is_file():
        print(f"error: no spincheck sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
