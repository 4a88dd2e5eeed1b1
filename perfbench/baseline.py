"""Record the benchmark's baseline: seeded runs of every workload.

    python3 perfbench/baseline.py [--first-seed 1] [--out FILE]

Run from the repository root.  For each of ten seeds it runs every
workload once with ``--trace 0`` (workloads interleaved, so a slow spell of
the machine spreads over all of them), then one ``--trace 1`` run per
workload at seed 0.  For each end-to-end metric it records the ten values,
their median and quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median, next
to the metric's bound from ``BENCHMARK.json``.  Beside ``setup_s``, the
median set-up sample of a run, it records two other estimators over the
same samples: their minimum, and the measuring worker's own set-up.  Writes
``perfbench/BENCH_baseline.json`` unless ``--out`` says otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def bench_run(config: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*config["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(config["run_seconds"]), "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    sys.stderr.write(proc.stderr)
    proc.check_returncode()
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = time.monotonic() - t0
    for line in proc.stderr.splitlines():
        if line.startswith("setup_samples "):
            result["setup"] = json.loads(line.split(" ", 1)[1])
    return result


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summarise(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=HERE / "BENCH_baseline.json")
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            res = bench_run(config, w, seed, 0)
            runs[w].append(res)
            print(f"{w} seed {seed}: correct={res['correct']} "
                  f"run {res['run_s']:.1f} s " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                  flush=True)

    record = {
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                    "python": platform.python_version(),
                    "platform": platform.platform()},
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "run_seconds": config["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    ok = True
    for w in workloads:
        traced = bench_run(config, w, 0, 1)
        ok &= traced["correct"] and all(r["correct"] for r in runs[w])
        e2e = {}
        for name in bounds:
            e2e[name] = summarise([r["metrics"][name]["value"]
                                   for r in runs[w]], bounds[name])
            e2e[name]["unit"] = runs[w][0]["metrics"][name]["unit"]
            print(f"{w:17s} {name:14s} median {e2e[name]['median']:.4g} "
                  f"spread {e2e[name]['spread']:.3f} (bound "
                  f"{bounds[name]})", flush=True)
        # setup_s (the median set-up of a run) beside two other estimators
        # over the same samples: their minimum, and the measuring worker's own
        setups = [r["setup"] for r in runs[w]]
        estimators = {
            "min_of_samples": [min(s["samples"]) for s in setups],
            "median_of_samples": [statistics.median(s["samples"])
                                  for s in setups],
            "measuring_worker": [s["samples"][s["worker"]] for s in setups],
        }
        record["workloads"][w] = {
            "correct": all(r["correct"] for r in runs[w]),
            "run_s": [r["run_s"] for r in runs[w]],
            "end_to_end": e2e,
            "setup_estimators": {name: summarise(v, bounds["setup_s"])
                                 for name, v in estimators.items()},
            "traced_seed0": {"correct": traced["correct"],
                             "run_s": traced["run_s"],
                             "metrics": {k: v["value"] for k, v
                                         in traced["metrics"].items()}},
        }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
