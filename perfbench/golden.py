"""Record the seed-0 golden reports from ``spincheck all --max-rank 3``.

Runs the ``all`` command in-process, then runs every job of the benchmark
grid at seed 0 and checks that the jobs, concatenated in grid order,
reproduce the command's standard output byte for byte.  Only then does it
write ``golden.json``: for each job, its reports with one SHA-256 digest per
report.  Run it from the repository root:

    python3 perfbench/golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spincheck.clifford  # noqa: E402
import spincheck.invariant  # noqa: E402
import spincheck.qspin  # noqa: E402
import spincheck.scalar  # noqa: E402
import spincheck.weights  # noqa: E402
from spincheck import cli  # noqa: E402

import grid  # noqa: E402

ARGV = ["all", "--max-rank", "3"]


def main() -> int:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        status = cli.run(ARGV)
    if status != 0:
        print(f"spincheck {' '.join(ARGV)} exited {status}", file=sys.stderr)
        return 1

    jobs = grid.all_jobs(spincheck, seed=0)
    records, reports = [], []
    for job in jobs:
        reps = [r.as_json() for r in job.run()]
        reports += reps
        records.append({
            "name": job.name,
            "workload": job.workload,
            "reports": [{"sha256": grid.digest(grid.report_text(r)), "json": r}
                        for r in reps],
        })
    rebuilt = json.dumps({"command": "all", "reports": reports,
                          "pass": all(r["pass"] for r in reports)}, indent=2)
    if rebuilt + "\n" != out.getvalue():
        print("the grid does not reproduce `all` byte for byte", file=sys.stderr)
        return 1
    grid.GOLDEN.write_text(json.dumps({
        "source": "spincheck " + " ".join(ARGV),
        "stdout_sha256": grid.digest(out.getvalue()),
        "jobs": records,
    }, indent=1) + "\n")
    print(f"{len(jobs)} jobs, {len(reports)} reports reproduce "
          f"`spincheck {' '.join(ARGV)}`; wrote {grid.GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
