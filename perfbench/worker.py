"""One benchmark worker: a fresh process that runs passes of one workload.

    python3 perfbench/worker.py ROOT WORKLOAD SEED SECONDS MODE

MODE is one of

- ``setup``: import ``spincheck`` from ROOT/src and build the job list, then
  exit;
- ``time``: untraced passes, one after another, until SECONDS have elapsed
  (at least one pass);
- ``trace``: one untraced and one traced pass, alternating job by job: each
  job runs untraced, then traced.  Both passes must emit the same report
  JSON, and every name the tracer patched must be restored.

The worker prints ``ready`` once it is set up and, at the end, one JSON line
with its results.  A pass runs the jobs one after another in this process
and serialises every report with ``as_json()``; it starts no threads.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import grid

# every module of the package, the command line front end included
MODULES = ("cli", "clifford", "errors", "invariant", "linalg", "qspin",
           "report", "scalar", "weights")


def import_spincheck(root: Path):
    src = root / "src"
    pkg = src / "spincheck"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no spincheck sources under {src}")
    sys.path.insert(0, str(src))
    sc = importlib.import_module("spincheck")
    for name in MODULES:
        importlib.import_module(f"spincheck.{name}")
    if Path(sc.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: spincheck was imported from {sc.__file__}")
    return sc


def play(job) -> tuple[list[str], bool]:
    """Run one job and serialise its reports: (texts, every check passed)."""
    reps = job.run()
    texts = [grid.report_text(r.as_json()) for r in reps]
    return texts, all(r.passed for r in reps)


def run_pass(jobs, expected, calls) -> list[dict]:
    """Run every job once under each of ``calls`` (each maps a job to what
    ``play`` returns), alternating call by call within each job, so that a
    slow spell of the machine shorter than a job falls on every call alike.
    Returns one pass result per call.  A job fails when it raises, has a
    failing check or emits report JSON other than the expected text."""
    perf = time.perf_counter
    res = [{"cpu_s": 0.0, "jobs": len(jobs), "failed": [], "texts": {},
            "times": {}} for _ in calls]
    for job in jobs:
        for call, r in zip(calls, res):
            c0, t0 = time.process_time(), perf()
            try:
                texts, ok = call(job)
            except Exception:                   # noqa: BLE001 - counted, shown
                traceback.print_exc()
                texts, ok = None, False
            r["times"][job.name] = perf() - t0
            r["cpu_s"] += time.process_time() - c0
            r["texts"][job.name] = texts
            if not ok or texts != expected[job.name]:
                r["failed"].append(job.name)
    for r in res:
        times = r.pop("times")
        r["wall_s"] = sum(times.values())
        r["slowest_job"] = max(times, key=times.get)
        r["slowest_job_s"] = times[r["slowest_job"]]
    return res


def _namespaces(sc) -> list[tuple[object, dict]]:
    """Every module and class namespace of the package, copied."""
    out = []
    for name in MODULES:
        mod = getattr(sc, name)
        out.append((mod, dict(vars(mod))))
        out += [(obj, dict(vars(obj))) for obj in vars(mod).values()
                if isinstance(obj, type) and obj.__module__ == mod.__name__]
    return out


def traced(sc, jobs, expected, root: Path, workload: str, seed: int):
    import spans

    before = _namespaces(sc)
    tracer = spans.Tracer(sc)

    def traced_play(job):
        tracer.install()
        try:
            return tracer.run(lambda: tracer.job(job.name, lambda: play(job)))
        finally:
            tracer.uninstall()

    plain, result = run_pass(jobs, expected, [play, traced_play])
    errors = []
    for target, names in before:
        changed = [n for n, v in vars(target).items() if names.get(n) is not v]
        if changed:
            errors.append(f"{target.__name__} not restored: {changed}")
    if result["texts"] != plain["texts"]:
        errors.append("traced pass emitted other JSON than the untraced one")
    try:
        metrics = tracer.metrics(untraced_wall_s=plain["wall_s"])
    except AssertionError as exc:
        errors.append(str(exc))
        metrics = None
    tracer.dump(root / "perfbench" / "out" / f"spans-{workload}-{seed}.json",
                {"workload": workload, "seed": seed})
    return [plain, result], metrics, errors


def main(argv: list[str]) -> int:
    root, workload, seed, seconds, mode = argv
    root, seed, seconds = Path(root), int(seed), float(seconds)
    sc = import_spincheck(root)
    jobs = grid.workload_jobs(sc, workload, seed)
    print("ready", flush=True)
    if mode == "setup":
        return 0
    golden = grid.load_golden()
    expected = {job.name: grid.expected_texts(golden, job) for job in jobs}

    metrics, errors = None, []
    if mode == "trace":
        passes, metrics, errors = traced(sc, jobs, expected, root,
                                         workload, seed)
    else:
        passes, start = [], time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes += run_pass(jobs, expected, [play])
    for p in passes:
        del p["texts"]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"passes": passes, "peak_rss_mb": rss_mb,
                      "trace": metrics, "errors": errors}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
