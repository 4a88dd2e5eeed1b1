"""The seed-0 reports of the benchmark grid against ``perfbench/golden.json``.

``perfbench/grid.py`` splits ``spincheck all --max-rank 3`` into jobs, and
``perfbench/golden.json`` pins each job's reports by SHA-256.  This runs
every job and compares its report texts with the golden ones, so a change
to any report shows up in Tier-1 and not only in a benchmark run.  The grid
module is loaded read-only from its file.
"""

from __future__ import annotations

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

import spincheck.clifford  # noqa: F401  (the grid reads these modules)
import spincheck.invariant  # noqa: F401
import spincheck.qspin  # noqa: F401
import spincheck.scalar  # noqa: F401
import spincheck.weights  # noqa: F401
from spincheck.linalg import SparseMat

GRID_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "grid.py"


def _load_grid():
    spec = importlib.util.spec_from_file_location("perfbench_grid", GRID_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look it up there
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
    return module


grid = _load_grid()
JOBS = grid.all_jobs(spincheck, seed=0)


@pytest.fixture(scope="module")
def golden():
    return grid.load_golden()


@pytest.mark.parametrize("job", JOBS, ids=[job.name for job in JOBS])
def test_report_matches_golden(golden, job):
    texts = [grid.report_text(rep.as_json()) for rep in job.run()]
    assert texts == grid.expected_texts(golden, job)


def test_duality_grid_searches_three_certificate_primes():
    # the grid's points are 3/2, 5/2 and q = 1: one prime search each, and
    # every later request at the same point reads the cached prime
    jobs = [job for job in JOBS if job.name.startswith("duality:")]
    spincheck.scalar.certificate_prime.cache_clear()
    for job in jobs:
        job.run()
    info = spincheck.scalar.certificate_prime.cache_info()
    assert len(jobs) == 10
    assert (info.misses, info.currsize) == (3, 3) and info.hits


def test_coideal_jobs_multiply_plain_ints(monkeypatch):
    # the coideal relations and the commutators with the quantum group are
    # decided at the integer point, or mod p for the nonzero coideal claims
    # at a point: no product over Q(v) or a point field
    types = Counter()
    product = SparseMat.__mul__

    def counting(a, b):
        types.update({type(v).__name__
                      for row in a.rows.values() for v in row.values()})
        return product(a, b)

    monkeypatch.setattr(SparseMat, "__mul__", counting)
    for prefix in ("coideal:", "commute:"):
        jobs = [job for job in JOBS if job.name.startswith(prefix)]
        types.clear()
        for job in jobs:
            job.run()
        assert len(jobs) == 5
        assert set(types) == {"int"}, prefix


def test_point_chain_jobs_multiply_plain_ints(monkeypatch):
    # the spectrum and third-power chains and the trace identity are decided
    # at the integer point: every product there has int entries, and so, in
    # the spectrum jobs, has every apply_to off Q(v), such as t ox t
    def entry_types(m: SparseMat) -> set[str]:
        return {type(v).__name__
                for row in m.rows.values() for v in row.values()}

    products, applied = Counter(), Counter()
    product, apply_to = SparseMat.__mul__, SparseMat.apply_to

    def counting(a, b):
        products.update(entry_types(a) | entry_types(b))
        return product(a, b)

    def counting_apply(a, vec):
        if "Scalar" not in entry_types(a):
            applied.update(entry_types(a))
        return apply_to(a, vec)

    monkeypatch.setattr(SparseMat, "__mul__", counting)
    monkeypatch.setattr(SparseMat, "apply_to", counting_apply)
    for prefix, count in (("spectrum:", 5), ("third-power:", 3),
                          ("trace:", 2)):
        jobs = [job for job in JOBS if job.name.startswith(prefix)]
        products.clear()
        applied.clear()
        for job in jobs:
            job.run()
        assert len(jobs) == count
        assert set(products) == {"int"}, prefix
        if prefix == "spectrum:":
            assert set(applied) == {"int"}


def test_duality_jobs_build_no_ext(monkeypatch):
    # every seed-0 duality point is certified mod p, after one inclusion
    # test over Q(v): no job computes in a point field
    duality = [job for job in JOBS if job.name.startswith("duality:")]
    built = Counter()
    init = spincheck.scalar.Ext.__init__
    job_name = None

    def counting(self, *args):
        built[job_name] += 1
        init(self, *args)

    monkeypatch.setattr(spincheck.scalar.Ext, "__init__", counting)
    for job in duality:
        job_name = job.name
        job.run()
    assert len(duality) == 10
    assert built == Counter()
