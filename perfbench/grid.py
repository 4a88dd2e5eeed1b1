"""The job grid of ``spincheck all --max-rank 3``, split into three workloads.

A job is one batch of the ``all`` command: a call of one public ``verify_*``
entry point (or a small group of them) that returns verification reports.
Every job belongs to exactly one workload, so the three workloads together
run the whole grid once per pass.

Seed 0 reproduces the ``all`` inputs exactly, in the ``all`` order.  Any
other seed draws, from the same generator in a fixed sequence:

- two distinct duality points and one coideal point from ``POINT_POOL``;
- the seed of ``markov_property_check``;
- the order of the jobs inside each workload.

Every pool point is a non-square rational, so v = q**(1/4) always lives in a
degree-4 extension and the point arithmetic stays in one cost class.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

WORKLOADS = ("spectra-symbolic", "duality-point", "battery-mixed")

POINT_POOL = (Fraction(3, 2), Fraction(5, 2), Fraction(5, 3),
              Fraction(7, 2), Fraction(7, 3), Fraction(7, 5))

SEED0_DUALITY_POINTS = (Fraction(3, 2), Fraction(5, 2))
SEED0_COIDEAL_POINT = Fraction(3, 2)
SEED0_MARKOV_SEED = 20240817        # the default of markov_property_check

DUALITY_GRID = ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3))

GOLDEN = Path(__file__).with_name("golden.json")


@dataclass(frozen=True)
class Job:
    name: str
    workload: str
    run: Callable[[], list[Any]]
    # golden text -> text at this seed (the point tags a report carries)
    subst: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class SeedInputs:
    duality_points: tuple[Fraction, Fraction]
    coideal_point: Fraction
    markov_seed: int


def seed_inputs(seed: int) -> SeedInputs:
    if seed == 0:
        return SeedInputs(SEED0_DUALITY_POINTS, SEED0_COIDEAL_POINT,
                          SEED0_MARKOV_SEED)
    rng = random.Random(seed)
    p1, p2 = rng.sample(POINT_POOL, 2)
    coideal = rng.choice(POINT_POOL)
    return SeedInputs((p1, p2), coideal, rng.randrange(2 ** 31))


def all_jobs(sc, seed: int) -> list[Job]:
    """Every job of ``all --max-rank 3``, in the ``all`` order at seed 0.

    ``sc`` is the imported ``spincheck`` package.  Entry points are looked
    up on their modules when a job runs, not when it is built, so a tracer
    that rebinds module attributes sees every call.
    """
    clif, inv, qs, sca, wts = (sc.clifford, sc.invariant, sc.qspin,
                               sc.scalar, sc.weights)
    inputs = seed_inputs(seed)
    jobs: list[Job] = []

    def add(name, workload, run, subst=None):
        jobs.append(Job(name, workload, run, subst or {}))

    def clifford_battery():
        reps = []
        for N in (1, 2, 3, 4):
            for l in (3, 4):
                for primed in ((False, True) if N >= 2 else (False,)):
                    reps.append(clif.verify_so_relations(N, l, primed))
            reps.append(clif.commuting_family_check(N))
            reps.append(clif.classical_spectrum_check(N))
        return reps

    def serre(k, parity):
        if parity == "even":
            return [qs.verify_serre(wts.RootData("D", k))]
        return [qs.verify_serre(wts.RootData("B", k)),
                qs.verify_serre(wts.RootData("B", k), odd_doubled=True)]

    def build_c(k, parity):
        return inv.build_c_even(k) if parity == "even" else inv.build_c_odd(k)

    def commute(k, parity):
        c = build_c(k, parity)
        return [inv.verify_commutation(c, inv.generator_action_for(c))]

    def spectrum(k, parity):
        return [inv.spectrum_check(build_c(k, parity))]

    def coideal(k, parity, q0):
        point = None if q0 is None else sca.EvalPoint.from_q(q0)
        return [inv.verify_coideal(k, parity, 3, point=point)]

    def point_subst(q0):
        # the coideal report names its point by the EvalPoint repr
        return {repr(sca.EvalPoint.from_q(SEED0_COIDEAL_POINT)):
                repr(sca.EvalPoint.from_q(q0))}

    pts = inputs.duality_points
    duality_subst = {f"q0={a}": f"q0={b}"
                     for a, b in zip(SEED0_DUALITY_POINTS, pts)}

    def duality(k, parity, n):
        return [inv.verify_duality(k, parity, n, points=(*pts, "classical"))]

    add("clifford", "battery-mixed", clifford_battery)
    for k in (1, 2, 3):
        for parity in ("even", "odd"):
            add(f"serre:{parity}:k={k}", "battery-mixed",
                lambda k=k, p=parity: serre(k, p))
    for k in (1, 2, 3):
        add(f"commute:even:k={k}", "battery-mixed",
            lambda k=k: commute(k, "even"))
        add(f"spectrum:even:k={k}", "spectra-symbolic",
            lambda k=k: spectrum(k, "even"))
        add(f"third-power:k={k}", "battery-mixed",
            lambda k=k: [inv.third_power_profile(k)])
    for k in (1, 2):
        add(f"commute:odd:k={k}", "battery-mixed",
            lambda k=k: commute(k, "odd"))
        add(f"spectrum:odd:k={k}", "spectra-symbolic",
            lambda k=k: spectrum(k, "odd"))
        add(f"trace:k={k}", "battery-mixed",
            lambda k=k: [inv.markov_property_check(
                k, seed=inputs.markov_seed)])
    for k, parity in ((1, "even"), (1, "odd"), (2, "even")):
        add(f"coideal:{parity}:k={k}", "battery-mixed",
            lambda k=k, p=parity: coideal(k, p, None))
    q0 = inputs.coideal_point
    for k, parity in ((2, "odd"), (3, "even")):
        add(f"coideal:{parity}:k={k}:point", "battery-mixed",
            lambda k=k, p=parity: coideal(k, p, q0), point_subst(q0))
    for k, n in DUALITY_GRID:
        for parity in ("even", "odd"):
            add(f"duality:{parity}:k={k}:n={n}", "duality-point",
                lambda k=k, p=parity, n=n: duality(k, p, n), duality_subst)
    return jobs


def workload_jobs(sc, workload: str, seed: int) -> list[Job]:
    """The jobs of one workload, in the order one pass runs them."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    jobs = [j for j in all_jobs(sc, seed) if j.workload == workload]
    if seed != 0:
        random.Random(f"{seed}:{workload}").shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# golden reports

def report_text(report_json: dict) -> str:
    """The bytes a report is compared by: its JSON, key order kept."""
    return json.dumps(report_json, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden(path: Path = GOLDEN) -> dict[str, list[str]]:
    """Job name -> seed-0 report texts, each checked against its digest."""
    data = json.loads(path.read_text())
    golden = {}
    for job in data["jobs"]:
        texts = []
        for rep in job["reports"]:
            text = report_text(rep["json"])
            if digest(text) != rep["sha256"]:
                raise ValueError(f"golden report of {job['name']} is corrupt")
            texts.append(text)
        golden[job["name"]] = texts
    return golden


def expected_texts(golden: dict[str, list[str]], job: Job) -> list[str]:
    """The golden texts with the seed-0 point tags replaced by this seed's."""
    texts = golden[job.name]
    if not job.subst:
        return texts
    pattern = re.compile("|".join(re.escape(k) for k in job.subst))
    return [pattern.sub(lambda m: job.subst[m.group(0)], t) for t in texts]
