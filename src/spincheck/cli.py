"""Command-line driver: constructions and verification suites, JSON out.

Subcommands

    bratteli  --family B|D --rank K --levels L [--dot | --json]
    qdim      --family B|D --rank K --label a,b,... [--assoc]
    eigen     --rank K --parity even|odd
    verify    --suite clifford|serre|commute|spectrum|coideal|duality|
                      third-power|trace
              [--rank K] [--parity P] [--n N] [--q a/b]
    all       [--max-rank K]

Machine-readable JSON goes to stdout, a human-readable log to stderr.  Exit
status is 0 when every check passes, 1 when some identity fails, and 2 on
usage errors (including requests the exact-arithmetic guards refuse, with a
message naming the bound and a cheaper request).  All arithmetic is exact:
``--q a/b`` evaluates at a rational q; without it a suite runs symbolically,
or at its own default points, whenever the size guards allow it.  Only the
``commute``, ``coideal`` and ``duality`` suites have a point path; the other
suites refuse ``--q`` with exit 2 and a message naming the suite.  The
``third-power`` and ``trace`` suites are stated for even parity and refuse
``--parity odd`` the same way.  Output ordering is deterministic (labels
sorted, fixed check order) so the JSON is suitable for golden-file diffing.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, TextIO

from .clifford import (classical_spectrum_check, commuting_family_check,
                       verify_so_relations)
from .errors import DomainError, SizeGuardError
from .invariant import (build_c, generator_action_for, markov_property_check,
                        spectrum_check, third_power_profile, verify_coideal,
                        verify_commutation, verify_duality)
from .qspin import verify_serre
from .report import VerificationReport
from .scalar import EvalPoint, render_q
from .weights import (PinLabel, RootData, bratteli, classical_dimension,
                      qdimension)

MAX_CLI_RANK = 4        # desk scale: orthogonal ranks past this are refused
MAX_CLI_POWER = 5

_SUITES = ("clifford", "serre", "commute", "spectrum", "coideal",
           "duality", "third-power", "trace")
_POINT_SUITES = ("commute", "coideal", "duality")     # the ones --q reaches
_EVEN_SUITES = ("third-power", "trace")               # stated for type D only


@dataclass(frozen=True)
class Command:
    """A validated invocation: subcommand name plus its parameter set."""

    name: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        for key in ("rank", "max_rank"):
            rank = self.params.get(key)
            if rank is not None and not 1 <= rank <= MAX_CLI_RANK:
                raise DomainError(f"{key.replace('_', '-')} must lie in "
                                  f"1..{MAX_CLI_RANK}")
        n = self.params.get("n")
        if n is not None and not 2 <= n <= MAX_CLI_POWER:
            raise DomainError(f"tensor power must lie in 2..{MAX_CLI_POWER}")
        levels = self.params.get("levels")
        if levels is not None and not 1 <= levels <= 8:
            raise DomainError("levels must lie in 1..8")
        suite = self.params.get("suite")
        if "point" in self.params and suite not in _POINT_SUITES:
            raise DomainError(f"suite {suite} has no point path; --q applies "
                              f"only to {', '.join(_POINT_SUITES)}")
        if suite in _EVEN_SUITES and self.params.get("parity") == "odd":
            raise DomainError(f"suite {suite} is stated for even parity")


def _parse_q(text: str) -> EvalPoint:
    try:
        q0 = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse q = {text!r} as a rational") from exc
    return EvalPoint.from_q(q0)


def _parse_label(text: str, family: str, assoc: bool) -> PinLabel:
    try:
        entries = tuple(Fraction(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse label {text!r}") from exc
    return PinLabel(entries, family, assoc)


# ---------------------------------------------------------------------------
# subcommand handlers: Command -> (json payload, all checks passed)

def _run_bratteli(cmd: Command, log: TextIO) -> tuple[Any, bool]:
    p = cmd.params
    rd = RootData(p["family"], p["rank"])
    diag = bratteli(rd, p["levels"])
    if p["format"] == "dot":
        return diag.as_dot(), True
    return diag.as_json(), True


def _run_qdim(cmd: Command, log: TextIO) -> tuple[Any, bool]:
    p = cmd.params
    rd = RootData(p["family"], p["rank"])
    lbl = _parse_label(p["label"], p["family"], p["assoc"])
    if lbl.rank != rd.rank:
        raise DomainError(f"label {lbl} has {lbl.rank} entries, rank is {rd.rank}")
    value = qdimension(lbl, rd)
    payload = {
        "family": p["family"],
        "rank": p["rank"],
        "label": str(lbl),
        "qdim": render_q(value),
        "classical_dimension": classical_dimension(lbl, rd),
    }
    print(f"qdim {lbl} = {payload['qdim']}", file=log)
    return payload, True


def _run_eigen(cmd: Command, log: TextIO) -> tuple[Any, bool]:
    p = cmd.params
    k, parity = p["rank"], p["parity"]
    c = build_c(k, parity)
    payload: dict[str, Any] = {
        "parity": parity,
        "rank": k,
        "module_dimension": c.dim,
        "eigenvalues": [render_q(e) for e in c.eigenvalues()],
    }
    if parity == "even":
        payload["label_heights"] = c.eigen_label_heights()
        payload["labels"] = [str(lbl) for lbl in c.eigen_labels()]
    print(f"spectrum ({parity}, k={k}): {', '.join(payload['eigenvalues'])}",
          file=log)
    return payload, True


def _log_report(rep: VerificationReport, log: TextIO) -> None:
    print(rep.summary(), file=log)


def _verify_reports(suite: str, rank: int | None, parity: str, n: int,
                    point: EvalPoint | None,
                    log: TextIO) -> list[VerificationReport]:
    """Collect the reports for one verify suite.

    ``point`` is an explicit evaluation point.  Without one the
    suite-specific default applies (symbolic wherever the guards allow).
    """
    reps: list[VerificationReport] = []
    if suite == "clifford":
        for N in ([rank] if rank else [1, 2, 3, 4]):
            for l in (3, 4):
                for primed in ((False, True) if N >= 2 else (False,)):
                    reps.append(verify_so_relations(N, l, primed))
            reps.append(commuting_family_check(N))
            reps.append(classical_spectrum_check(N))
    elif suite == "serre":
        k = rank or 2
        if parity == "even":
            reps.append(verify_serre(RootData("D", k)))
        else:
            reps.append(verify_serre(RootData("B", k)))
            reps.append(verify_serre(RootData("B", k), odd_doubled=True))
    elif suite in ("commute", "spectrum"):
        k = rank or 2
        c = build_c(k, parity)
        if suite == "commute":
            reps.append(verify_commutation(c, generator_action_for(c),
                                           point=point))
        else:
            reps.append(spectrum_check(c))
    elif suite == "coideal":
        k = rank or 2
        reps.append(verify_coideal(k, parity, n, point=point))
    elif suite == "duality":
        k = rank or 1
        if point is not None:
            reps.append(verify_duality(k, parity, n, points=(point.q0,)))
        else:
            reps.append(verify_duality(k, parity, n))
    elif suite == "third-power":
        reps.append(third_power_profile(rank or 2))
    elif suite == "trace":
        reps.append(markov_property_check(rank or 2))
    else:  # pragma: no cover - argparse restricts choices
        raise DomainError(f"unknown suite {suite!r}")
    for rep in reps:
        _log_report(rep, log)
    return reps


def _run_verify(cmd: Command, log: TextIO) -> tuple[Any, bool]:
    p = cmd.params
    reps = _verify_reports(p["suite"], p.get("rank"), p["parity"], p["n"],
                           p.get("point"), log)
    ok = all(r.passed for r in reps)
    return {"reports": [r.as_json() for r in reps], "pass": ok}, ok


def _run_all(cmd: Command, log: TextIO) -> tuple[Any, bool]:
    """The full battery at desk scale, capped by --max-rank."""
    mr = cmd.params["max_rank"]
    reps: list[VerificationReport] = []

    def batch(suite, **kw):
        reps.extend(_verify_reports(suite, kw.get("rank"),
                                    kw.get("parity", "even"), kw.get("n", 3),
                                    kw.get("point"), log))

    batch("clifford")
    for k in range(1, mr + 1):
        batch("serre", rank=k, parity="even")
        batch("serre", rank=k, parity="odd")
    for k in range(1, min(3, mr) + 1):
        batch("commute", rank=k, parity="even")
        batch("spectrum", rank=k, parity="even")
        batch("third-power", rank=k)
    for k in range(1, min(2, mr) + 1):
        batch("commute", rank=k, parity="odd")
        batch("spectrum", rank=k, parity="odd")
        batch("trace", rank=k)
    batch("coideal", rank=1, parity="even", n=3)
    batch("coideal", rank=1, parity="odd", n=3)
    if mr >= 2:
        batch("coideal", rank=2, parity="even", n=3)
        batch("coideal", rank=2, parity="odd", n=3,
              point=EvalPoint.from_q(Fraction(3, 2)))
    if mr >= 3:
        batch("coideal", rank=3, parity="even", n=3,
              point=EvalPoint.from_q(Fraction(3, 2)))
    for k, n in ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3)):
        if k <= mr:
            batch("duality", rank=k, parity="even", n=n)
            batch("duality", rank=k, parity="odd", n=n)
    ok = all(r.passed for r in reps)
    return {"reports": [r.as_json() for r in reps], "pass": ok}, ok


_HANDLERS: dict[str, Callable[[Command, TextIO], tuple[Any, bool]]] = {
    "bratteli": _run_bratteli,
    "qdim": _run_qdim,
    "eigen": _run_eigen,
    "verify": _run_verify,
    "all": _run_all,
}


def _build_parser() -> argparse.ArgumentParser:
    # argparse and its gettext hold about 0.3 MB once imported; only the
    # command line needs them, not a program that imports the package
    import argparse

    parser = argparse.ArgumentParser(
        prog="spincheck",
        description="exact constructions and identity checks for spin "
                    "tensor-power commutants")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    b = sub.add_parser("bratteli", help="branching diagram of tensor powers")
    b.add_argument("--family", choices=("B", "D"), required=True)
    b.add_argument("--rank", type=int, required=True)
    b.add_argument("--levels", type=int, required=True)
    fmt = b.add_mutually_exclusive_group()
    fmt.add_argument("--dot", action="store_true", help="emit graphviz DOT")
    fmt.add_argument("--json", action="store_true",
                     help="emit JSON (the default)")

    q = sub.add_parser("qdim", help="quantum dimension of a labeled summand")
    q.add_argument("--family", choices=("B", "D"), required=True)
    q.add_argument("--rank", type=int, required=True)
    q.add_argument("--label", required=True,
                   help="comma-separated entries, e.g. 1,0 or 3/2,1/2")
    q.add_argument("--assoc", action="store_true",
                   help="the twisted partner of a last-entry-zero D label")

    e = sub.add_parser("eigen", help="spectrum of the invariant operator")
    e.add_argument("--rank", type=int, required=True)
    e.add_argument("--parity", choices=("even", "odd"), required=True)

    v = sub.add_parser("verify", help="run one verification suite")
    v.add_argument("--suite", choices=_SUITES, required=True)
    v.add_argument("--rank", type=int)
    v.add_argument("--parity", choices=("even", "odd"), default="even")
    v.add_argument("--n", type=int, default=3, help="tensor power")
    v.add_argument("--q", help="exact rational evaluation point, e.g. 3/2")

    a = sub.add_parser("all", help="the full desk-scale battery")
    a.add_argument("--max-rank", type=int, default=3, dest="max_rank")
    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse ``argv``, execute, and return the exit status."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:      # argparse already printed usage
        code = exc.code
        return code if isinstance(code, int) else 2
    if ns.subcommand is None:
        parser.print_usage(sys.stderr)
        return 2

    params: dict[str, Any] = {}
    for key in ("family", "rank", "levels", "label", "assoc", "parity",
                "suite", "n", "max_rank"):
        if hasattr(ns, key) and getattr(ns, key) is not None:
            params[key] = getattr(ns, key)
    try:
        if getattr(ns, "q", None) is not None:
            params["point"] = _parse_q(ns.q)
        if ns.subcommand == "bratteli":
            params["format"] = "dot" if ns.dot else "json"
        cmd = Command(ns.subcommand, params)
        payload, ok = _HANDLERS[cmd.name](cmd, sys.stderr)
    except (DomainError, SizeGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if isinstance(payload, str):
        print(payload)
    else:
        print(json.dumps({"command": ns.subcommand, **payload}, indent=2))
    return 0 if ok else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
