"""End-to-end tests of the command-line driver.

Each test calls ``run(argv)`` directly and inspects the exit status plus the
captured stdout/stderr.  Stdout carries the machine-readable JSON (or DOT), so
the goldens here double as a compatibility contract for downstream consumers.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import spincheck
from spincheck import cli, invariant
from spincheck.report import VerificationReport


def invoke(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# construction subcommands


def test_bratteli_json_golden(capsys):
    code, payload, _ = invoke_json(
        capsys, "bratteli", "--family", "B", "--rank", "1", "--levels", "3")
    assert code == 0
    assert payload == {
        "command": "bratteli",
        "family": "B",
        "rank": 1,
        "levels": [
            {"(1/2)": 1},
            {"(1)": 1, "(0)": 1},
            {"(3/2)": 1, "(1/2)": 2},
        ],
    }


def test_bratteli_dot(capsys):
    code, out, _ = invoke(
        capsys, "bratteli", "--family", "B", "--rank", "1", "--levels", "2",
        "--dot")
    assert code == 0
    assert out.startswith("digraph")
    assert '"L1:(1/2)" -> "L2:(1)"' in out


def test_qdim_golden(capsys):
    code, payload, err = invoke_json(
        capsys, "qdim", "--family", "B", "--rank", "1", "--label", "1/2")
    assert code == 0
    assert payload == {
        "command": "qdim",
        "family": "B",
        "rank": 1,
        "label": "(1/2)",
        "qdim": "q^(1/2)+q^(-1/2)",
        "classical_dimension": 2,
    }
    assert "qdim" in err


@pytest.mark.parametrize("label, shown", [
    ("1,1/2", "(1,1/2)"),        # mixes integers and half-integers
    ("1/2,3/2", "(1/2,3/2)"),    # not dominant
    ("1,-1", "(1,-1)"),          # negative last entry
])
def test_bad_label_printed_like_a_label(capsys, label, shown):
    code, out, err = invoke(
        capsys, "qdim", "--family", "B", "--rank", "2", "--label", label)
    assert code == 2
    assert shown in err
    assert "Fraction(" not in err


@pytest.mark.parametrize("rank, label", [("1", "2/3"), ("2", "1/3,0")])
def test_label_off_the_half_integers_refused(capsys, rank, label):
    # the error names the label, not a quantum integer met later on
    code, out, err = invoke(
        capsys, "qdim", "--family", "D", "--rank", rank, "--label", label)
    assert code == 2
    assert out == ""
    assert err == (f"error: label ({label}) is not a weight: each entry "
                   f"must be an integer or a half-integer\n")


def test_eigen_even_rank_two(capsys):
    code, payload, _ = invoke_json(
        capsys, "eigen", "--rank", "2", "--parity", "even")
    assert code == 0
    assert payload["command"] == "eigen"
    assert payload["module_dimension"] == 4
    assert payload["eigenvalues"] == ["q+q^(-1)", "1", "0", "-1",
                                      "-q-q^(-1)"]
    assert payload["label_heights"] == [0, 3, 2, 1, 4]
    assert len(payload["labels"]) == 5


def test_eigen_odd_has_no_labels(capsys):
    code, payload, _ = invoke_json(
        capsys, "eigen", "--rank", "1", "--parity", "odd")
    assert code == 0
    assert payload["module_dimension"] == 4
    assert "label_heights" not in payload
    assert payload["eigenvalues"][0] == "(q^(3/2)+q^(1/2)+q^(-1/2))/(q+1)"


# ---------------------------------------------------------------------------
# verification subcommands


def test_verify_commute_passes(capsys):
    code, payload, err = invoke_json(
        capsys, "verify", "--suite", "commute", "--rank", "1",
        "--parity", "even")
    assert code == 0
    assert payload["pass"] is True
    assert payload["reports"][0]["suite"] == "commutation"
    assert all(ch["pass"] for ch in payload["reports"][0]["checks"])
    assert "checks passed" in err


def test_verify_coideal_at_point(capsys):
    code, payload, _ = invoke_json(
        capsys, "verify", "--suite", "coideal", "--rank", "1",
        "--parity", "odd", "--q", "5/2")
    assert code == 0
    names = [ch["name"] for ch in payload["reports"][0]["checks"]]
    assert "adjacent_cubic" in names


def test_verify_failure_exits_one(capsys, monkeypatch):
    bad = VerificationReport("trace", {})
    bad.add("product_trace_multiplicativity", False, "forced failure")
    monkeypatch.setattr(cli, "markov_property_check", lambda k: bad)
    code, payload, err = invoke_json(
        capsys, "verify", "--suite", "trace", "--rank", "1")
    assert code == 1
    assert payload["pass"] is False
    assert "FAIL" in err


# ---------------------------------------------------------------------------
# usage errors


@pytest.mark.parametrize("argv", [
    ("frobnicate",),                                     # unknown subcommand
    ("bratteli", "--family", "B"),                       # missing required
    ("qdim", "--family", "Z", "--rank", "1", "--label", "0"),
    ("verify", "--suite", "coideal", "--symbolic"),      # removed flag
    ("verify", "--suite", "coideal", "--q", "zebra"),    # unparsable q
    ("qdim", "--family", "B", "--rank", "1", "--label", "x"),
    ("qdim", "--family", "D", "--rank", "2", "--label", "1"),  # rank mismatch
    ("eigen", "--rank", "9", "--parity", "even"),        # rank guard
    # size guard
    ("verify", "--suite", "coideal", "--rank", "4", "--n", "4"),
    ("verify", "--suite", "spectrum", "--rank", "4", "--parity", "odd"),
    ("--threads", "4", "eigen", "--rank", "1", "--parity", "even"),  # no flag
    ("verify", "--suite", "spectrum", "--rank", "1", "--parity", "even",
     "--q", "3/2"),                                      # no point path
    ("verify", "--suite", "third-power", "--rank", "1",
     "--parity", "odd"),                                 # even parity only
    ("verify", "--suite", "trace", "--rank", "1", "--parity", "odd"),
])
def test_usage_errors_exit_two(capsys, argv):
    code = cli.run(list(argv))
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("max_rank", ["0", "5"])
def test_all_max_rank_out_of_range_refused_up_front(capsys, monkeypatch,
                                                    max_rank):
    def no_suite(*args, **kwargs):
        raise AssertionError("a suite ran before --max-rank was checked")

    monkeypatch.setattr(cli, "_verify_reports", no_suite)
    code, out, err = invoke(capsys, "all", "--max-rank", max_rank)
    assert code == 2
    assert out == ""
    assert "max-rank" in err


def test_no_subcommand_prints_usage(capsys):
    code, out, err = invoke(capsys)
    assert code == 2
    assert out == ""
    assert "usage" in err


def test_all_same_under_optimize():
    # python -O strips asserts; no check may depend on them
    src = os.path.dirname(os.path.dirname(spincheck.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    for argv in (["all", "--max-rank", "1"],
                 ["verify", "--suite", "duality", "--rank", "2", "--parity",
                  "odd", "--n", "3"]):
        outs = []
        for flags in ([], ["-O"]):
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "spincheck", *argv],
                capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


@pytest.mark.parametrize("suite", ["spectrum", "third-power", "trace",
                                   "serre", "clifford"])
def test_q_refused_where_no_point_path(capsys, suite):
    code, out, err = invoke(capsys, "verify", "--suite", suite, "--rank", "1",
                            "--q", "3/2")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: suite {suite} has no point path")


@pytest.mark.parametrize("suite", ["third-power", "trace"])
def test_odd_parity_refused_where_stated_for_even(capsys, monkeypatch, suite):
    def no_suite(*args, **kwargs):
        raise AssertionError("a suite ran before --parity was checked")

    monkeypatch.setattr(cli, "_verify_reports", no_suite)
    code, out, err = invoke(capsys, "verify", "--suite", suite, "--rank", "1",
                            "--parity", "odd")
    assert code == 2
    assert out == ""
    assert err == f"error: suite {suite} is stated for even parity\n"


def test_guard_refusal_reports_reason(capsys):
    code, out, err = invoke(
        capsys, "verify", "--suite", "coideal", "--rank", "4", "--n", "4")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    # without --q the coideal suite has the point bound and its hint
    assert "65536" in err and "bound 4096" in err and "--n 3" in err


def test_point_guard_refusal_names_bound_and_smaller_power(capsys):
    code, out, err = invoke(
        capsys, "verify", "--suite", "coideal", "--rank", "4", "--n", "4",
        "--q", "3/2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "65536" in err and "bound 4096" in err and "--n 3" in err


def test_duality_past_unknown_bound_refused_up_front(capsys, monkeypatch):
    def no_rank(*args, **kwargs):
        raise AssertionError("a rank ran before the unknown count was checked")

    for name in ("build_c", "generated_algebra_dim", "commutant_dim_oracle"):
        monkeypatch.setattr(invariant, name, no_rank)
    code, out, err = invoke(capsys, "verify", "--suite", "duality", "--rank",
                            "2", "--parity", "odd", "--n", "4")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "4900" in err and "--n 3" in err
