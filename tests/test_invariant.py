"""Tests for the invariant two-slot operator C and its verification suites.

The small cases are frozen as explicit matrix goldens (computed once by hand
from the defining sum: for each position j where the two sign vectors differ,
flip both and weight by (-q)^{partial weight difference}).  Everything else
goes through the verify_* report machinery, asserting both the overall verdict
and the presence of the individual named checks.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import gcd, isqrt, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spincheck
from spincheck import invariant
from spincheck.errors import DomainError, PoleError, SizeGuardError
from spincheck.invariant import (MAX_SYMBOLIC_DIM, build_c, build_c_even,
                                 build_c_odd, commutant_dim_oracle,
                                 embed_pair_operator,
                                 generated_algebra_dim, generator_action_for,
                                 markov_property_check,
                                 spectrum_check, third_power_profile,
                                 verify_coideal, verify_commutation,
                                 verify_duality)
from spincheck.linalg import ModRowReducer, RowReducer, SparseMat
from spincheck.qspin import block_lift, spin_rep, tensor_action
from spincheck.report import VerificationReport
from spincheck.scalar import (CLASSICAL, ONE, SYMBOLIC, ZERO, EvalPoint,
                              ModPoint, Scalar, _lmul, certificate_prime,
                              curly, qbinom, qint, qpow, render_q)
from spincheck.weights import (RootData, bratteli, centralizer_dims, inner,
                               one_column_label, qdimension, spin_label)

HALF = Fraction(1, 2)


def entries(mat: SparseMat) -> dict[tuple[int, int], object]:
    return {(r, c): v for r, rw in mat.rows.items() for c, v in rw.items()}


def _child_env() -> dict[str, str]:
    """The environment of a child Python that imports the same spincheck as
    this process."""
    src = os.path.dirname(os.path.dirname(spincheck.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


# ---------------------------------------------------------------------------
# the matrices themselves


def test_even_rank_one_matrix_golden():
    # d = 2; only the mixed pairs (0,1) and (1,0) see a flip, with trivial
    # prefix weight, so C is the permutation swapping them.
    c = build_c_even(1)
    assert c.dim == 2
    ent = entries(c.mat)
    assert set(ent) == {(1, 2), (2, 1)}
    assert all(v == ONE for v in ent.values())


def test_odd_rank_one_matrix_golden():
    # d = 4 (one visible and one invisible coordinate per slot).  The
    # invisible flip acts on every column, the visible one only on mixed
    # pairs, giving 16 + 8 = 24 nonzero entries.
    c = build_c_odd(1)
    assert c.dim == 4
    ent = entries(c.mat)
    assert len(ent) == 24
    assert render_q(ent[(0, 5)]) == "(q^(1/2))/(q+1)"
    assert render_q(ent[(2, 7)]) == "(-q^(-1/2))/(q+1)"
    assert ent[(2, 8)] == ONE
    assert ent[(0, 5)] == ONE / curly(HALF)


@pytest.mark.parametrize("builder,k", [
    (build_c_even, 1), (build_c_even, 2),
    (build_c_odd, 1), (build_c_odd, 2),
])
def test_matrix_is_symmetric(builder, k):
    c = builder(k)
    assert c.mat == c.mat.transpose()


@pytest.mark.parametrize("builder", [build_c_even, build_c_odd])
def test_rank_zero_rejected(builder):
    with pytest.raises(DomainError):
        builder(0)


@pytest.mark.parametrize("builder,k", [
    (build_c_even, 2), (build_c_odd, 1),
])
def test_operator_preserves_total_weight(builder, k):
    # every nonzero entry connects pairs with the same coordinate-sum weight
    c = builder(k)
    wts = generator_action_for(c).weights
    d = c.dim
    for (r, col), _ in entries(c.mat).items():
        ra, rb = divmod(r, d)
        ca, cb = divmod(col, d)
        got = tuple(x + y for x, y in zip(wts[ra], wts[rb]))
        want = tuple(x + y for x, y in zip(wts[ca], wts[cb]))
        assert got == want


# ---------------------------------------------------------------------------
# eigenvalue bookkeeping


def test_eigenvalues_ladder():
    assert build_c_even(2).eigenvalues() == [qint(j) for j in (2, 1, 0, -1, -2)]
    assert build_c_odd(1).eigenvalues() == [
        qint(Fraction(3, 2)), qint(HALF), qint(-HALF), qint(Fraction(-3, 2))]


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_eigenvalues_symmetric(k, parity):
    # verify_coideal writes the eigenvalue product as C^z times a product
    # over the squared positive eigenvalues, which needs this symmetry
    eigs = build_c(k, parity).eigenvalues()
    assert all(eigs[i] == -eigs[-1 - i] for i in range(len(eigs)))
    if parity == "even":
        assert eigs[k] == ZERO


def test_eigen_label_heights_alternate():
    assert build_c_even(1).eigen_label_heights() == [0, 1, 2]
    assert build_c_even(2).eigen_label_heights() == [0, 3, 2, 1, 4]
    assert build_c_even(3).eigen_label_heights() == [0, 5, 2, 3, 4, 1, 6]


def test_eigen_labels_match_heights():
    c = build_c_even(2)
    rd = RootData("D", 2)
    assert c.eigen_labels() == [one_column_label(rd, r)
                                for r in (0, 3, 2, 1, 4)]


def test_label_heights_undefined_for_odd():
    with pytest.raises(DomainError):
        build_c_odd(1).eigen_label_heights()


# ---------------------------------------------------------------------------
# commutation with the quantum-group action


@pytest.mark.parametrize("builder,k", [
    (build_c_even, 1), (build_c_even, 2), (build_c_odd, 1),
])
def test_commutation_symbolic(builder, k):
    c = builder(k)
    g = generator_action_for(c)
    rep = verify_commutation(c, g)
    assert rep.passed, rep.summary()
    names = {ch.name for ch in rep.checks}
    for i in range(1, g.nsimple + 1):
        assert {f"commutes_E{i}", f"commutes_F{i}",
                f"commutes_K{i}", f"commutes_Khalf{i}"} <= names
    assert "commutes_t" in names
    assert len(names) == 4 * g.nsimple + 1


def test_commutation_rejects_mismatched_action():
    with pytest.raises(DomainError):
        verify_commutation(build_c_even(1),
                           spin_rep(RootData("B", 1), odd_doubled=True))


def test_commutation_at_a_point():
    c = build_c_odd(1)
    rep = verify_commutation(c, generator_action_for(c),
                             point=EvalPoint.from_q(Fraction(3, 2)))
    assert rep.passed
    assert rep.params["point"] == "3/2"


def _commutation_gids(g) -> list[tuple[str, int]]:
    return ([(kind, i) for i in range(1, g.nsimple + 1)
             for kind in ("E", "F", "K", "Khalf")]
            + ([("t", 0)] if g.t_perm is not None else []))


def _commutation_name(gid: tuple[str, int]) -> str:
    return f"commutes_{gid[0]}{gid[1] if gid[0] != 't' else ''}"


@pytest.mark.parametrize("perturb", [None, "times q", "small root"])
@pytest.mark.parametrize("k,parity", [(1, "even"), (2, "even"), (1, "odd")])
def test_commutators_vanish_match_symbolic_reference(monkeypatch, k, parity,
                                                     perturb):
    # the verdicts at the integer point are those of the Q(v) commutators,
    # and B bounds the l1 norm, and so every coefficient, of each entry of
    # the cleared products and of their difference: on C, on C with one
    # entry times q, and on C + (w - 4) E_00 (w = v^2 at even parity, v at
    # odd), whose nonzero commutators vanish at w = 4, a point too close
    c = build_c(k, parity)
    if perturb == "times q":
        _scale_one_entry(c, qpow(1))
    elif perturb == "small root":
        c.mat.add_to(0, 0, Scalar.v_power(2 if parity == "even" else 1) - 4)
    g = generator_action_for(c)
    actions = [tensor_action(g, gid, 2) for gid in _commutation_gids(g)]
    bounds = []
    zero_test_point = invariant._zero_test_point

    def spy(bound, step):
        bounds.append(bound)
        return zero_test_point(bound, step)

    monkeypatch.setattr(invariant, "_zero_test_point", spy)
    verdicts = invariant._commutators_vanish(c.mat, actions)
    assert verdicts == [c.mat.commutator(a).is_zero() for a in actions]
    assert all(verdicts) == (perturb is None)
    cleared = invariant._clearing(c.mat)
    lift = invariant._lift([x for a in actions for row in a.rows.values()
                            for x in row.values()])
    norms = []
    for a in actions:
        x, y = cleared.mat, a.scale(lift)
        for m in (x * y, y * x, x * y - y * x):
            norms += [invariant._l1(val) for row in m.rows.values()
                      for val in row.values()]
    assert len(bounds) == 1
    assert 0 < max(norms) <= bounds[0]


@pytest.mark.parametrize("builder,k", [(build_c_even, 2), (build_c_odd, 1)])
def test_commutation_point_fallback_runs_only_failed_checks(monkeypatch,
                                                            builder, k):
    # X = C + (q - q0) M with M a diagonal unit: over Q(v) X commutes with
    # the torus but not with E, F or t; at q0 it is C again, and only the
    # checks that failed at w0 rerun there with exact point values
    q0 = Fraction(3, 2)
    c = builder(k)
    c.mat.add_to(0, 0, qpow(1) - q0)
    g = generator_action_for(c)
    symbolic = verify_commutation(c, g)
    failed = {ch.name for ch in symbolic.checks if not ch.passed}
    assert {ch.witness for ch in symbolic.checks if not ch.passed} == {
        "nonzero commutator"}
    assert "commutes_t" in failed
    assert failed.isdisjoint({"commutes_K1", "commutes_Khalf1"})
    reruns = []
    action = invariant.tensor_action

    def spy(g, gid, n, *, at=SYMBOLIC):
        if at is not SYMBOLIC:
            reruns.append(_commutation_name(gid))
        return action(g, gid, n, at=at)

    monkeypatch.setattr(invariant, "tensor_action", spy)
    rep = verify_commutation(c, g, point=EvalPoint.from_q(q0))
    assert rep.passed, rep.summary()
    assert sorted(reruns) == sorted(failed)
    assert [ch.name for ch in rep.checks] == [ch.name
                                              for ch in symbolic.checks]


# ---------------------------------------------------------------------------
# spectra


def _reference_qdimension(label, rd) -> Scalar:
    """The q-Weyl quotient over Q(v), one canonical reduction per module:
    [a] = (v^{4a} - v^{-4a}) / (v^4 - v^{-4}), whose denominators cancel
    between prod [<lambda+rho, alpha>] and prod [<rho, alpha>]."""
    def brackets(weight):
        return reduce(_lmul, ({4 * inner(weight, alpha): Fraction(1),
                               -4 * inner(weight, alpha): Fraction(-1)}
                              for alpha in rd.positive_roots()),
                      {0: Fraction(1)})

    rho = rd.rho()
    out = ZERO
    for entries in [label.entries] + ([label.bar()] if label.combined else []):
        lam_rho = tuple(a + b for a, b in zip(entries, rho))
        out = out + Scalar({int(e): c for e, c in brackets(lam_rho).items()},
                           {int(e): c for e, c in brackets(rho).items()})
    return out


@pytest.mark.parametrize("family", ["B", "D"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_qdimension_matches_quotient_formula(family, k):
    rd = RootData(family, k)
    labels = {lbl for level in bratteli(rd, 5).levels for lbl in level}
    labels |= {one_column_label(rd, r) for r in range(rd.vector_dim + 1)}
    for lbl in labels:
        got, want = qdimension(lbl, rd), _reference_qdimension(lbl, rd)
        assert got._num == want._num and got._den == want._den, lbl
        assert render_q(got) == render_q(want)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_even_spectrum_and_qdimension_run_no_polynomial_gcd(gcd_calls, k):
    rd = RootData("D", k)
    for lbl in {lbl for level in bratteli(rd, 4).levels for lbl in level}:
        qdimension(lbl, rd)
    assert spectrum_check(build_c_even(k)).passed
    assert not gcd_calls


def _odd_commutation(k):
    c = build_c_odd(k)
    return verify_commutation(c, generator_action_for(c))


@pytest.mark.parametrize("run", [
    lambda: spectrum_check(build_c_odd(1)),
    lambda: spectrum_check(build_c_odd(2)),
    lambda: _odd_commutation(1),
    lambda: _odd_commutation(2),
    lambda: verify_coideal(1, "odd", 3),
    lambda: verify_coideal(2, "odd", 3,
                           point=EvalPoint.from_q(Fraction(3, 2))),
    lambda: verify_duality(1, "odd", 3),
    lambda: verify_duality(2, "odd", 2),
], ids=["spectrum-1", "spectrum-2", "commute-1", "commute-2", "coideal-1",
        "coideal-2-point", "duality-1-n3", "duality-2-n2"])
def test_odd_checks_run_no_polynomial_gcd(gcd_calls, run):
    # build_c writes 1/{1/2} as [1/2], and _clearing multiplies numerators
    # by the other denominators: the odd operator is cleared with no gcd
    assert run().passed
    assert not gcd_calls


def test_gcd_spy_sees_the_third_power_gauss_jordan(gcd_calls):
    # positive control of the two tests above: the Q(v) row reduction of
    # third_power_profile still reduces quotients by a gcd, so an empty
    # spy there is not vacuous
    assert third_power_profile(1).passed
    assert gcd_calls


def test_spectrum_even_rank_one():
    rep = spectrum_check(build_c_even(1))
    assert rep.passed, rep.summary()
    names = [ch.name for ch in rep.checks]
    assert names == ["annihilating_product", "minimality",
                     "idempotent_partition", "extreme_eigenvector",
                     "projection_traces", "projection_label_fingerprint",
                     "projection_ranks"]
    assert rep.params["top_eigenvector"] == "plain"


def test_spectrum_even_rank_two():
    rep = spectrum_check(build_c_even(2))
    assert rep.passed, rep.summary()
    names = {ch.name for ch in rep.checks}
    assert "freezing_restriction" in names
    assert rep.params["top_eigenvector"] == "twisted"


def test_spectrum_odd_rank_one():
    rep = spectrum_check(build_c_odd(1))
    assert rep.passed, rep.summary()
    names = [ch.name for ch in rep.checks]
    assert "block_swap" in names
    assert "projection_traces" not in names
    assert "projection_label_fingerprint" not in names


@pytest.mark.parametrize("k,parity", [(1, "even"), (2, "even"), (1, "odd")])
def test_spectrum_certificate_matches_symbolic_reference(k, parity):
    # each cleared all-but-one product at the integer point gives the verdicts
    # of the Q(v) projection: zero or not, idempotent or not, and its trace;
    # with one entry times q the full product does not vanish, and the dense
    # idempotence test at the point decides each projection
    for mutated in (False, True):
        c = build_c(k, parity)
        if mutated:
            _scale_one_entry(c, qpow(1))
        _check_certificate(c, mutated)


def _cleared_c(c):
    """C and its eigenvalues cleared, as the checks clear them."""
    return invariant._clearing(c.mat, c.eigenvalues())


def _spectrum_chain(c):
    """The eigenprojection chain of spectrum_check at every eigenvalue.
    Its claim term b enters only the bounds of the trace and rank
    comparisons; these tests compare traces as exact rationals."""
    return invariant._eigenprojections(_cleared_c(c), len(c.eigenvalues()),
                                       c.dim ** 2 + 2, 1)


def _check_certificate(c, mutated: bool) -> None:
    eigs = c.eigenvalues()
    ident = SparseMat.identity(c.dim ** 2, ONE)
    at, full, others, lags, chain_idempotent = _spectrum_chain(c)
    assert full.is_zero() == (not mutated)
    idempotent = []
    s = _cleared_c(c).scale ** (len(eigs) - 1)
    for i, (o, lag) in enumerate(zip(others, lags)):
        ref = invariant._factor_chain(c.mat, eigs[:i] + eigs[i + 1:],
                                      ident)[-1]
        # o is the cleared product at w0, and w0 lies past its coefficients
        cleared = ref.scale(s)
        assert o == cleared.map_values(at.of)
        assert all(abs(x) + 2 <= at.w0
                   for row in cleared.rows.values() for val in row.values()
                   for x in val.integer_coefficients().values())
        proj = ref.scale(ONE / invariant._lagrange_denominator(eigs, i))
        assert o.is_zero() == ref.is_zero()
        idempotent.append(proj * proj == proj)
        assert (o * o == o.scale(lag)) == idempotent[-1]
        assert chain_idempotent[i] == idempotent[-1]
        trace = sum(row.get(r, 0) for r, row in o.rows.items())
        ref_trace = sum((row.get(r, ZERO) for r, row in proj.rows.items()),
                        ZERO)
        if not mutated:
            assert Scalar.from_fraction(Fraction(trace, lag)) == ref_trace
    verdicts = {ch.name: (ch.passed, ch.witness)
                for ch in spectrum_check(c).checks}
    assert verdicts["idempotent_partition"] == (
        (True, None) if all(idempotent) else
        (False, f"projection {idempotent.index(False)} is not idempotent"))


@pytest.mark.parametrize("k,parity", [(1, "even"), (2, "even"), (1, "odd")])
def test_spectrum_certificate_catches_entry_scaled_by_q(k, parity):
    c = _scale_one_entry(build_c(k, parity), qpow(1))
    verdicts = {ch.name: (ch.passed, ch.witness)
                for ch in spectrum_check(c).checks}
    assert verdicts["annihilating_product"] == (
        False, "product does not vanish")
    assert verdicts["idempotent_partition"] == (
        False, "projection 0 is not idempotent")


def _spectrum_mutants():
    """C at even k = 1, 2 and odd k = 1, as built and with one entry times
    q, one entry removed and +1 at (0, 0); and the odd k = 1 diagonal with
    the ladder's eigenvalues at multiplicities 3, 5, 6, 2."""
    for k, parity in [(1, "even"), (2, "even"), (1, "odd")]:
        yield build_c(k, parity)
        yield _scale_one_entry(build_c(k, parity), qpow(1))
        yield _scale_one_entry(build_c(k, parity), ZERO)
        c = build_c(k, parity)
        c.mat.add_to(0, 0, ONE)
        yield c
    c = build_c_odd(1)
    c.mat = SparseMat(16, 16)
    for a, e in enumerate([e for e, times in zip(c.eigenvalues(), (3, 5, 6, 2))
                           for _ in range(times)]):
        c.mat.set_entry(a, a, e)
    yield c


def test_spectrum_partition_is_lagrange_identity():
    # the partition sum spectrum_check no longer forms, sum_i (V / L_i) O_i
    # with V the Vandermonde product of the cleared eigenvalues at w0, is
    # V I on every mutant, whether the full product vanishes or not: that
    # check could never fail
    fulls = []
    for c in _spectrum_mutants():
        at, full, others, lags, _ = _spectrum_chain(c)
        fulls.append(full.is_zero())
        ieigs = [at.of(e) for e in _cleared_c(c).eigs]
        vand = prod(a - b for a, b in combinations(ieigs, 2))
        assert vand and all(vand % lag == 0 for lag in lags)
        total = SparseMat(c.dim ** 2, c.dim ** 2)
        for o, lag in zip(others, lags):
            total = total + o.scale(vand // lag)
        assert total == SparseMat.identity(c.dim ** 2, vand)
    assert True in fulls and False in fulls


@pytest.mark.parametrize("k,parity", [(2, "even"), (1, "odd")])
def test_spectrum_multiplies_only_by_sparse_factors(monkeypatch, k, parity):
    # when the annihilating product vanishes, spectrum_check forms no O_i O_i
    # square and no product of two chains: the right operand of every
    # SparseMat product is a factor (sC - s e_j I) at the integer point
    c = build_c(k, parity)
    points, rights = [], []
    zero_test_point, product = (invariant._zero_test_point,
                                SparseMat.__mul__)

    def spy_point(bound, step):
        points.append(zero_test_point(bound, step))
        return points[-1]

    def spy_product(left, right):
        rights.append(right)
        return product(left, right)

    monkeypatch.setattr(invariant, "_zero_test_point", spy_point)
    monkeypatch.setattr(SparseMat, "__mul__", spy_product)
    rep = spectrum_check(c)
    monkeypatch.undo()
    assert rep.passed, rep.summary()
    at, = points
    cleared = _cleared_c(c)
    imat = cleared.mat.map_values(at.of)
    ident = SparseMat.identity(c.dim ** 2, 1)
    factors = [imat - ident.scale(at.of(e)) for e in cleared.eigs]
    m = len(factors)
    # m - 1 prefix products and m - 1 - i more for each O_i
    assert len(rights) == (m - 1) + m * (m - 1) // 2
    assert all(right in factors for right in rights)


def test_spectrum_rank_by_trace_names_the_wrong_rank():
    # a diagonal operator with the odd k = 1 ladder but multiplicities
    # 3, 5, 6, 2 in place of 2, 6, 6, 2: every projection is idempotent, and
    # its rank is read off its trace
    c = build_c_odd(1)
    diag = SparseMat(16, 16)
    for a, e in enumerate([e for e, times in zip(c.eigenvalues(), (3, 5, 6, 2))
                           for _ in range(times)]):
        diag.set_entry(a, a, e)
    c.mat = diag
    rep = spectrum_check(c)
    verdicts = {ch.name: (ch.passed, ch.witness) for ch in rep.checks}
    assert verdicts["idempotent_partition"] == (True, None)
    assert verdicts["projection_ranks"] == (
        False, "projection 0: rank 3, expected 2")


@pytest.mark.parametrize("k,want", [(1, 1), (2, -1), (3, 1)])
def test_spectrum_fingerprint_names_a_negated_flip(monkeypatch, k, want):
    # with t ox t negated, the flip sign of the first plain label, height
    # 0, is wrong; every other check passes
    real = invariant.tensor_action

    def negated_flip(g, gid, n, **kwargs):
        mat = real(g, gid, n, **kwargs)
        return mat.scale(-1) if gid == ("t", 0) else mat

    monkeypatch.setattr(invariant, "tensor_action", negated_flip)
    rep = spectrum_check(build_c_even(k))
    assert [(ch.name, ch.witness) for ch in rep.checks if not ch.passed] == [
        ("projection_label_fingerprint",
         f"projection 0 (height 0): flip sign != {want}")]


@pytest.mark.parametrize("bound", [0, 1, 6, 2 ** 80 + 3])
def test_zero_test_point_lies_past_the_bound(bound):
    # for each step g, w = v^g lies past the bound, and q = v^4 = w^(4 / g)
    for g in (1, 2, 4):
        at = invariant._zero_test_point(bound, g)
        assert at.g == g
        assert type(at.w0) is int and at.w0 >= bound + 2
        assert at.of(qpow(1)) == at.w0 ** (4 // g)
        assert at.of(Scalar.v_power(g)) == at.w0
        # negative powers of w take exact Fraction values, never truncated
        assert at.of(Scalar.v_power(-g)) == Fraction(1, at.w0)


def test_zero_test_point_does_not_certify_a_small_root():
    p = qpow(Fraction(1, 4)) - 5                       # v - 5
    assert EvalPoint(Fraction(5) ** 4, 1, Fraction(5)).of(p) == 0
    assert invariant._zero_test_point(invariant._l1(p), 1).of(p) != 0


@pytest.mark.parametrize("g,exponent", [(2, 1), (2, 3), (4, 2), (4, -1)])
def test_zero_test_point_refuses_an_exponent_off_the_step(g, exponent):
    # v^e with g not dividing e is no polynomial in w = v^g: its value would
    # lie in an extension, which Cauchy's bound does not decide
    at = invariant._zero_test_point(10, g)
    p = Scalar.v_power(exponent) + 1
    with pytest.raises(DomainError, match=f"v\\^{g}"):
        at.of(p)
    with pytest.raises(DomainError):
        at.of(qpow(1) / 2)                      # a non-integer coefficient


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from([1, 2, 4]),
       st.lists(st.integers(-40, 40), max_size=6),
       st.lists(st.integers(-30, 30), max_size=3),
       st.integers(-8, 8), st.integers(0, 5))
def test_zero_test_point_decides_zero(g, coeffs, roots, low, slack):
    # any integer Laurent polynomial in w = v^g, times linear factors
    # w - r with integer roots; its value at the point past its l1 norm is
    # 0 iff it is 0
    w = Scalar.v_power(g)
    p = Scalar({g * (low + e): Fraction(x) for e, x in enumerate(coeffs)})
    for r in roots:
        p = p * (w - r)
    at = invariant._zero_test_point(invariant._l1(p) + slack, g)
    assert (at.of(p) == 0) == (not p)


@pytest.mark.parametrize("k,parity,g", [(1, "even", 4), (3, "even", 4),
                                        (1, "odd", 2), (2, "odd", 2)])
def test_clearing_step_is_the_gcd_of_the_exponents(k, parity, g):
    cleared = _cleared_c(build_c(k, parity))
    assert cleared.g == g
    values = [x for row in cleared.mat.rows.values() for x in row.values()]
    assert all(e % g == 0 for x in values + cleared.eigs
               for e in x.integer_coefficients())


def _reference_clearing(mat, eigs):
    """The distinct integer denominators of the entries of ``mat`` and of
    ``eigs`` (each canonical denominator times the lcm of the coefficient
    denominators), and the fields of _Cleared built over Q(v) from delta,
    their product: delta M and delta e_i, then the least lift v^E."""
    dens = []
    for x in [v for row in mat.rows.values() for v in row.values()] + eigs:
        scale = lcm(*(c.denominator for part in (x._num, x._den)
                      for c in part.values()))
        den = Scalar({e: c * scale for e, c in x._den.items()})
        if den not in dens:
            dens.append(den)
    delta = prod(dens, start=ONE)
    fmat, feigs = mat.scale(delta), [delta * e for e in eigs]
    low = min(min(x.integer_coefficients(), default=0)
              for x in [v for row in fmat.rows.values()
                        for v in row.values()] + feigs)
    lift = Scalar.v_power(max(0, -low))
    cmat, ceigs = fmat.scale(lift), [e * lift for e in feigs]
    values = [v for row in cmat.rows.values() for v in row.values()] + ceigs
    row = max(sum(invariant._l1(v) for v in r.values())
              for r in cmat.rows.values())
    g = gcd(4, *(e for v in values for e in v.integer_coefficients()))
    entry = max(invariant._l1(v) for r in cmat.rows.values()
                for v in r.values())
    return dens, (delta * lift, cmat, ceigs, row, g, entry)


def _hand_made_clearing_case():
    """A 2 x 2 matrix with the coprime non-monic integer denominators
    6 + 4 v^4 and 6 - 15 v^2, the denominator 4 and rational coefficients,
    and two eigenvalues."""
    x = Scalar({-3: Fraction(1, 2)}, {0: Fraction(3), 4: Fraction(2)})
    y = Scalar({2: Fraction(5, 3), 5: Fraction(-1)},
               {0: Fraction(2), 2: Fraction(-5)})
    quarter = Scalar.from_fraction(Fraction(7, 4))
    mat = SparseMat(2, 2, {0: {0: x, 1: quarter}, 1: {0: qpow(-1), 1: y}})
    return mat, [y, ONE]


@pytest.mark.parametrize("case,ndens", [
    *((f"{parity}-k{k}", 1 if parity == "even" else 2)
      for parity in ("even", "odd") for k in (1, 2, 3)),
    ("third-power", 4), ("hand-made", 4)])
def test_clearing_matches_reference(monkeypatch, case, ndens):
    # every field of _Cleared equals the Q(v) construction; the third-power
    # X at k = 3 has the denominators 1, 2, q^4 + 1 and q^4 + q^2 + 1, so
    # each value is cleared by the product of the other three
    if case == "third-power":
        xs = []
        _patch_x(monkeypatch, lambda x: xs.append(x) or x)
        assert third_power_profile(3).passed
        (mat,), eigs = xs, [qint(3 - r) if r % 2 == 0 else -qint(3 - r)
                            for r in range(7)]
    elif case == "hand-made":
        mat, eigs = _hand_made_clearing_case()
    else:
        parity, k = case.split("-k")
        c = build_c(int(k), parity)
        mat, eigs = c.mat, c.eigenvalues()
    dens, want = _reference_clearing(mat, eigs)
    assert len(dens) == ndens
    got = invariant._clearing(mat, eigs)
    assert len(got) == len(want)
    for name, value in zip(got._fields, want):
        assert getattr(got, name) == value, name


def test_clearing_step_follows_an_odd_exponent():
    # one entry times v: the cleared entries are polynomials in v only
    c = _scale_one_entry(build_c(1, "even"), Scalar.v_power(1))
    assert _cleared_c(c).g == 1


@pytest.mark.parametrize("k,parity", [(3, "even"), (2, "odd")])
def test_spectrum_point_and_products_stay_small(k, parity):
    # evaluating in w = v^g with no partition term in the bound keeps the
    # point at 32 and 34 bits (38 and 41 with the Vandermonde terms, 76 and
    # 79 at v = B + 2 with the prod_j L_j clearing), and every O_i entry at
    # 746 and 1,331 bits (906 and 1,628 with the Vandermonde terms)
    point_bits, entry_bits = {(3, "even"): (32, 746),
                              (2, "odd"): (34, 1331)}[k, parity]
    at, _, others, _, _ = _spectrum_chain(build_c(k, parity))
    assert at.w0.bit_length() <= point_bits
    assert max(abs(x).bit_length() for o in others
               for row in o.rows.values() for x in row.values()) <= entry_bits


@pytest.mark.parametrize("k,point_bits", [(2, 26), (3, 77), (4, 113)])
def test_third_power_point_stays_small(monkeypatch, k, point_bits):
    # the third power reads its chain at one point, bounded like the
    # spectrum's with the exact ||L_0||_1 in place of a product of norms
    points = []
    zero_test_point = invariant._zero_test_point
    monkeypatch.setattr(invariant, "_zero_test_point",
                        lambda b, g: points.append(zero_test_point(b, g))
                        or points[-1])
    assert third_power_profile(k).passed
    at, = points
    assert at.w0.bit_length() <= point_bits


def test_spectrum_same_under_optimize():
    # python -O strips asserts; the reports must not depend on them
    code = ("import json\n"
            "from spincheck.invariant import build_c, spectrum_check\n"
            "for k, parity in ((2, 'even'), (1, 'odd')):\n"
            "    print(json.dumps(spectrum_check(build_c(k, parity))"
            ".as_json()))\n")
    outs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-c", code],
                              capture_output=True, text=True,
                              env=_child_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == 2


def test_squared_block_spectrum_rank_one():
    # restricted to a parity block, C^2 has exactly the eigenvalues [1/2]^2
    # and [3/2]^2, each genuinely present
    c = build_c_odd(1)
    square = invariant._block_square(c)
    m = square.scale(ONE / invariant._clearing(c.mat).scale ** 2)
    lam = [qint(HALF) ** 2, qint(Fraction(3, 2)) ** 2]
    ident = SparseMat.identity(m.nrows, ONE)
    factors = [m - ident.scale(x) for x in lam]
    assert (factors[0] * factors[1]).is_zero()
    assert not factors[0].is_zero()
    assert not factors[1].is_zero()


def test_squared_block_rejects_even():
    with pytest.raises(DomainError):
        invariant._block_square(build_c_even(1))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_odd_duality_pair_matches_cleared_square(k):
    # the reference squares the cleared C, sC with s = (q + 1) v^E, on all
    # of S ox S and restricts the square to the even-parity block of both
    # slots
    c = build_c_odd(k)
    cleared = invariant._clearing(c.mat)
    lift = cleared.scale / (ONE + qpow(1))
    assert lift == Scalar.v_power(min(lift.integer_coefficients()))
    assert min(lift.integer_coefficients()) >= 0
    even = [block_lift(x, k) for x in range(1 << k)]
    square = invariant._on_basis(cleared.mat * cleared.mat,
                                 [a * c.dim + b for a in even for b in even])
    assert invariant._duality_pair(k, "odd") == (square, 1 << k)


def test_block_square_rejects_c_off_the_block_swap():
    # an entry from V_00 back into V_00: C no longer swaps the slot parities
    c = build_c_odd(1)
    c.mat.set_entry(0, 0, ONE)
    with pytest.raises(DomainError, match="block swap"):
        invariant._block_square(c)


# ---------------------------------------------------------------------------
# embeddings into tensor powers


def test_embed_slot_one_of_two_is_identity_embedding():
    c = build_c_even(1)
    assert embed_pair_operator(c.mat, c.dim, 1, 2) == c.mat


def test_embed_matches_explicit_kronecker():
    # slot 1 of 3: C ox 1; slot 2 of 3: 1 ox C
    c = build_c_even(1)
    d = c.dim
    left = SparseMat(d ** 3, d ** 3)
    right = SparseMat(d ** 3, d ** 3)
    for (r, col), v in entries(c.mat).items():
        for x in range(d):
            left.set_entry(r * d + x, col * d + x, v)
            right.set_entry(x * d * d + r, x * d * d + col, v)
    assert embed_pair_operator(c.mat, d, 1, 3) == left
    assert embed_pair_operator(c.mat, d, 2, 3) == right


@pytest.mark.parametrize("n", [4, 5])
def test_embedding_is_multiplicative_and_disjoint_slots_commute(n):
    # X -> I ox X ox I is a ring map, and operators on disjoint slots
    # commute whatever they are: verify_coideal decides each relation on
    # S ox S or S^{ox 3} by this, so X and Y here do not commute
    rng, d = random.Random(7), 3
    x, y = (SparseMat(d * d, d * d, {
        r: {col: rng.randint(-3, 3) for col in range(d * d)}
        for r in range(d * d)}) for _ in range(2))
    assert x * y != y * x
    for i in range(1, n):
        assert (embed_pair_operator(x * y, d, i, n)
                == embed_pair_operator(x, d, i, n)
                * embed_pair_operator(y, d, i, n))
    for i, j in combinations(range(1, n), 2):
        a, b = (embed_pair_operator(x, d, i, n),
                embed_pair_operator(y, d, j, n))
        assert (a * b == b * a) == (j - i > 1)


@pytest.mark.parametrize("slot", [0, 2, 5])
def test_embed_rejects_bad_slot(slot):
    c = build_c_even(1)
    with pytest.raises(DomainError):
        embed_pair_operator(c.mat, c.dim, slot, 2)


# ---------------------------------------------------------------------------
# relations of the generating family


@pytest.mark.parametrize("k,parity,n", [
    (1, "even", 3), (1, "even", 4), (2, "even", 3), (1, "odd", 3),
])
def test_coideal_relations_symbolic(k, parity, n):
    rep = verify_coideal(k, parity, n)
    assert rep.passed, rep.summary()
    names = {ch.name for ch in rep.checks}
    assert "adjacent_cubic" in names
    assert "minus_variant_distinct" in names
    assert "eigenvalue_product" in names


def test_coideal_odd_checks_squared_relations():
    names = {ch.name for ch in verify_coideal(1, "odd", 3).checks}
    assert "squared_eigenvalue_product" in names
    assert "short_square_product_nonzero" in names


def test_coideal_at_a_point():
    rep = verify_coideal(1, "odd", 3, point=EvalPoint.from_q(Fraction(5, 2)))
    assert rep.passed, rep.summary()


def test_coideal_symbolic_size_guard():
    # symbolic requests share the point bound: 16^4 = 65536 dimensions at
    # even k = 4 is past it, and the refusal names the largest --n within it
    with pytest.raises(SizeGuardError, match="65536.*bound 4096.*--n 3"):
        verify_coideal(4, "even", 4)


def test_coideal_symbolic_admits_former_refusal():
    # 8^3 = 512 dimensions, refused without --q while the symbolic bound was
    # 64; it runs at the integer point now, with the verdicts of q = 3/2
    rep = verify_coideal(2, "odd", 3)
    assert rep.passed and len(rep.checks) == 7, rep.summary()
    at_point = verify_coideal(2, "odd", 3,
                              point=EvalPoint.from_q(Fraction(3, 2)))
    assert ([ch.as_json() for ch in rep.checks]
            == [ch.as_json() for ch in at_point.checks])


def _coideal_reference(c, n, at):
    """The coideal verdicts with the uncleared C_i multiplied at ``at``
    (SYMBOLIC: over Q(v)), and, over Q(v), each identity and each word of
    the cubic times the power of s that clears it."""
    s = _cleared_c(c).scale
    gens = [embed_pair_operator(c.mat.map_values(at.of), c.dim, i, n)
            for i in range(1, n)]
    sq = [g * g for g in gens]
    coeff, q = at.of(curly(1)), qpow(1)
    cleared = []

    def zero(m, power, factor=ONE):
        if at is SYMBOLIC:
            cleared.append(m.scale(s ** power * factor))
        return m.is_zero()

    def cubic(i, j, sign):
        a, b = gens[i], gens[j]
        words = [sq[i] * b, b * sq[i], (a * b * a).scale(sign * coeff)]
        for w in words:
            zero(w, 3, q)
        return words[0] + words[1] + words[2] - b

    last = len(gens)
    distant = [(i, j) for i in range(last) for j in range(i + 2, last)]
    adjacent = [(i, j) for i in range(last) for j in (i - 1, i + 1)
                if 0 <= j < last]
    verdicts = {
        "distant_commutation": all([zero(gens[i].commutator(gens[j]), 2)
                                    for i, j in distant]),
        "adjacent_cubic": all([zero(cubic(i, j, 1), 3, q)
                               for i, j in adjacent])}
    if last >= 2:
        if c.parity == "even" and c.k == 1:
            verdicts["minus_variant_distinct"] = zero(
                gens[0] * gens[1] * gens[0], 3)
        else:
            verdicts["minus_variant_distinct"] = not zero(
                cubic(0, 1, -1), 3, q)
    eigs = c.eigenvalues()
    pos = [at.of(e * e) for e in reversed(eigs[:len(eigs) // 2])]
    m = len(pos)
    ident = SparseMat.identity(c.dim ** n, at.one)
    chains = [invariant._factor_chain(g2, pos, ident) for g2 in sq]
    if c.parity == "even":
        full = [zero(g * ch[-1], 2 * m + 1) for g, ch in zip(gens, chains)]
        verdicts["eigenvalue_product"] = all(full)
        return verdicts, cleared
    verdicts["distant_commutation_squares"] = all(
        [zero(sq[i].commutator(sq[j]), 4) for i, j in distant])
    verdicts["eigenvalue_product"] = verdicts["squared_eigenvalue_product"] = (
        all([zero(ch[-1], 2 * m) for ch in chains]))
    verdicts["short_square_product_nonzero"] = not zero(chains[0][-2],
                                                        2 * m - 2)
    return verdicts, cleared


def _scale_one_entry(c, factor):
    r, row = next(iter(c.mat.rows.items()))
    col, val = next(iter(row.items()))
    c.mat.set_entry(r, col, val * factor)
    return c


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("k,parity,n", [
    (1, "even", 3), (1, "even", 4), (1, "even", 5), (2, "even", 3),
    (1, "odd", 3),
])
def test_coideal_integer_point_matches_symbolic_reference(
        monkeypatch, k, parity, n, perturbed):
    # the verdicts at the integer point equal those of the Q(v) products,
    # on C and on C with one entry times q, where relations fail; every
    # cleared identity and cubic word has coefficients within the bound
    c = build_c(k, parity)
    if perturbed:
        c = _scale_one_entry(c, qpow(1))
        monkeypatch.setattr(invariant, "build_c", lambda *args: c)
    verdicts, cleared = _coideal_reference(c, n, SYMBOLIC)
    rep = verify_coideal(k, parity, n)
    assert {ch.name: ch.passed for ch in rep.checks} == verdicts
    assert perturbed != rep.passed
    bound = invariant._coideal_bound(_cleared_c(c))
    top = max(abs(x) for m in cleared for row in m.rows.values()
              for val in row.values()
              for x in val.integer_coefficients().values())
    assert 0 < top <= bound


def _exact_coideal_report(k, parity, n, point):
    """The coideal report with every check run on the exact point path."""
    c = invariant.build_c(k, parity)
    rep = VerificationReport("coideal", {"parity": parity, "k": k, "n": n,
                                         "point": str(point)})
    relations = invariant._coideal_relations(c, _cleared_c(c), n, point.of)
    for name, (_, check) in relations.items():
        rep.record(name, check)
    return rep


@pytest.mark.parametrize("defect,fails", [
    # one entry times q: zero claims fail generically, so they fall back
    ("entry", {"adjacent_cubic", "eigenvalue_product",
               "squared_eigenvalue_product"}),
    # C = [1/2] I: the k-factor product is zero, so its image mod p is zero
    # too and it falls back; the cubic holds, since [1/2]^2 {1/2}^2 = 1
    ("scalar", {"short_square_product_nonzero"}),
])
def test_coideal_point_fallback_matches_exact_path(monkeypatch, defect,
                                                   fails):
    c = build_c(1, "odd")
    if defect == "entry":
        c = _scale_one_entry(c, qpow(1))
    else:
        c.mat = SparseMat.identity(c.dim ** 2, qint(HALF))
    monkeypatch.setattr(invariant, "build_c", lambda *args: c)
    point = EvalPoint.from_q(Fraction(3, 2))
    exact_runs = []
    relations = invariant._coideal_relations

    def spy(c, cleared, n, of, mod=0, basis=None):
        if of == point.of:
            exact_runs.append((n, basis))
        return relations(c, cleared, n, of, mod, basis)

    monkeypatch.setattr(invariant, "_coideal_relations", spy)
    rep = verify_coideal(1, "odd", 3, point=point)
    # the exact path runs once: on all of S^{ox 3} when the inclusion fails
    # (one entry times q), else on D
    assert exact_runs == [(3, None if defect == "entry" else
                           invariant._dominant_space(generator_action_for(c),
                                                     3))]
    assert {ch.name for ch in rep.checks if not ch.passed} == fails
    assert rep.as_json() == _exact_coideal_report(1, "odd", 3,
                                                  point).as_json()
    verdicts, _ = _coideal_reference(c, 3, point)
    assert {ch.name: ch.passed for ch in rep.checks} == verdicts


def _coideal_sizes(monkeypatch, c, n, point):
    """The verify_coideal report for ``c`` and the larger side of every
    matrix it builds."""
    monkeypatch.setattr(invariant, "build_c", lambda *args: c)
    sizes = []
    init = SparseMat.__init__

    def spy(self, nrows, ncols, rows=None):
        sizes.append(max(nrows, ncols))
        init(self, nrows, ncols, rows)

    monkeypatch.setattr(SparseMat, "__init__", spy)
    return verify_coideal(c.k, c.parity, n, point=point), sizes


COIDEAL_SIZE_CASES = [(1, "odd", 4), (1, "odd", 5), (2, "even", 4),
                      (1, "even", 5)]


@pytest.mark.parametrize("scalar", [False, True])
@pytest.mark.parametrize("k,parity,n", COIDEAL_SIZE_CASES)
def test_coideal_builds_nothing_past_the_third_power(monkeypatch, k, parity,
                                                     n, scalar):
    # every relation lives on S ox S or S^{ox 3}, and once C commutes with
    # the quantum group the cubics run on D: no matrix on more than
    # max(d^2, dim D) dimensions is built.  C = [1/2] I (odd) or [1] I
    # commutes too, and at q0 = 3/2 it sends a check down the exact path,
    # on D as well
    c = build_c(k, parity)
    if scalar:
        c.mat = SparseMat.identity(c.dim ** 2,
                                   qint(HALF) if parity == "odd" else ONE)
    dominant = len(invariant._dominant_space(generator_action_for(c), 3))
    point = EvalPoint.from_q(Fraction(3, 2)) if scalar else None
    rep, sizes = _coideal_sizes(monkeypatch, c, n, point)
    assert rep.passed != scalar, rep.summary()
    assert max(sizes) <= max(c.dim ** 2, dominant)
    assert dominant < c.dim ** 3


@pytest.mark.parametrize("k,parity,n", COIDEAL_SIZE_CASES)
def test_coideal_without_inclusion_runs_on_the_third_power(monkeypatch, k,
                                                           parity, n):
    # C with one entry times q does not commute with the quantum group, so
    # its cubics run on all of S^{ox 3}, and on nothing larger
    c = _scale_one_entry(build_c(k, parity), qpow(1))
    assert not invariant._pair_in_commutant(c.mat, generator_action_for(c))
    rep, sizes = _coideal_sizes(monkeypatch, c, n, None)
    assert not rep.passed
    assert max(sizes) == c.dim ** 3


@pytest.mark.parametrize("k,parity", [(1, "even"), (2, "even"), (3, "even"),
                                      (4, "even"), (1, "odd"), (2, "odd"),
                                      (3, "odd")])
def test_dominant_space_matches_tensor_weights(k, parity):
    # D of S^{ox 3} for the module C acts on, the doubled one at odd
    # parity, is the brute-force list of indices whose weight passes the
    # reference filter: at even parity half the dominant weight spaces
    g = spin_rep(_rd(k, parity), odd_doubled=parity == "odd")
    want = [u for u, wt in enumerate(invariant._tensor_weights(g, 3))
            if _orbit_representative(g.rd, wt)]
    assert invariant._dominant_space(g, 3) == want
    assert len(want) == {(1, "even"): 4, (2, "even"): 13, (3, "even"): 40,
                         (4, "even"): 121, (1, "odd"): 32, (2, "odd"): 104,
                         (3, "odd"): 320}[k, parity]


@pytest.mark.parametrize("q0", [None, Fraction(3, 2)])
@pytest.mark.parametrize("change", ["plus identity", "doubled"])
@pytest.mark.parametrize("k,parity", [(2, "even"), (3, "even"), (1, "odd")])
def test_coideal_dominant_path_matches_reference(monkeypatch, k, parity,
                                                 change, q0):
    # C + I and 2C still commute with the quantum group and t ox t, so every
    # path runs on D, one weight per sigma-orbit at even parity, but they
    # break relations: the verdicts are those of the uncleared products on
    # all of S^{ox 3}, and at q0 the broken relations rerun exactly on D
    c = build_c(k, parity)
    c.mat = (c.mat + SparseMat.identity(c.dim ** 2, ONE)
             if change == "plus identity" else c.mat.scale(2))
    monkeypatch.setattr(invariant, "build_c", lambda *args: c)
    point = None if q0 is None else EvalPoint.from_q(q0)
    runs = []
    relations = invariant._coideal_relations

    def spy(c, cleared, n, of, mod=0, basis=None):
        runs.append((point is not None and of == point.of, basis))
        return relations(c, cleared, n, of, mod, basis)

    monkeypatch.setattr(invariant, "_coideal_relations", spy)
    rep = verify_coideal(k, parity, 3, point=point)
    assert not rep.passed
    verdicts, _ = _coideal_reference(c, 3, SYMBOLIC if point is None
                                     else point)
    assert {ch.name: ch.passed for ch in rep.checks} == verdicts
    dominant = invariant._dominant_space(generator_action_for(c), 3)
    assert all(basis == dominant for _, basis in runs)
    assert any(exact for exact, _ in runs) == (point is not None)
    assert len(dominant) == {2: 13, 3: 40, 1: 32}[k]


@pytest.mark.parametrize("build,k,top", [(build_c_odd, 4, 3),
                                         (build_c_even, 5, 4)])
def test_spectrum_symbolic_size_guard(build, k, top):
    # S ox S has dimension 1024 here, past the size bound
    c = build(k)
    assert c.dim ** 2 > MAX_SYMBOLIC_DIM
    with pytest.raises(SizeGuardError,
                       match=f"1024.*rank accepted is {top}"):
        spectrum_check(c)


@pytest.mark.parametrize("k,parity", [(4, "even"), (3, "odd")])
def test_spectrum_admits_former_refusal(k, parity):
    # 256 dimensions, refused while the symbolic bound was 64
    rep = spectrum_check(build_c(k, parity))
    assert rep.passed, rep.summary()
    names = {ch.name for ch in rep.checks}
    assert {"idempotent_partition", "projection_ranks",
            "freezing_restriction"} <= names
    if parity == "even":
        assert rep.params["top_eigenvector"] == "twisted"


def test_coideal_point_size_guard():
    with pytest.raises(SizeGuardError):
        verify_coideal(4, "even", 4, point=EvalPoint.from_q(Fraction(3, 2)))


# ---------------------------------------------------------------------------
# duality of dimension counts


@pytest.mark.parametrize("k,parity,n,want", [
    (1, "odd", 2, 2), (1, "odd", 3, 5), (2, "even", 2, 5), (3, "even", 2, 7),
    (3, "odd", 2, 4),
])
def test_duality_anchor_dimensions(k, parity, n, want):
    rep = verify_duality(k, parity, n)
    assert rep.params["branching_dimension"] == want
    assert rep.passed, rep.summary()


def test_generated_algebra_dimension_anchor():
    point = EvalPoint.from_q(Fraction(3, 2))
    assert generated_algebra_dim(1, "even", 3, point) == 10
    assert commutant_dim_oracle(RootData("D", 1), 3, point) == 10
    assert commutant_dim_oracle(RootData("B", 1), 2, point) == 2


def test_oracle_agrees_classically():
    assert commutant_dim_oracle(RootData("B", 1), 3, CLASSICAL) == 5


# the (k, n) pairs of the duality grid of ``spincheck all``, both parities
DUALITY_CASES = [(k, parity, n) for k, n in ((1, 2), (1, 3), (1, 4), (2, 2),
                                            (2, 3))
                 for parity in ("even", "odd")]


def _rd(k: int, parity: str) -> RootData:
    return RootData("D" if parity == "even" else "B", k)


def _dominant(rd: RootData, wt: tuple[Fraction, ...]) -> bool:
    """<wt, alpha_i> >= 0 for each simple root."""
    return all(inner(wt, a) >= 0 for a in rd.simple_roots())


def _orbit_representative(rd: RootData, wt: tuple[Fraction, ...]) -> bool:
    """The brute-force reference for the weights of ``_orbit_blocks``:
    ``wt`` is dominant and, in type D, where sigma negates the last
    coordinate, that coordinate is >= 0."""
    return _dominant(rd, wt) and (rd.family == "B" or wt[-1] >= 0)


@pytest.mark.parametrize("q0", [Fraction(3, 2), 1])
@pytest.mark.parametrize("k,parity,n", DUALITY_CASES)
def test_modular_counts_match_exact(k, parity, n, q0):
    at = CLASSICAL if q0 == 1 else EvalPoint.from_q(q0)
    mod = ModPoint.reducing(at, certificate_prime(at))
    rd = _rd(k, parity)
    assert (generated_algebra_dim(k, parity, n, mod)
            == generated_algebra_dim(k, parity, n, at))
    assert commutant_dim_oracle(rd, n, mod) == commutant_dim_oracle(rd, n, at)


def _reference_commutant_dim(rd: RootData, n: int, at,
                             flip: bool = True) -> int:
    """The commutant on all of S^{ox n}: one unknown per entry of a
    weight-preserving matrix, C(2n, n)^k in all, and one equation per entry
    of its commutator with each operator of ``_module_actions`` (without
    t^{ox n} when not ``flip``).  The reference for the count from
    highest-weight multiplicities."""
    g = spin_rep(rd) if flip else replace(spin_rep(rd), t_perm=None)
    wts, actions = invariant._module_actions(g, n, at)
    blocks: dict[tuple, list[int]] = {}
    for u, w in enumerate(wts):
        blocks.setdefault(w, []).append(u)
    unk = {(u, v): j for j, (u, v) in enumerate(
        (u, v) for idxs in blocks.values() for u in idxs for v in idxs)}
    red = at.reducer()
    for G in actions:
        eq: dict[tuple[int, int], dict[int, object]] = {}
        for u, grow in G.rows.items():
            for w, val in grow.items():
                for v in blocks[wts[w]]:
                    row = eq.setdefault((u, v), {})
                    key = unk[(w, v)]
                    cur = row.get(key)
                    row[key] = val if cur is None else cur + val
        for v, gcol in G.transpose().rows.items():
            for w, val in gcol.items():
                for u in blocks[wts[w]]:
                    row = eq.setdefault((u, v), {})
                    key = unk[(u, w)]
                    cur = row.get(key)
                    row[key] = -val if cur is None else cur - val
        for row in eq.values():
            red.add_row(row)
    return len(unk) - red.rank


def _reference_algebra_dim(pair: tuple[SparseMat, int], n: int, at) -> int:
    """The unital algebra generated by the embedded pair operator on all of
    S^{ox n}, its words flattened over (d^n)^2 columns.  The reference for
    the count on the dominant weight spaces."""
    mat, d = pair
    size = d ** n
    gens = invariant._embedded_family(mat, d, n, at.of)

    def flatten(m: SparseMat) -> dict[int, object]:
        return {u * size + v: val
                for u, row in m.rows.items() for v, val in row.items()}

    red = at.reducer()
    ident = SparseMat.identity(size, at.one)
    red.add_row(flatten(ident))
    queue = [ident]
    while queue:
        m = queue.pop()
        for g in gens:
            word = at.product(g, m)
            if red.add_row(flatten(word)):
                queue.append(word)
    return red.rank


@pytest.mark.parametrize("q0", [Fraction(3, 2), 1])
@pytest.mark.parametrize("k,parity,n", DUALITY_CASES)
def test_block_counts_match_full_space_reference(k, parity, n, q0):
    at = CLASSICAL if q0 == 1 else EvalPoint.from_q(q0)
    rd = _rd(k, parity)
    pair = invariant._duality_pair(k, parity)
    points = [ModPoint.reducing(at, certificate_prime(at))]
    # the exact full-space reference at odd k=2 n=3, q0 = 3/2 takes ~5 s
    if (k, parity, n, q0) != (2, "odd", 3, Fraction(3, 2)):
        points.append(at)
    for pt in points:
        assert (generated_algebra_dim(k, parity, n, pt)
                == _reference_algebra_dim(pair, n, pt))
        assert (commutant_dim_oracle(rd, n, pt)
                == _reference_commutant_dim(rd, n, pt))


def _spy_word_sizes(monkeypatch) -> list:
    """The dimensions of the matrices multiplied and the widths of the rows
    reduced (as the matching square size) in every mod-p word closure."""
    sizes = []
    product, add_row = ModPoint.product, ModRowReducer.add_row

    def spy_product(self, a, b):
        sizes.extend((a.nrows, a.ncols, b.nrows, b.ncols))
        return product(self, a, b)

    def spy_add_row(self, row):
        sizes.append(isqrt(max(row, default=0)) + 1)
        return add_row(self, row)

    monkeypatch.setattr(ModPoint, "product", spy_product)
    monkeypatch.setattr(ModRowReducer, "add_row", spy_add_row)
    return sizes


@pytest.mark.parametrize("family,k,n", [(family, k, n) for family in "BD"
                                        for k in (1, 2, 3, 4)
                                        for n in (2, 3, 4, 5)])
def test_weight_blocks_match_tensor_weights(family, k, n):
    # each block is its weight's indices (listed while S^{ox n} is small),
    # and the enumerator lists the weights of the reference filter among
    # every (n + 1)^k candidate
    rd = RootData(family, k)
    if k * n <= 12:
        wts = invariant._tensor_weights(spin_rep(rd), n)
        for wt in set(wts):
            assert (invariant._weight_block(k, n, wt)
                    == [u for u, w in enumerate(wts) if w == wt])
    coords = [Fraction(n, 2) - m for m in range(n + 1)]
    assert invariant._orbit_blocks(k, n) == {
        wt: invariant._weight_block(k, n, wt)
        for wt in product(coords, repeat=k) if _orbit_representative(rd, wt)}


def _modular_classical() -> ModPoint:
    return ModPoint.reducing(CLASSICAL, certificate_prime(CLASSICAL))


def test_generated_count_runs_on_dominant_weight_spaces(monkeypatch):
    # odd k=2 n=3: D, the dominant weight spaces, has 1 + 3 + 9 = 13 of the
    # 64 dimensions, and no word of the count is larger
    sizes = _spy_word_sizes(monkeypatch)
    assert generated_algebra_dim(2, "odd", 3, _modular_classical()) == 14
    assert max(sizes) == 13
    blocks = invariant._orbit_blocks(2, 3)
    assert sorted(map(len, blocks.values())) == [1, 3, 9]


def test_generated_count_runs_on_flip_orbit_representatives(monkeypatch):
    # even k=2 n=3: one block of each sigma pair and the sigma-fixed block
    # whole hold 13 of the 26 dimensions of D, and no word is larger
    at = _modular_classical()
    want = _reference_algebra_dim(invariant._duality_pair(2, "even"), 3, at)
    sizes = _spy_word_sizes(monkeypatch)
    assert generated_algebra_dim(2, "even", 3, at) == want
    assert max(sizes) == 13
    rd = RootData("D", 2)
    dominant = [wt for wt in set(invariant._tensor_weights(spin_rep(rd), 3))
                if _dominant(rd, wt)]
    reps = invariant._orbit_blocks(2, 3)
    assert sum(len(invariant._weight_block(2, 3, wt)) for wt in dominant) == 26
    assert sum(map(len, reps.values())) == 13
    assert all(wt[-1] >= 0 for wt in reps)


def test_generated_count_without_inclusion_runs_on_full_space(monkeypatch):
    monkeypatch.setattr(invariant, "_pair_in_commutant",
                        lambda mat, g: False)
    sizes = _spy_word_sizes(monkeypatch)
    assert generated_algebra_dim(1, "odd", 3, _modular_classical()) == 5
    assert max(sizes) == 8


def _hw_multiplicities(g, n, wt, block, at) -> list[int]:
    """The dimensions of the highest-weight spaces of ``_hw_reducers``."""
    return [len(block) - red.rank
            for red in invariant._hw_reducers(g, n, wt, block, at)]


@pytest.mark.parametrize("k,n,with_flip,without_flip", [(1, 2, 3, 6),
                                                        (2, 2, 5, 10)])
def test_commutant_counts_flip_orbits(k, n, with_flip, without_flip):
    # a dominant weight with sigma(lambda) = lambda counts a^2 + b^2, the
    # +-1 eigenspaces of t on its highest-weight space; a pair
    # lambda != sigma(lambda) counts m^2 once
    rd = RootData("D", k)
    g = spin_rep(rd)
    fixed = {wt: _hw_multiplicities(g, n, wt, block, CLASSICAL)
             for wt, block in invariant._orbit_blocks(k, n).items()
             if wt[-1] == 0}
    assert fixed and all(ab == [1, 1] for ab in fixed.values())
    assert commutant_dim_oracle(rd, n, CLASSICAL) == with_flip
    assert _reference_commutant_dim(rd, n, CLASSICAL) == with_flip
    # without the flip in the module structure, every dominant weight
    # counts m^2: both members of a pair, and a fixed weight once
    g = replace(g, t_perm=None)
    dominant = [wt for wt in set(invariant._tensor_weights(g, n))
                if _dominant(rd, wt)]
    assert sum(m * m for wt in dominant for m in _hw_multiplicities(
        g, n, wt, invariant._weight_block(k, n, wt), CLASSICAL)) == without_flip
    assert _reference_commutant_dim(rd, n, CLASSICAL,
                                    flip=False) == without_flip


def _spy_exact_counts(monkeypatch) -> list:
    """The points at which the duality counts are taken exactly: the calls
    of ``_duality_counts`` at an EvalPoint (CLASSICAL included), not mod p."""
    calls = []
    counts = invariant._duality_counts

    def spy(pair, n, rd, at):
        if isinstance(at, EvalPoint):
            calls.append(at)
        return counts(pair, n, rd, at)

    monkeypatch.setattr(invariant, "_duality_counts", spy)
    return calls


def _count_build_c(monkeypatch) -> list:
    calls = []
    build = invariant.build_c

    def counting_build_c(k, parity):
        calls.append((k, parity))
        return build(k, parity)

    monkeypatch.setattr(invariant, "build_c", counting_build_c)
    return calls


def test_duality_pole_mod_p_falls_back(monkeypatch):
    point = Fraction(3, 2)
    want = json.dumps(verify_duality(1, "odd", 3, points=(point,)).as_json())
    # mod 3 the radicand 3/2 is 0, so v = 0 and v^-1 has a pole
    mod = ModPoint.reducing(EvalPoint.from_q(point), 3)
    assert mod.v0 == 0
    with pytest.raises(PoleError):
        mod.of(qpow(Fraction(-1, 4)))
    real_prime = invariant.certificate_prime
    monkeypatch.setattr(invariant, "certificate_prime",
                        lambda at: 3 if at.q0 == point else real_prime(at))
    calls = _spy_exact_counts(monkeypatch)
    rep = verify_duality(1, "odd", 3, points=(point,))
    assert calls == [EvalPoint.from_q(point)]
    assert json.dumps(rep.as_json()) == want


def test_duality_count_mismatch_mod_p_falls_back(monkeypatch):
    want = json.dumps(verify_duality(2, "even", 2).as_json())
    closure = invariant._hw_closure

    def off_by_one_mod_p(gens, n, at):
        rank, comm = closure(gens, n, at)
        return rank, comm + 1

    # mod p the commutant count is comm_p of the highest-weight closure
    monkeypatch.setattr(invariant, "_hw_closure", off_by_one_mod_p)
    builds = _count_build_c(monkeypatch)
    calls = _spy_exact_counts(monkeypatch)
    rep = verify_duality(2, "even", 2)
    assert calls == [EvalPoint.from_q(Fraction(3, 2)),
                     EvalPoint.from_q(Fraction(5, 2)), CLASSICAL]
    # the fallback reuses the pair operator built for the certificate
    assert builds == [(2, "even")]
    assert json.dumps(rep.as_json()) == want


def test_duality_failed_inclusion_takes_exact_counts(monkeypatch):
    want = json.dumps(verify_duality(1, "odd", 3).as_json())

    def no_certificate(at):
        raise AssertionError("a mod-p count ran without the inclusion")

    monkeypatch.setattr(invariant, "_pair_in_commutant",
                        lambda mat, g: False)
    monkeypatch.setattr(invariant, "certificate_prime", no_certificate)
    calls = _spy_exact_counts(monkeypatch)
    rep = verify_duality(1, "odd", 3)
    assert calls == [EvalPoint.from_q(Fraction(3, 2)),
                     EvalPoint.from_q(Fraction(5, 2)), CLASSICAL]
    assert json.dumps(rep.as_json()) == want


def _generators_in_commutant(gens: list[SparseMat], rd: RootData, n: int,
                             at) -> bool:
    """The inclusion test on S^{ox n} itself, at ``at``: every generator is
    supported on the weight blocks and commutes with each operator of
    ``_module_actions``.  The reference for the test on S ox S."""
    wts, actions = invariant._module_actions(spin_rep(rd), n, at)
    for m in gens:
        for u, row in m.rows.items():
            if any(wts[v] != wts[u] for v in row):
                return False
        if not all(m.commutator(x).is_zero() for x in actions):
            return False
    return True


def _doubled_first_entry(mat: SparseMat) -> SparseMat:
    bent = mat.copy()
    u, row = next(iter(bent.rows.items()))
    v, val = next(iter(row.items()))
    bent.set_entry(u, v, val * 2)
    return bent


@pytest.mark.parametrize("q0", [Fraction(3, 2), 1])
@pytest.mark.parametrize("k,parity,n", DUALITY_CASES)
def test_pair_inclusion_agrees_with_tensor_power(k, parity, n, q0):
    at = CLASSICAL if q0 == 1 else EvalPoint.from_q(q0)
    rd = _rd(k, parity)
    pair = invariant._duality_pair(k, parity)
    gens = invariant._embedded_family(*pair, n, at.of)
    g = spin_rep(rd)
    assert invariant._pair_in_commutant(pair[0], g)
    assert _generators_in_commutant(gens, rd, n, at)
    # and both reject the pair with its first entry doubled
    bent, d = _doubled_first_entry(pair[0]), pair[1]
    assert not invariant._pair_in_commutant(bent, g)
    assert not _generators_in_commutant(
        invariant._embedded_family(bent, d, n, at.of), rd, n, at)


@pytest.mark.parametrize("k,parity", [(2, "even"), (1, "odd")])
def test_duality_pair_has_laurent_entries(k, parity):
    mat, _ = invariant._duality_pair(k, parity)
    assert all(x.is_laurent_polynomial
               for row in mat.rows.values() for x in row.values())


@pytest.mark.parametrize("k,parity", [(2, "even"), (1, "odd"), (1, "even")])
def test_inclusion_check_rejects_mutated_generator(k, parity):
    rd = _rd(k, parity)
    mat, d = invariant._duality_pair(k, parity)
    g = spin_rep(rd)
    assert invariant._pair_in_commutant(mat, g)
    assert not invariant._pair_in_commutant(_doubled_first_entry(mat), g)
    # entries between the all-plus and the all-minus vector of S ox S, both
    # ways: at even k = 1, where t ox t is the only action, they commute with
    # it, and only the weight test rejects them
    leak = mat.copy()
    leak.set_entry(0, d * d - 1, ONE)
    leak.set_entry(d * d - 1, 0, ONE)
    assert not invariant._pair_in_commutant(leak, g)


def test_duality_grid_certified_without_fallback(monkeypatch):
    # every seed-0 point is certified by the highest-weight closure alone:
    # no exact count and no word closure on D
    calls = _spy_exact_counts(monkeypatch)
    ranks = []
    algebra_rank = invariant._algebra_rank

    def spy_rank(gens, n, at):
        ranks.append(at)
        return algebra_rank(gens, n, at)

    monkeypatch.setattr(invariant, "_algebra_rank", spy_rank)
    grids = [("even", 1, (2, 3, 4)), ("even", 2, (2, 3)),
             ("odd", 1, (2, 3, 4)), ("odd", 2, (2, 3))]
    for parity, k, powers in grids:
        for n in powers:
            rep = verify_duality(k, parity, n)
            assert rep.passed, rep.summary()
    assert calls == [] and ranks == []


# the mod-p images of the seed-0 points and of the other benchmark points
HW_POINTS = [Fraction(3, 2), Fraction(5, 2), 1, Fraction(5, 3), Fraction(7, 2),
             Fraction(7, 3), Fraction(7, 5)]


@pytest.mark.parametrize("q0", HW_POINTS)
@pytest.mark.parametrize("k,parity,n", DUALITY_CASES)
def test_hw_closure_matches_algebra_rank(k, parity, n, q0):
    at = CLASSICAL if q0 == 1 else EvalPoint.from_q(q0)
    mod = ModPoint.reducing(at, certificate_prime(at))
    gens = invariant._generators(_rd(k, parity), parity, n)
    rank, comm = invariant._hw_closure(gens, n, mod)
    assert rank == comm == invariant._algebra_rank(gens, n, mod)
    assert comm == commutant_dim_oracle(_rd(k, parity), n, mod)


def _reference_duality_counts(gens, n, rd, at):
    """Both duality counts as taken before the highest-weight closure: the
    words on D and the oracle, at every point."""
    return (invariant._algebra_rank(gens, n, at),
            commutant_dim_oracle(rd, n, at))


@pytest.mark.parametrize("k,parity,n", [(2, "even", 2), (1, "odd", 3)])
def test_identity_pair_closure_falls_back(monkeypatch, k, parity, n):
    # the identity lies in the commutant, so the inclusion holds, but its
    # words span the scalars alone: L = 1 < comm_p, and the point takes both
    # counts exactly, with the report of the reference path
    monkeypatch.setattr(invariant, "_duality_pair", lambda k, parity: (
        SparseMat.identity(4 ** k, ONE), 2 ** k))
    closures, ranks = [], []
    closure, algebra_rank = invariant._hw_closure, invariant._algebra_rank

    def spy_closure(gens, n, at):
        closures.append(closure(gens, n, at))
        return closures[-1]

    def spy_rank(gens, n, at):
        ranks.append(at)
        return algebra_rank(gens, n, at)

    monkeypatch.setattr(invariant, "_hw_closure", spy_closure)
    monkeypatch.setattr(invariant, "_algebra_rank", spy_rank)
    rep = verify_duality(k, parity, n)
    expected = rep.params["branching_dimension"]
    assert closures == [(1, expected)] * 3
    assert ranks == [EvalPoint.from_q(Fraction(3, 2)),
                     EvalPoint.from_q(Fraction(5, 2)), CLASSICAL]
    assert not rep.passed
    assert f"generated 1 != commutant {expected}" in json.dumps(rep.as_json())
    monkeypatch.setattr(invariant, "_duality_counts",
                        _reference_duality_counts)
    assert (json.dumps(rep.as_json())
            == json.dumps(verify_duality(k, parity, n).as_json()))


def test_hw_closure_image_leaving_its_space_falls_back(monkeypatch):
    # mod p, each highest-weight basis is swapped for the unit vectors at
    # its free columns: the same dimensions, but a space the generators do
    # not keep, so the closure gives L = 0 and each point takes both counts
    # exactly, with the same report
    want = json.dumps(verify_duality(2, "even", 3).as_json())
    kernel, closure = invariant.reduced_kernel, invariant._hw_closure
    closures = []

    def unit_kernel(red, ncols, one):
        return [{next(iter(v)): 1} for v in kernel(red, ncols, one)]

    def spy_closure(gens, n, at):
        monkeypatch.setattr(invariant, "reduced_kernel", unit_kernel)
        closures.append(closure(gens, n, at))
        monkeypatch.setattr(invariant, "reduced_kernel", kernel)
        return closures[-1]

    monkeypatch.setattr(invariant, "_hw_closure", spy_closure)
    calls = _spy_exact_counts(monkeypatch)
    rep = verify_duality(2, "even", 3)
    assert closures == [(0, 35)] * 3
    assert calls == [EvalPoint.from_q(Fraction(3, 2)),
                     EvalPoint.from_q(Fraction(5, 2)), CLASSICAL]
    assert json.dumps(rep.as_json()) == want


def test_mod_p_counts_without_inclusion_skip_the_closure(monkeypatch):
    # the closure's bound L <= gen_p needs the inclusion: without it the
    # mod-p counts are the words on all of S^{ox n} and the oracle
    monkeypatch.setattr(invariant, "_pair_in_commutant",
                        lambda mat, g: False)
    monkeypatch.setattr(invariant, "_hw_closure", None)
    rd = RootData("B", 1)
    gens = invariant._generators(rd, "odd", 3)
    assert gens.basis is None
    assert invariant._duality_counts(gens, 3, rd, _modular_classical()) == (
        5, 5)


@pytest.mark.parametrize("k,parity,n,want", [
    (2, "odd", 4, 84), (3, "even", 3, 84), (2, "even", 4, 294),
    (1, "odd", 5, 42)])
def test_hw_closure_certifies_past_the_guard(k, parity, n, want):
    # sizes the duality guard refuses or that take seconds on D: the closure
    # on the highest-weight spaces certifies them at one mod-p point
    rd = _rd(k, parity)
    assert centralizer_dims(bratteli(rd, n))[n - 1] == want
    at = EvalPoint.from_q(Fraction(3, 2))
    mod = ModPoint.reducing(at, certificate_prime(at))
    assert invariant._hw_closure(invariant._generators(rd, parity, n), n,
                                 mod) == (want, want)


def test_duality_builds_pair_operator_once(monkeypatch):
    calls = _count_build_c(monkeypatch)
    exact = _spy_exact_counts(monkeypatch)
    tests = []
    included = invariant._pair_in_commutant

    def counting_inclusion(mat, g, cleared=None):
        tests.append(g.rd)
        return included(mat, g, cleared)

    monkeypatch.setattr(invariant, "_pair_in_commutant", counting_inclusion)
    rep = verify_duality(2, "odd", 3)
    assert calls == [(2, "odd")]
    assert tests == [RootData("B", 2)]
    assert exact == []
    tags = ("q0=3/2", "q0=5/2", "classical")
    assert rep.as_json() == {
        "suite": "duality",
        "params": {"parity": "odd", "k": 2, "n": 3, "branching_dimension": 14},
        "checks": [{"name": f"{check}[{tag}]", "pass": True} for tag in tags
                   for check in ("generated_vs_commutant", "matches_branching")],
        "pass": True,
    }


def test_duality_same_under_optimize():
    # python -O strips asserts; the counts must not depend on them
    code = ("import json\n"
            "from spincheck.invariant import verify_duality\n"
            "print(json.dumps([verify_duality(1, 'odd', 3).as_json(),\n"
            "                  verify_duality(2, 'even', 2).as_json()]))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=_child_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    want = [verify_duality(1, "odd", 3).as_json(),
            verify_duality(2, "even", 2).as_json()]
    assert json.loads(proc.stdout) == want


@pytest.mark.parametrize("k,parity,n", [(1, "even", 4), (1, "odd", 5),
                                        (2, "odd", 4), (3, "even", 2),
                                        (4, "odd", 2)])
def test_oracle_unknowns_from_weight_multiplicities(k, parity, n):
    rd = _rd(k, parity)
    g = spin_rep(rd, odd_doubled=False)
    mult = Counter(invariant._tensor_weights(g, n))
    assert invariant._oracle_unknowns(k, n) == sum(m * m for m in mult.values())


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_duality_refuses_past_unknown_bound(monkeypatch, parity):
    # C(8, 4)^2 = 4900 weight-preserving matrix entries; 1296 (k=4, n=2) is
    # admitted
    assert invariant._oracle_unknowns(4, 2) == 1296
    assert 1296 <= invariant.MAX_ORACLE_UNKNOWNS < 4900

    def no_build(*args):
        raise AssertionError("the pair operator was built")

    monkeypatch.setattr(invariant, "build_c", no_build)
    with pytest.raises(SizeGuardError, match="4900.*--n 3"):
        verify_duality(2, parity, 4)


def _no_build(*args, **kwargs):
    raise AssertionError("an operator was built past the size guard")


def test_oracle_refuses_past_unknown_bound(monkeypatch):
    # dimension 4^4 = 256, but C(8, 4)^2 = 4900 weight-preserving entries
    monkeypatch.setattr(invariant, "tensor_action", _no_build)
    with pytest.raises(SizeGuardError, match="4900.*--n 3"):
        commutant_dim_oracle(RootData("D", 2), 4, CLASSICAL)


def test_generated_algebra_refuses_past_unknown_bound(monkeypatch):
    # the same guard as the oracle's, although the algebra acts on 256
    monkeypatch.setattr(invariant, "build_c", _no_build)
    with pytest.raises(SizeGuardError, match="4900.*--n 3"):
        generated_algebra_dim(2, "odd", 4, CLASSICAL)


# ---------------------------------------------------------------------------
# third power fine structure


@pytest.mark.parametrize("k", [1, 2])
def test_third_power_profile(k):
    rep = third_power_profile(k)
    assert rep.passed, rep.summary()
    names = {ch.name for ch in rep.checks}
    assert {"highest_weight_dimension", "first_generator_alternating_spectrum",
            "tridiagonal", "zero_diagonal", "offdiagonal_products",
            "characteristic_polynomial"} <= names


def test_third_power_profile_same_under_optimize():
    # python -O strips asserts; the profile must not depend on them
    code = ("import json\n"
            "from spincheck.invariant import third_power_profile\n"
            "for k in (1, 2):\n"
            "    checks = third_power_profile(k).checks\n"
            "    print(json.dumps([[c.name, c.passed] for c in checks]))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=_child_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    want = [[[c.name, c.passed] for c in third_power_profile(k).checks]
            for k in (1, 2)]
    assert [json.loads(line) for line in proc.stdout.splitlines()] == want


def _patch_x(monkeypatch, change):
    """Make third_power_profile see change(X) in place of X, the second
    generator in the first one's eigenvector basis."""
    matrices_in_basis = invariant._matrices_in_basis

    def patched(mats, basis, what):
        out = matrices_in_basis(mats, basis, what)
        if what == "first generator's eigenvector basis":
            out = [change(out[0])]
        return out

    monkeypatch.setattr(invariant, "_matrices_in_basis", patched)


def _scale_x(monkeypatch, factors):
    """X with entry (i, j) times factors[(i, j)]."""
    def change(x):
        for (i, j), factor in factors.items():
            x.set_entry(i, j, x.entry(i, j) * factor)
        return x

    _patch_x(monkeypatch, change)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_third_power_falsified_entry_fails_at_the_integer_point(
        monkeypatch, k):
    # X_01 times 1 + q: the characteristic polynomial and the extreme
    # projection fail with the witnesses of the Q(v) products
    _scale_x(monkeypatch, {(0, 1): ONE + qpow(1)})
    witness = {ch.name: ch.witness for ch in third_power_profile(k).checks}
    assert witness["characteristic_polynomial"] == (
        "model polynomial does not annihilate")
    assert witness["extreme_projection_entries"] == "not idempotent"


@pytest.mark.parametrize("k", [2, 3])
def test_third_power_passes_on_a_diagonal_conjugate(monkeypatch, k):
    # T X T^-1 for T = diag(1 + q, 1, ..., 1) has the same characteristic
    # polynomial and off-diagonal products, and its extreme projection the
    # same diagonal and the same products p_ij p_ji: every check still
    # passes, with new denominators for the common denominator to clear
    t = ONE + qpow(1)
    _scale_x(monkeypatch, {(0, 1): t, (1, 0): ONE / t})
    rep = third_power_profile(k)
    assert rep.passed, rep.summary()


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("repeat,witness", [
    (False, "diagonal entry 0 mismatches"), (True, "rank != 1")])
def test_third_power_projection_witness_on_a_diagonal_x(monkeypatch, k,
                                                        repeat, witness):
    # X replaced by the diagonal matrix of its eigenvalues: the model
    # polynomial annihilates it, and the extreme projection is E_00, whose
    # diagonal is not the closed weights; with e_1 replaced by e_0 it is the
    # idempotent E_00 + E_11 of rank 2.  The witnesses are those of the Q(v)
    # products.
    eigs = [qint(k - r) if r % 2 == 0 else -qint(k - r)
            for r in range(2 * k + 1)]
    if repeat:
        eigs[1] = eigs[0]
    _patch_x(monkeypatch, lambda x: SparseMat(
        x.nrows, x.ncols, {i: {i: e} for i, e in enumerate(eigs)}))
    rep = {ch.name: ch for ch in third_power_profile(k).checks}
    assert rep["characteristic_polynomial"].passed
    assert rep["extreme_projection_entries"].witness == witness
    # the vanishing X_01 is named, as offdiagonal_products names it
    assert (rep["entry_reconstruction"].witness
            == rep["offdiagonal_products"].witness
            == "off-diagonal (0,1) vanishes")


def test_third_power_projection_point_bounds_its_terms(monkeypatch):
    # the one point of the characteristic polynomial and the extreme
    # projection lies past every coefficient of each side of their
    # identities, multiplied out here over Z[v]: the full product, O, O^2,
    # Z O, O_ii D^2 den_i and num_i Z; with X_01 times 1 + q the full
    # product does not vanish
    k, n = 2, 4
    zero_test_point = invariant._zero_test_point
    for mutated in (False, True):
        bounds, xs = [], []
        with monkeypatch.context() as patch:
            patch.setattr(invariant, "_zero_test_point",
                          lambda b, g: bounds.append(b)
                          or zero_test_point(b, g))
            if mutated:
                _scale_x(patch, {(0, 1): ONE + qpow(1)})
            _patch_x(patch, lambda x: xs.append(x) or x)
            assert third_power_profile(k).passed != mutated
        x, = xs
        eigs = [qint(k - r) if r % 2 == 0 else -qint(k - r)
                for r in range(n + 1)]
        cleared = invariant._clearing(x, eigs)
        ident = SparseMat.identity(n + 1, ONE)
        o = invariant._factor_chain(cleared.mat, cleared.eigs[1:], ident)[-1]
        full = (cleared.mat - ident.scale(cleared.eigs[0])) * o
        z = invariant._lagrange_denominator(cleared.eigs, 0)
        rd = RootData("D", k)
        dim = qdimension(spin_label(rd), rd)
        dwt = [qbinom(n, i) * curly(k - i) / curly(k) for i in range(n + 1)]
        parts = [w.integer_parts() for w in dwt]
        left = [dim * dim * den for _, den in parts]
        right = [num * z for num, _ in parts]
        terms = [val for m in (full, o, o * o, o.scale(z))
                 for row in m.rows.values() for val in row.values()]
        for i in range(n + 1):
            terms += [(o.entry(i, i) or ZERO) * left[i], right[i]]
        top = max(abs(c) for t in terms
                  for c in t.integer_coefficients().values())
        assert full.is_zero() != mutated
        assert len(bounds) == 1
        assert 0 < top <= bounds[0]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_model_polynomial_is_the_eigenvalue_product(k):
    # the characteristic-polynomial claim rests on p = prod_r (x - e_r)
    want = [ONE]
    for r in range(2 * k + 1):
        e = qint(k - r) if r % 2 == 0 else -qint(k - r)
        want = [(want[j - 1] if j else ZERO) - (e * want[j] if j < len(want)
                                                else ZERO)
                for j in range(len(want) + 1)]
    assert (invariant._model_polynomial(invariant._model_products(k))
            == want)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_third_power_squares_o_only_when_the_full_product_survives(
        monkeypatch, k):
    # O^2 - Z O is the full product times a polynomial in Y: O O is formed
    # only for an X the model polynomial does not annihilate
    squares, mul = [], SparseMat.__mul__

    def spy(a, b):
        if a is b:
            squares.append(a.nrows)
        return mul(a, b)

    monkeypatch.setattr(SparseMat, "__mul__", spy)
    assert third_power_profile(k).passed
    assert squares == []
    _scale_x(monkeypatch, {(0, 1): ONE + qpow(1)})
    witness = {ch.name: ch.witness for ch in third_power_profile(k).checks}
    assert witness["extreme_projection_entries"] == "not idempotent"
    assert squares == [2 * k + 1]


def _count_symbolic_products(monkeypatch) -> Counter:
    """Count the SparseMat products over Q(v) -- ``*`` and ``apply_to``
    with Scalar entries in the left operand -- by the name of the check
    recorded last (None before the first)."""
    calls, current = Counter(), [None]
    mul, apply_to = SparseMat.__mul__, SparseMat.apply_to
    record = VerificationReport.record

    def count(m: SparseMat) -> None:
        if any(type(v) is Scalar for row in m.rows.values()
               for v in row.values()):
            calls[current[0]] += 1

    def counting_mul(a, b):
        count(a)
        return mul(a, b)

    def counting_apply(a, vec):
        count(a)
        return apply_to(a, vec)

    def named(self, name, fn):
        current[0] = name
        record(self, name, fn)

    monkeypatch.setattr(SparseMat, "__mul__", counting_mul)
    monkeypatch.setattr(SparseMat, "apply_to", counting_apply)
    monkeypatch.setattr(VerificationReport, "record", named)
    return calls


def test_third_power_heavy_checks_make_no_symbolic_product(monkeypatch):
    # the characteristic polynomial and the extreme projection multiply
    # plain ints only: no SparseMat product over Q(v) runs inside them
    calls = _count_symbolic_products(monkeypatch)
    assert third_power_profile(3).passed
    assert calls["first_generator_alternating_spectrum"] > 0
    assert calls["characteristic_polynomial"] == 0
    assert calls["extreme_projection_entries"] == 0


small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def invariant_subspaces(draw):
    """(mats, basis): r independent vectors spanning the coordinate
    subspace perm[:r] of Q^size, and two matrices mapping it into itself."""
    size = draw(st.integers(1, 4))
    r = draw(st.integers(1, size))
    perm = draw(st.permutations(range(size)))
    inside = set(perm[:r])
    basis = [{perm[i]: x for i in range(r) if (x := draw(small))}
             for _ in range(r)]
    mats = [SparseMat(size, size, {
        u: {v: draw(small) for v in range(size)
            if u in inside or v not in inside}
        for u in range(size)}) for _ in range(2)]
    return mats, basis


@given(invariant_subspaces())
@settings(max_examples=60, deadline=None)
def test_matrices_in_basis_coordinates_rebuild_images(case):
    mats, basis = case
    try:
        coords = invariant._matrices_in_basis(mats, basis, "basis")
    except DomainError as exc:
        # only a drawn basis that is dependent may be refused
        assert str(exc) == "basis is dependent"
        red = RowReducer()
        assert sum(map(red.add_row, basis)) < len(basis)
        return
    for mat, x in zip(mats, coords):
        for j, v in enumerate(basis):
            rebuilt = {}
            for i, w in enumerate(basis):
                for u, y in w.items():
                    rebuilt[u] = rebuilt.get(u, 0) + (x.entry(i, j) or 0) * y
            assert {u: y for u, y in rebuilt.items() if y} == mat.apply_to(v)


@pytest.mark.parametrize("basis", [
    [{}, {0: ONE}],                                      # zero vector first
    [{0: ONE, 1: Fraction(2)}, {}],                      # zero vector last
    [{0: ONE, 1: Fraction(2)}, {0: Fraction(-3), 1: Fraction(-6)}],
    [{0: ONE}, {1: ONE}, {0: Fraction(5), 1: Fraction(-1, 2)}],
])
def test_matrices_in_basis_rejects_dependent_basis(basis):
    with pytest.raises(DomainError, match="^test basis is dependent$"):
        invariant._matrices_in_basis([SparseMat.identity(3, ONE)], basis,
                                     "test basis")


def test_matrices_in_basis_rejects_operator_leaving_span():
    basis = [{0: ONE}, {0: ONE, 1: ONE}]
    shift = SparseMat(3, 3, {2: {1: ONE}, 1: {0: ONE}})
    # the identity keeps the span, the shift maps e_1 to e_2 outside it
    with pytest.raises(DomainError,
                       match="^operator leaves the span of the test basis$"):
        invariant._matrices_in_basis([SparseMat.identity(3, ONE), shift],
                                     basis, "test basis")


# ---------------------------------------------------------------------------
# trace multiplicativity


def test_markov_property_small():
    rep = markov_property_check(1, pairs=6, seed=7)
    assert rep.passed, rep.summary()
    assert rep.params == {"k": 1, "pairs": 6}


def test_markov_property_rank_three():
    rep = markov_property_check(3)
    assert rep.passed, rep.summary()
    assert rep.params == {"k": 3, "pairs": 20}


@pytest.mark.parametrize("k", [1, 2])
def test_markov_falsified_dimension_fails_at_the_integer_point(monkeypatch,
                                                               k):
    # D + 1 for the quantum dimension: the first trial fails, as with the
    # Q(v) traces
    qdimension = invariant.qdimension
    monkeypatch.setattr(invariant, "qdimension",
                        lambda label, rd: qdimension(label, rd) + ONE)
    rep = markov_property_check(k)
    assert [ch.as_json() for ch in rep.checks] == [
        {"name": "product_trace_multiplicativity", "pass": False,
         "witness": "trial 0 fails"}]


def test_markov_makes_no_symbolic_product(monkeypatch):
    calls = _count_symbolic_products(monkeypatch)
    assert markov_property_check(2).passed
    assert calls == Counter()


def test_markov_same_under_optimize():
    # python -O strips asserts; the report must not depend on them
    code = ("import json\n"
            "from spincheck.invariant import markov_property_check\n"
            "print(json.dumps(markov_property_check(2).as_json()))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=_child_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == markov_property_check(2).as_json()
