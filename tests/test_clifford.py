"""Clifford algebra arithmetic, orthogonal-type elements, commuting family."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spincheck
from spincheck import clifford
from spincheck.clifford import (CliffordElement, c_rs, c_tilde, cl_mul,
                                classical_spectrum_check,
                                commuting_family_check, horner, p_poly,
                                pair_element, phi_embed, verify_so_relations,
                                volume_element)
from spincheck.errors import DomainError
from spincheck.scalar import GAUSSIAN, Ext


def gen(i, ambient):
    return CliffordElement.generator(i, ambient)


def test_generator_relations():
    M = 5
    for i in range(1, M + 1):
        assert cl_mul(gen(i, M), gen(i, M)) == CliffordElement.one(M)
    for i in range(1, M + 1):
        for j in range(i + 1, M + 1):
            anti = cl_mul(gen(i, M), gen(j, M)) + cl_mul(gen(j, M), gen(i, M))
            assert not anti


def test_monomial_signs():
    M = 4
    e1, e2, e3 = gen(1, M), gen(2, M), gen(3, M)
    assert cl_mul(e2, e1) == -cl_mul(e1, e2)
    # e1e2 * e2e3 = e1e3
    assert cl_mul(cl_mul(e1, e2), cl_mul(e2, e3)) == cl_mul(e1, e3)
    # (e1e2)^2 = -1
    y = cl_mul(e1, e2)
    assert cl_mul(y, y) == -CliffordElement.one(M)


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_associativity_on_generators(i, j, k):
    M = 5
    a, b, c = gen(i, M), gen(j, M), gen(k, M)
    assert cl_mul(cl_mul(a, b), c) == cl_mul(a, cl_mul(b, c))


def test_volume_element_square():
    # f_m = e_1 ... e_m squares to (-1)^{m(m-1)/2}
    for m in range(1, 6):
        f = volume_element(m, 6)
        sq = cl_mul(f, f)
        want = CliffordElement.one(6)
        if (m * (m - 1) // 2) % 2:
            want = -want
        assert sq == want


@pytest.mark.parametrize("N", [2, 4])
def test_embedding_dresses_volume_correctly(N):
    # slotwise embedding sends f_N ox f_N to +- f_{2N}
    fN = volume_element(N, N)
    lhs = cl_mul(phi_embed(1, fN, N, 2), phi_embed(2, fN, N, 2))
    want = volume_element(2 * N, 2 * N)
    if (N * (N - 1) // 2) % 2:
        want = -want
    assert lhs == want


@pytest.mark.parametrize("N", [2, 4])
def test_dressed_and_plain_pairs_generate_alike(N):
    # products of two dressed pair elements equal products of plain ones
    def dressed(i):
        return cl_mul(phi_embed(1, gen(i, N), N, 2),
                      phi_embed(2, gen(i, N), N, 2))

    for i in range(1, N + 1):
        for j in range(1, N + 1):
            lhs = cl_mul(dressed(i), dressed(j))
            rhs = cl_mul(pair_element(i, N), pair_element(j, N))
            assert lhs == rhs


@pytest.mark.parametrize("N,l,primed", [
    (N, l, primed)
    for N in (1, 2, 3)
    for l in (3, 4)
    for primed in ((False, True) if N >= 2 else (False,))
])
def test_so_relations(N, l, primed):
    rep = verify_so_relations(N, l, primed)
    assert rep.passed, rep.summary()


@pytest.mark.parametrize("N,l,primed", [(1, 3, False), (2, 4, True),
                                         (3, 4, False)])
def test_bracket_checks_see_only_int_coefficients(monkeypatch, N, l, primed):
    # the relations are decided on D = 2C, so no product meets a Fraction
    seen = []

    def spy(a, b):
        out = cl_mul(a, b)
        seen.extend(type(c) for x in (a, b, out) for c in x.terms.values())
        return out

    monkeypatch.setattr(clifford, "cl_mul", spy)
    assert verify_so_relations(N, l, primed).passed
    assert seen and set(seen) == {int}


def test_primed_needs_a_pair():
    with pytest.raises(DomainError):
        verify_so_relations(1, 3, primed=True)
    with pytest.raises(DomainError):
        c_rs(1, 3, 1, 2, primed=True)


def test_p_poly_low_degrees():
    # P_0 = 1, P_1 = x, P_2 = x^2 + N, P_3 = x^3 + (3N - 2) x
    for N in range(1, 5):
        assert p_poly(N, 0) == (Fraction(1),)
        assert p_poly(N, 1) == (Fraction(0), Fraction(1))
        assert p_poly(N, 2) == (Fraction(N), Fraction(0), Fraction(1))
        assert p_poly(N, 3) == (Fraction(0), Fraction(3 * N - 2),
                                Fraction(0), Fraction(1))


@pytest.mark.parametrize("N", range(1, 5))
def test_p_poly_parity(N):
    # P_m(-x) = (-1)^m P_m(x): coefficients alternate in degree parity
    for m in range(0, N + 2):
        for i, c in enumerate(p_poly(N, m)):
            if (i - m) % 2 and c:
                raise AssertionError(f"P_{m} has a term of wrong parity")


def test_int_polynomial_apply_matches_naive():
    poly = (Fraction(2), Fraction(-1), Fraction(0), Fraction(3))
    z = Ext(GAUSSIAN, (Fraction(1, 2), Fraction(-2)))
    one = Ext(GAUSSIAN, (Fraction(1), Fraction(0)))
    naive = 2 * one - z + 3 * z * z * z
    assert horner(poly, z, one) == naive


def test_pair_elements_commute_and_square_to_minus_one():
    N = 4
    ys = [pair_element(i, N) for i in range(1, N + 1)]
    one = CliffordElement.one(2 * N)
    for y in ys:
        assert cl_mul(y, y) == -one
    for a in range(N):
        for b in range(a + 1, N):
            assert not (cl_mul(ys[a], ys[b]) - cl_mul(ys[b], ys[a]))


def test_c_tilde_boundaries():
    for N in (1, 2, 3):
        assert c_tilde(N, 0) == CliffordElement.one(2 * N)
        assert not c_tilde(N, N + 1)
    with pytest.raises(DomainError):
        c_tilde(2, 4)


@pytest.mark.parametrize("N", range(1, 5))
def test_commuting_family(N):
    rep = commuting_family_check(N)
    assert rep.passed, rep.summary()
    names = [c.name for c in rep.checks]
    assert "product_recursion" in names and "plus_variant_fails" in names


@pytest.mark.parametrize("N", range(1, 5))
def test_classical_spectrum(N):
    rep = classical_spectrum_check(N)
    assert rep.passed, rep.summary()


def test_input_checks_raise_under_optimize():
    # python -O strips asserts; checks of caller input must still refuse
    code = ("from fractions import Fraction\n"
            "from spincheck.clifford import CliffordElement\n"
            "from spincheck.errors import DomainError\n"
            "from spincheck.invariant import embed_pair_operator\n"
            "from spincheck.linalg import SparseMat\n"
            "from spincheck.scalar import EvalPoint, Ext\n"
            "from spincheck.weights import inner\n"
            "F = Fraction\n"
            "p = EvalPoint(F(16), 4, F(16))   # x^4 - 16 is reducible\n"
            "cases = [\n"
            "    lambda: CliffordElement(2, {1: F(1)})\n"
            "            + CliffordElement(3, {4: F(1)}),\n"
            "    lambda: CliffordElement.monomial((2, 1), 3),\n"
            "    lambda: inner((F(1), F(2)), (F(1),)),\n"
            "    lambda: embed_pair_operator(SparseMat.identity(3, F(1)),\n"
            "                                2, 1, 2),\n"
            "    lambda: CliffordElement(-1),\n"
            "    lambda: CliffordElement(2, {4: F(1)}),\n"
            "    lambda: Ext(p, (F(-4), F(0), F(1), F(0))).inverse(),\n"
            "]\n"
            "for case in cases:\n"
            "    try:\n"
            "        case()\n"
            "    except DomainError:\n"
            "        print('refused')\n"
            "    else:\n"
            "        print('accepted')\n")
    # the child imports the same spincheck as this process
    src = os.path.dirname(os.path.dirname(spincheck.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["refused"] * 7
