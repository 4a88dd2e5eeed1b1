"""Field arithmetic in Q(v), q-combinatorics, and exact evaluation."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spincheck.errors import DomainError, PoleError
from spincheck.scalar import (CLASSICAL, GAUSSIAN, ONE, SYMBOLIC, ZERO,
                              EvalPoint, Ext, Scalar, curly, eval_at_one,
                              eval_scalar, qbinom, qfact, qint, qpow,
                              render_q)

# small Laurent polynomials in v, built from quarter-integer q-powers
coeffs = st.integers(min_value=-4, max_value=4)
exponents = st.fractions(min_value=-3, max_value=3).map(
    lambda f: Fraction(round(4 * f), 4))


@st.composite
def scalars(draw, nonzero=False):
    n = draw(st.integers(min_value=1, max_value=4))
    acc = ZERO
    for _ in range(n):
        acc = acc + qpow(draw(exponents)) * Scalar.from_fraction(draw(coeffs))
    if nonzero and not acc:
        acc = acc + ONE
    return acc


@given(scalars(), scalars(), scalars())
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a - a == ZERO
    assert a * ONE == a


@given(scalars(), scalars(nonzero=True))
@settings(max_examples=60, deadline=None)
def test_division_inverts_multiplication(a, b):
    assert (a / b) * b == a
    assert (a * b) / b == a


@given(scalars(), scalars())
@settings(max_examples=40, deadline=None)
def test_evaluation_is_a_homomorphism(a, b):
    for q0 in (Fraction(3, 2), Fraction(16), Fraction(9, 4)):
        p = EvalPoint.from_q(q0)
        assert eval_scalar(a + b, p) == eval_scalar(a, p) + eval_scalar(b, p)
        assert eval_scalar(a * b, p) == eval_scalar(a, p) * eval_scalar(b, p)


def test_eval_point_validation():
    with pytest.raises(DomainError):
        EvalPoint.from_q(0)
    with pytest.raises(DomainError):
        EvalPoint.from_q(1)
    with pytest.raises(DomainError):
        EvalPoint.from_q(Fraction(-3, 2))
    # perfect fourth power lands in the rational field
    assert EvalPoint.from_q(16).degree == 1
    assert EvalPoint.from_q(Fraction(9, 4)).degree == 2
    assert EvalPoint.from_q(Fraction(3, 2)).degree == 4


@pytest.mark.parametrize("n", range(-6, 7))
def test_qint_specializes_to_integer(n):
    assert eval_at_one(qint(n)) == n


def test_qint_values():
    assert qint(0) == ZERO
    assert qint(1) == ONE
    assert qint(2) == qpow(1) + qpow(-1)
    assert qint(3) == qpow(2) + ONE + qpow(-2)
    assert qint(-3) == -qint(3)
    # [1/2] is the reciprocal of the half curly bracket
    assert qint(Fraction(1, 2)) * curly(Fraction(1, 2)) == ONE
    # Clebsch step: [1/2][2] = [3/2] + [-1/2]
    assert qint(Fraction(1, 2)) * qint(2) == qint(Fraction(3, 2)) - qint(Fraction(1, 2))


@pytest.mark.parametrize("i", range(0, 5))
def test_curly_symmetric(i):
    assert curly(i) == curly(-i)
    assert curly(i) == qpow(i) + qpow(-i)


@pytest.mark.parametrize("n,m", [(n, m) for n in range(0, 8) for m in range(0, n + 1)])
def test_qbinom_against_rational_evaluation(n, m):
    from math import comb
    assert eval_at_one(qbinom(n, m)) == comb(n, m)
    assert qbinom(n, m) == qbinom(n, n - m)
    p = EvalPoint.from_q(Fraction(9, 4))
    got = eval_scalar(qbinom(n, m), p)
    # independent evaluation of prod [n-i]/[i+1] directly in the rationals
    q0 = Fraction(9, 4)
    def qi(j):
        return (q0 ** j - q0 ** -j) / (q0 - 1 / q0) if j else Fraction(0)
    want = Fraction(1)
    for i in range(m):
        want = want * qi(n - i) / qi(i + 1)
    assert got == want


def test_qbinom_pascal():
    # q-Pascal rule with the symmetric convention
    for n in range(1, 7):
        for m in range(1, n):
            lhs = qbinom(n, m)
            rhs = qpow(m) * qbinom(n - 1, m) + qpow(m - n) * qbinom(n - 1, m - 1)
            assert lhs == rhs


def test_qfact_product():
    acc = ONE
    for j in range(1, 6):
        acc = acc * qint(j)
        assert qfact(j) == acc


def test_base_variants_match_quarter_powers():
    # the base-c forms express the same combinatorics in another unit;
    # base q^(1/2) is the one the short simple root of type B uses
    for c in (1, Fraction(1, 2)):
        for n in range(0, 6):
            assert eval_at_one(qint(n, c)) == n
        for n in range(0, 6):
            for m in range(0, n + 1):
                from math import comb
                assert eval_at_one(qbinom(n, m, c)) == comb(n, m)
    half = Fraction(1, 2)
    assert qint(2, half) == qpow(half) + qpow(-half) != qint(2)


def test_scalar_normalization_and_zero_tests():
    a = (qint(3) - qint(3))
    assert not a
    b = qint(5) / qint(5)
    assert b == ONE
    # gcd-reduced: [4]/[2] = q^2 + q^-2 = {2}
    assert qint(4) / qint(2) == curly(2)


def test_render_q_golden():
    assert render_q(ONE) == "1"
    assert render_q(ZERO) == "0"
    assert render_q(qint(2)) == "q+q^(-1)"
    assert render_q(-qint(2)) == "-q-q^(-1)"
    assert render_q(qpow(Fraction(1, 2))) == "q^(1/2)"
    assert render_q(ONE / curly(Fraction(1, 2))) == "(q^(1/2))/(q+1)"


def gaussian(re, im=0):
    return Ext(GAUSSIAN, (Fraction(re), Fraction(im)))


def test_gaussian_field():
    i = gaussian(0, 1)
    assert i * i == gaussian(-1)
    a = gaussian(Fraction(2, 3), Fraction(-1, 2))
    assert a / a == gaussian(1)
    assert (a + i) - i == a
    with pytest.raises(ZeroDivisionError):
        a / gaussian(0)


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
@settings(max_examples=40, deadline=None)
def test_gaussian_ring_laws(a, b, c, d):
    x, y = gaussian(a, b), gaussian(c, d)
    assert x * y == y * x
    assert (x + y) * (x - y) == x * x - y * y


def test_monomial_denominator_shifts_and_scales():
    # 2 v^3 / (4 v^2) = v / 2, reached without a polynomial gcd
    s = Scalar({3: Fraction(2)}, {2: Fraction(4)})
    assert s == Scalar.from_fraction(Fraction(1, 2)) * Scalar.v_power(1)
    assert s.is_laurent_polynomial


def test_specializations_map_and_unit():
    s = qint(2) / curly(Fraction(1, 2))      # [2] / (q^(1/2) + q^(-1/2))
    assert SYMBOLIC.of(s) is s
    assert SYMBOLIC.one == ONE
    assert CLASSICAL.of(s) == 1 and isinstance(CLASSICAL.of(s), Fraction)
    assert CLASSICAL.one == 1 and isinstance(CLASSICAL.one, Fraction)
    for q0 in (Fraction(16), Fraction(9, 4), Fraction(3, 2)):
        p = EvalPoint.from_q(q0)
        assert p.of(s) == eval_scalar(s, p)
        assert p.one == 1 and isinstance(p.one, Fraction)
        assert p.of(s) * p.one == p.of(s)
    assert isinstance(EvalPoint.from_q(Fraction(3, 2)).of(s), Ext)
    # degree 1: v0 = 2, [2] = 16 + 1/16, curly(1/2) = 4 + 1/4
    assert EvalPoint.from_q(16).of(s) == Fraction(257, 16) / Fraction(17, 4)


@st.composite
def rational_functions(draw):
    """num/den from small Laurent polynomials, without canonicalizing first."""
    def laurent():
        return {draw(st.integers(-3, 3)): Fraction(draw(coeffs))
                for _ in range(draw(st.integers(1, 3)))}
    return laurent(), laurent()


@given(rational_functions())
@settings(max_examples=80, deadline=None)
def test_eval_at_one_sums_coefficients(pair):
    # independent v = 1 reference: a Laurent polynomial at v = 1 is the sum
    # of its coefficients, and canonicalization preserves the quotient
    num, den = pair
    assume(any(den.values()))
    s = Scalar(num, den)
    top, bottom = sum(num.values()), sum(den.values())
    if bottom:
        assert eval_at_one(s) == top / bottom
    elif top:
        with pytest.raises(PoleError):
            eval_at_one(s)


def test_classical_point_and_pole():
    assert isinstance(CLASSICAL, EvalPoint)
    assert (CLASSICAL.degree, CLASSICAL.radicand) == (1, 1)
    # 1/(1 - v) has a pole at v = 1
    with pytest.raises(PoleError):
        eval_at_one(ONE / (ONE - qpow(Fraction(1, 4))))
