"""Field arithmetic in Q(v), q-combinatorics, and exact evaluation."""

from fractions import Fraction
from functools import reduce
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spincheck import scalar
from spincheck.errors import DomainError, PoleError
from spincheck.scalar import (CLASSICAL, GAUSSIAN, ONE, SYMBOLIC, ZERO,
                              EvalPoint, Ext, IntPoint, ModPoint, Radical,
                              Scalar, _canonical, _lmul, certificate_prime,
                              curly, eval_scalar, qbinom, qint, qint_ratio,
                              qpow, render_q)

_0 = Fraction(0)

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


# every root a rational q0 = a/b with a, b <= 30 can have: numerator and
# denominator are at most sqrt(30)
_SQUARES = {Fraction(c, d) ** 2: Fraction(c, d)
            for c in range(1, 31) for d in range(1, 31)}
_FOURTHS = {x ** 2: r for x, r in _SQUARES.items()}
_SMALL_POINTS = sorted({Fraction(a, b) for a in range(1, 31)
                        for b in range(1, 31)} - {1})


def _brute_point(q0: Fraction) -> tuple[int, Fraction]:
    """(degree, radicand) by table lookup: a rational fourth root, else a
    rational square root, else q0 itself."""
    if q0 in _FOURTHS:
        return 1, _FOURTHS[q0]
    return (2, _SQUARES[q0]) if q0 in _SQUARES else (4, q0)


def test_from_q_matches_brute_force_on_small_points():
    degrees = set()
    for q0 in _SMALL_POINTS + sorted(set(_SQUARES) - {1}):
        p = EvalPoint.from_q(q0)
        assert (p.degree, p.radicand) == _brute_point(q0), q0
        degrees.add(p.degree)
    assert degrees == {1, 2, 4}


_BIG = 2**127 - 1                   # a prime, so no square
_R = Fraction(10**30 + 7, 3**50)


@pytest.mark.parametrize("q0,degree,radicand", [
    (_R ** 4, 1, _R),
    (1 / _R ** 4, 1, 1 / _R),
    (Fraction(_BIG, 3**61) ** 2, 2, Fraction(_BIG, 3**61)),
    (_R ** 2 * Fraction(_BIG), 4, _R ** 2 * Fraction(_BIG)),
    (Fraction((10**40) ** 2 + 1), 4, Fraction((10**40) ** 2 + 1)),
    (Fraction(10**20 - 1) ** 2, 2, Fraction(10**20 - 1)),
    (Fraction(10**40, 3**80 + 2), 4, Fraction(10**40, 3**80 + 2)),
])
def test_from_q_on_large_numerators_and_denominators(q0, degree, radicand):
    p = EvalPoint.from_q(q0)
    assert (p.degree, p.radicand) == (degree, radicand)
    assert p.radicand > 0 and p.radicand ** (4 // degree) == q0


@pytest.mark.parametrize("n", range(-6, 7))
def test_qint_specializes_to_integer(n):
    assert CLASSICAL.of(qint(n)) == n


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
    assert CLASSICAL.of(qbinom(n, m)) == comb(n, m)
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


def reference_quotient(tops, bottoms) -> Scalar:
    """prod tops / prod bottoms with one canonical reduction over Q(v): the
    products by _lmul and a single gcd, with no shortcut of Scalar.__mul__."""
    def product(xs, part):
        return reduce(_lmul, (getattr(x, part) for x in xs), {0: Fraction(1)})
    return Scalar(_lmul(product(tops, "_num"), product(bottoms, "_den")),
                  _lmul(product(tops, "_den"), product(bottoms, "_num")))


def reference_qint(n, c=1) -> Scalar:
    """[n] in base q^c by the quotient formula over Q(v)."""
    if n == 0:
        return ZERO
    return reference_quotient([qpow(c * n) - qpow(-c * n)],
                              [qpow(c) - qpow(-c)])


def normal_coefficient(x) -> bool:
    """The normal form of a Scalar coefficient: an int exactly when it is
    integral, never a float and never an integral Fraction."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def same_canonical_form(got: Scalar, want: Scalar) -> bool:
    return (got._num == want._num and got._den == want._den
            and all(map(normal_coefficient,
                        [*got._num.values(), *got._den.values()]))
            and render_q(got) == render_q(want))


@pytest.mark.parametrize("c", [Fraction(1, 2), 1, 2])
def test_qint_closed_forms_match_quotient_formula(c):
    for twice in range(-25, 26):
        n = Fraction(twice, 2)
        assert same_canonical_form(qint(n, c), reference_qint(n, c)), (n, c)


@pytest.mark.parametrize("c", [Fraction(1, 2), 1, 2])
def test_qbinom_exact_division_matches_quotient_formula(c):
    for n in range(0, 11):
        for m in range(0, n + 1):
            want = reference_quotient(
                [reference_qint(n - m + j, c) for j in range(1, m + 1)],
                [reference_qint(j, c) for j in range(1, m + 1)])
            assert same_canonical_form(qbinom(n, m, c), want), (n, m, c)


def test_qint_ratio_refuses_inexact_and_nonpositive_quotients():
    # [3]/[2] in base q^(1/4) is (v^6 - 1)/(v^4 - 1) up to a power of v,
    # which leaves the remainder v^2 - 1
    with pytest.raises(DomainError, match="does not divide"):
        qint_ratio([(3, 2)], Fraction(1, 4))
    for pair in [(0, 1), (2, 0), (-1, 1), (Fraction(1, 8), 1)]:
        with pytest.raises(DomainError, match="not ratios"):
            qint_ratio([pair])
    assert qint_ratio([]) == ONE
    assert qint_ratio([(4, 2)]) == curly(2)


def test_q_numbers_run_no_polynomial_gcd(gcd_calls):
    for c in (Fraction(1, 2), 1, 2):
        for twice in range(-9, 10):
            qint(Fraction(twice, 2), c)
        for n in range(0, 8):
            for m in range(0, n + 1):
                qbinom(n, m, c)
    assert not gcd_calls
    reference_qint(Fraction(3, 2))
    assert gcd_calls                    # the spy sees the quotient formula


def _assert_integer_parts(x: Scalar) -> None:
    # x = n / d, n and d with integer coefficients, d a polynomial with a
    # nonzero constant term
    num, den = x.integer_parts()
    assert num / den == x
    num.integer_coefficients()
    dcoeffs = den.integer_coefficients()
    assert min(dcoeffs) == 0 and dcoeffs[0]


@given(scalars(), scalars(nonzero=True),
       st.fractions(min_value=-3, max_value=3, max_denominator=6))
@settings(max_examples=60, deadline=None)
def test_integer_parts_split_a_quotient(a, b, c):
    _assert_integer_parts(a / b * Scalar.from_fraction(c))


def test_integer_parts_run_no_polynomial_gcd(gcd_calls):
    values = [ZERO, ONE, qpow(-3) - 2 * qpow(2), qint(Fraction(5, 2)),
              Scalar({-3: Fraction(1, 2)}, {0: Fraction(3), 4: Fraction(2)}),
              Scalar({2: Fraction(5, 3), 5: Fraction(-1)},
                     {0: Fraction(2), 2: Fraction(-5)}),
              Scalar.from_fraction(Fraction(-7, 4)) / curly(1)]
    gcd_calls.clear()
    parts = [x.integer_parts() for x in values]
    assert not gcd_calls
    assert parts[0] == (ZERO, ONE)
    # an integer Laurent polynomial is its own numerator
    assert parts[2][0] is values[2] and parts[2][1] == ONE
    for x in values:
        _assert_integer_parts(x)


# ---------------------------------------------------------------------------
# the reference canonical form: a monic gcd over Q by the Euclidean
# algorithm on dense Fraction lists in v, with no shortcut

def _ref_pdivmod(a: list[Fraction], b: list[Fraction]):
    r = list(a)
    q = [_0] * max(0, len(a) - len(b) + 1)
    for k in range(len(a) - len(b), -1, -1):
        c = q[k] = r[k + len(b) - 1] / b[-1]
        for j, bj in enumerate(b):
            r[k + j] -= c * bj
    while r and not r[-1]:
        r.pop()
    return q, r


def _ref_pgcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    while b:
        a, b = b, _ref_pdivmod(a, b)[1]
    return [c / a[-1] for c in a]


def reference_canonical(num: dict, den: dict) -> tuple[dict, dict]:
    num = {e: Fraction(c) for e, c in num.items() if c}
    den = {e: Fraction(c) for e, c in den.items() if c}
    if not num:
        return {}, {0: 1}
    amin, bmin = min(num), min(den)
    npoly = [num.get(e, _0) for e in range(amin, max(num) + 1)]
    dpoly = [den.get(e, _0) for e in range(bmin, max(den) + 1)]
    g = _ref_pgcd(npoly, dpoly)
    npoly, dpoly = _ref_pdivmod(npoly, g)[0], _ref_pdivmod(dpoly, g)[0]

    def normal(c: Fraction):
        c /= dpoly[0]
        return c.numerator if c.denominator == 1 else c

    return ({amin - bmin + i: normal(c) for i, c in enumerate(npoly) if c},
            {i: normal(c) for i, c in enumerate(dpoly) if c})


nonzero_coeffs = st.one_of(
    st.integers(-6, 6), st.fractions(-3, 3, max_denominator=4)).filter(bool)


@st.composite
def quotients(draw):
    """(num, den) maps, not canonicalized, with int and Fraction
    coefficients: the exponents of each factor spaced by one stride, a
    common factor on both sides half the time, and a content on each side
    (an integral Fraction among them); some numerators are one term."""
    stride = draw(st.sampled_from((1, 2, 3, 4)))

    def laurent(terms):
        shift = draw(st.integers(-3, 3))
        return {shift + stride * draw(st.integers(0, 4)): draw(nonzero_coeffs)
                for _ in range(terms)}

    contents = st.sampled_from((1, -1, 2, 6, Fraction(3, 5), Fraction(4)))
    num = _lmul(laurent(draw(st.sampled_from((1, 1, 2, 3)))),
                {0: draw(contents)})
    den = _lmul(laurent(draw(st.integers(1, 3))), {0: draw(contents)})
    if draw(st.booleans()):
        common = laurent(draw(st.integers(1, 3)))
        num, den = _lmul(num, common), _lmul(den, common)
    return num, den


@given(quotients())
@settings(max_examples=200, deadline=None)
def test_canonical_matches_the_fraction_euclid(pair):
    num, den = pair
    assume(any(den.values()))
    got = _canonical(dict(num), dict(den))
    assert got == reference_canonical(num, den)
    assert all(map(normal_coefficient, [*got[0].values(), *got[1].values()]))


def test_canonical_compresses_to_the_common_stride(gcd_calls):
    # (2 v^6 - 2) / (v^3 - 1) = (2 w^2 - 2) / (w - 1) = 2 w + 2 in w = v^3,
    # with one gcd over Z on lists of length 3 and 2 in w
    s = Scalar({6: 2, 0: -2}, {3: 1, 0: -1})
    assert (s._num, s._den) == ({3: 2, 0: 2}, {0: 1})
    assert [(len(a), len(b)) for a, b in gcd_calls] == [(3, 2)]
    assert all(type(c) is int for a, b in gcd_calls for c in a + b)
    # a one-term numerator is coprime to a denominator of nonzero
    # constant term, so it runs no gcd
    gcd_calls.clear()
    s = Scalar({5: Fraction(6)}, {2: 4, 4: 2})
    assert (s._num, s._den) == ({3: Fraction(3, 2)}, {0: 1, 2: Fraction(1, 2)})
    assert not gcd_calls


@given(quotients(), quotients())
@settings(max_examples=60, deadline=None)
def test_arithmetic_and_values_are_never_floats(p, r):
    assume(any(p[1].values()) and any(r[1].values()))
    a, b = Scalar(*p), Scalar(*r)
    results = [a + b, a - b, a * b, -a, a * 3, 3 * a, a - 2, a + Fraction(1, 2),
               2 / b if b else ZERO, b / 2, a.inverse() if a else ONE,
               a / b if b else ZERO, *a.integer_parts()]
    for x in results:
        assert all(map(normal_coefficient, [*x._num.values(), *x._den.values()]))
    for q0 in (Fraction(16), Fraction(9, 4), Fraction(3, 2), 1):
        point = CLASSICAL if q0 == 1 else EvalPoint.from_q(q0)
        mod = ModPoint.reducing(point, certificate_prime(point))
        for x in results:
            try:
                value = point.of(x)
            except PoleError:
                continue
            assert type(value) is Fraction or (
                type(value) is Ext
                and all(type(c) is Fraction for c in value.coeffs))
            assert type(mod.of(x)) is int
    num = a.integer_parts()[0]
    for g in (1, 2, 4):
        if all(e % g == 0 for e in num._num):
            value = IntPoint(7, g).of(num)
            assert type(value) is (Fraction if min(num._num, default=0) < 0
                                   else int)


@pytest.mark.parametrize("e", [-5, 0, 3])
@pytest.mark.parametrize("coeff", [Fraction(1), Fraction(-3, 2)])
def test_monomial_factor_shifts_and_scales(e, coeff):
    mono = Scalar.from_fraction(coeff) * Scalar.v_power(e)
    for other in (ONE / curly(Fraction(1, 2)),
                  (qint(3) + qpow(Fraction(-3, 4))) / (qint(2) + ONE),
                  qint(Fraction(5, 2), 2), qint(4), Scalar.v_power(-2)):
        want = Scalar(_lmul(mono._num, other._num),
                      _lmul(mono._den, other._den))
        assert same_canonical_form(mono * other, want)
        assert same_canonical_form(other * mono, want)


def test_base_variants_match_quarter_powers():
    # the base-c forms express the same combinatorics in another unit;
    # base q^(1/2) is the one the short simple root of type B uses
    for c in (1, Fraction(1, 2)):
        for n in range(0, 6):
            assert CLASSICAL.of(qint(n, c)) == n
        for n in range(0, 6):
            for m in range(0, n + 1):
                from math import comb
                assert CLASSICAL.of(qbinom(n, m, c)) == comb(n, m)
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
    # a rational divisor scales the coefficients, with no inverse
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Ext, "inverse", lambda self: pytest.fail("inverse called"))
        assert a / Fraction(3, 4) == a * gaussian(Fraction(4, 3))
        assert a / 2 == gaussian(Fraction(1, 3), Fraction(-1, 4))
        with pytest.raises(ZeroDivisionError):
            a / 0


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
@settings(max_examples=40, deadline=None)
def test_gaussian_ring_laws(a, b, c, d):
    x, y = gaussian(a, b), gaussian(c, d)
    assert x * y == y * x
    assert (x + y) * (x - y) == x * x - y * y


# one point of each degree of Q[x]/(x^d - c) that Ext.inverse serves
INVERSE_FIELDS = [EvalPoint.from_q(Fraction(9, 4)),      # d = 2
                  EvalPoint.from_q(Fraction(3, 2)),      # d = 4
                  GAUSSIAN]
small = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@pytest.mark.parametrize("field", INVERSE_FIELDS)
@given(st.lists(small, min_size=4, max_size=4))
@settings(max_examples=40, deadline=None)
def test_norm_inverse(field, coeffs):
    a = Ext(field, tuple(coeffs[:field.degree]))
    assume(a)
    assert a * a.inverse() == 1
    assert a.inverse().inverse() == a


_EXT_OPERATORS = ["__eq__", "__add__", "__radd__", "__sub__", "__rsub__",
                  "__mul__", "__rmul__", "__truediv__", "__rtruediv__"]


@pytest.mark.parametrize("foreign", [ONE, "1", 1.0, None],
                         ids=["Scalar", "str", "float", "None"])
@pytest.mark.parametrize("field", INVERSE_FIELDS)
def test_ext_operators_leave_foreign_types_to_python(field, foreign):
    a = Ext(field, (Fraction(1, 2),) + (_0,) * (field.degree - 1))
    for name in _EXT_OPERATORS:
        assert getattr(a, name)(foreign) is NotImplemented, name
    assert a != foreign
    with pytest.raises(TypeError):
        a + foreign


@pytest.mark.parametrize("field", INVERSE_FIELDS)
def test_ext_reflected_operators_coerce_the_rational(field):
    a = Ext(field, tuple(Fraction(i + 1, 3) for i in range(field.degree)))
    two = Ext(field, (Fraction(2),) + (_0,) * (field.degree - 1))
    assert 2 + a == two + a and 2 - a == two - a and 2 * a == two * a
    assert 2 / a == two / a and (2 / a) * a == 2
    assert 2 - a == -(a - 2) != a - 2
    with pytest.raises(ZeroDivisionError):
        a / 0
    with pytest.raises(ZeroDivisionError):
        2 / (a - a)


def test_zero_norm_means_reducible():
    # x^4 - 4 = (x^2 - 2)(x^2 + 2), so x^2 - 2 is a nonzero zero divisor
    field = Radical(4, Fraction(4))
    zero_divisor = Ext(field, (Fraction(-2), _0, Fraction(1), _0))
    assert zero_divisor * Ext(field, (Fraction(2), _0, Fraction(1), _0)) == 0
    with pytest.raises(DomainError, match="reducible"):
        zero_divisor.inverse()
    with pytest.raises(DomainError, match="reducible"):
        Ext(Radical(2, Fraction(9)), (Fraction(3), Fraction(1))).inverse()


@pytest.mark.parametrize("q0", [Fraction(3, 2), Fraction(9, 4)])
def test_rational_denominator_needs_no_inverse(monkeypatch, q0):
    p = EvalPoint.from_q(q0)
    half = Fraction(1, 2)
    want = [(qint(3), q0 ** 2 + 1 + q0 ** -2),
            # denominator q + 1, rational at a degree-2 or degree-4 point
            (qpow(half) / curly(half), q0 / (q0 + 1))]
    monkeypatch.setattr(Ext, "inverse",
                        lambda self: pytest.fail("inverse called"))
    for s, value in want:
        assert eval_scalar(s, p) == value
        assert isinstance(eval_scalar(s, p), Fraction)
    v = eval_scalar(qpow(Fraction(1, 4)), p)     # v itself is x
    assert isinstance(v, Ext) and v.coeffs[1] == 1 and not v.coeffs[0]


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


def test_certificate_prime_choice():
    assert certificate_prime(EvalPoint.from_q(Fraction(3, 2))) == 2**61 - 229
    assert certificate_prime(EvalPoint.from_q(Fraction(5, 2))) == 2**61 - 1
    assert certificate_prime(CLASSICAL) == 2**61 - 1
    for q0 in (Fraction(3, 2), Fraction(7, 5), Fraction(9, 4), Fraction(16),
               Fraction(1, 81)):
        point = EvalPoint.from_q(q0)
        p = certificate_prime(point)
        assert p % 4 == 3 and pow(3, p - 1, p) == 1
        mod = ModPoint.reducing(point, p)
        c = point.radicand
        assert pow(mod.v0, point.degree, p) * c.denominator % p \
            == c.numerator % p
    assert ModPoint.reducing(CLASSICAL, 2**61 - 1) == ModPoint(2**61 - 1, 1)


def _trial_division(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def test_is_prime_is_deterministic_below_2_64():
    assert [n for n in range(10**5)
            if scalar._is_prime(n) != _trial_division(n)] == []
    # the least strong pseudoprimes to the bases 2..7 and 2..23, which
    # Sinclair's bases reject, and primes that divide a base
    for n in (3215031751, 3825123056546413051):
        assert not scalar._is_prime(n)
    assert all(scalar._is_prime(n) for n in (73, 193, 2**61 - 1, 2**64 - 59))
    assert not scalar._is_prime(73 * 193)
    with pytest.raises(DomainError, match="2\\^64"):
        scalar._is_prime(2**64 + 13)


def _mod(x, mod: ModPoint) -> int:
    """An exact point value's image under x -> v0."""
    if isinstance(x, Ext):
        return sum(_mod(c, mod) * pow(mod.v0, i, mod.p)
                   for i, c in enumerate(x.coeffs)) % mod.p
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, mod.p) % mod.p


@pytest.mark.parametrize("q0", [Fraction(3, 2), Fraction(9, 4), Fraction(16),
                                Fraction(1)])
@given(scalars(), scalars(nonzero=True))
@settings(max_examples=25, deadline=None)
def test_mod_point_reduces_point_values(q0, s, t):
    point = CLASSICAL if q0 == 1 else EvalPoint.from_q(q0)
    mod = ModPoint.reducing(point, certificate_prime(point))
    assert mod.of(s) == _mod(point.of(s), mod)
    assert mod.of(s * t) == mod.of(s) * mod.of(t) % mod.p
    try:
        exact = point.of(s / t)
    except PoleError:
        # t vanishes at the point, so its image vanishes too
        with pytest.raises(PoleError):
            mod.of(s / t)
        return
    assert mod.of(s / t) == _mod(exact, mod)


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
        assert CLASSICAL.of(s) == top / bottom
    elif top:
        with pytest.raises(PoleError):
            CLASSICAL.of(s)


def test_classical_point_and_pole():
    assert isinstance(CLASSICAL, EvalPoint)
    assert (CLASSICAL.degree, CLASSICAL.radicand) == (1, 1)
    # 1/(1 - v) has a pole at v = 1
    with pytest.raises(PoleError):
        CLASSICAL.of(ONE / (ONE - qpow(Fraction(1, 4))))
