"""Exact scalar arithmetic: the field Q(v) and its rational specializations.

Everything downstream works over the field of rational functions in one
formal variable v with rational coefficients.  The deformation parameter is

    q = v**4,

so that q**(1/2) = v**2 and q**(1/4) = v are honest monomials and no case
splitting between integer, half-integer and quarter-integer exponents is ever
needed.  A :class:`Scalar` is a quotient of Laurent polynomials in v kept in a
canonical form (gcd-reduced, denominator a true polynomial with constant
term 1), so equality is plain structural comparison and a value is zero iff
its numerator is empty.  Each coefficient is an ``int`` when it is integral
and a ``Fraction`` only when it is not, and the gcd is taken over Z in
w = v^g (see :func:`_canonical`).

A :data:`Specialization` says where arithmetic happens: :data:`SYMBOLIC`
(Q(v) itself) or an :class:`EvalPoint`, an exact rational q0 > 0.
:data:`CLASSICAL` is the point v = 1 (hence q = 1); users pass q0 != 1.
Each has ``of``, mapping a Scalar to its value there, and ``one``, the unit.
At a point, substituting v = q0**(1/4) generally leaves Q, so evaluation is
performed in the smallest explicit radical extension that contains it:
Q itself when q0 is a rational fourth power, Q[x]/(x^2 - sqrt(q0)) when q0 is
a rational square, and Q[x]/(x^4 - q0) otherwise.  Results that land in Q are
returned as plain :class:`fractions.Fraction` values.

An :class:`Ext` is an element of such a field Q[x]/(x^d - c), named either
by its :class:`EvalPoint` or by a bare :class:`Radical`; the Gaussian
rationals Q(i) are ``Ext(GAUSSIAN, (re, im))``.  So exact numbers come in
three types: ``Fraction``, :class:`Scalar` and :class:`Ext`.  With d in
{1, 2, 4} an Ext is inverted by conjugate norms, not by an extended Euclid:
for sigma: x -> -x, b = a * sigma(a) lies in Q[x^2] (in Q when d = 2);
with w its conjugate under x^2 -> -x^2, b * w lies in Q, and
a^-1 = sigma(a) * w / (b * w).  A nonzero a of norm zero shows x^d - c to
be reducible.  Dense polynomials are plain ascending coefficient sequences;
the helpers below take them with integer coefficients.

A :class:`ModPoint` is a third kind of specialization: the reduction of a
point's field modulo a large prime p (chosen by :func:`certificate_prime`),
with values plain ints in [0, p).  Ranks computed there bound the exact
ones, which is what the modular duality certificate of
:mod:`spincheck.invariant` uses.  Point specializations also supply the row
reducer and the matrix product for their values.

An :class:`IntPoint` is the fourth: an integer w0 for w = v^g, at which a
Laurent polynomial in w with integer coefficients takes an exact int (or,
with negative powers of w, Fraction) value.  :mod:`spincheck.invariant`
places w0 past an a-priori coefficient bound, so that a cleared identity
vanishes there exactly when it is zero, and decides it with plain ints.

No floating point is used anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, isqrt, lcm

from .errors import DomainError, PoleError
from .linalg import ModRowReducer, RowReducer, SparseMat

_F0 = Fraction(0)
_F1 = Fraction(1)


# ---------------------------------------------------------------------------
# dense integer polynomial helpers (coefficient lists, index = degree)

def _primitive(p: list[int]) -> list[int]:
    return p if (g := gcd(*p)) == 1 else [c // g for c in p]


def _pgcd(a: list[int], b: list[int]) -> list[int]:
    """A primitive gcd over Z of two nonzero integer polynomials ([1] when
    coprime) by the primitive remainder sequence (Collins 1967): each
    pseudo-remainder is cut to its primitive part."""
    a, b = sorted((_primitive(a), _primitive(b)), key=len, reverse=True)
    while len(b) > 1:
        r, lb, n = list(a), b[-1], len(b) - 1
        while r and (len(r) > n or not r[-1]):
            c = r.pop()
            if c:
                h = gcd(c, lb)
                s, t = lb // h, c // h
                r = [s * x for x in r]
                for j, y in enumerate(b[:-1], len(r) - n):
                    r[j] -= t * y
        if not r:
            return b
        a, b = b, _primitive(r)
    return [1]


def _pquo(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials where b divides a over Z."""
    r, n = list(a), len(b) - 1
    q = [0] * (len(a) - n)
    for k in reversed(range(len(q))):
        c = q[k] = r[k + n] // b[-1]
        for j, y in enumerate(b[:-1], k):
            r[j] -= c * y
    return q


def _div(c, d=1):
    """c / d (ints or Fractions, d != 0) as an int when it is integral."""
    if type(c) is int and type(d) is int and not c % d:
        return c // d
    c = Fraction(c, d)
    return c.numerator if c.denominator == 1 else c


# ---------------------------------------------------------------------------
# the rational function field

def _binary(op):
    """op(self, other) with other coerced to the type of self (its
    ``_coerce``), or NotImplemented when it cannot be."""
    def method(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else op(self, other)
    return method


class Scalar:
    """An element of Q(v), canonically represented.

    Internally a pair of Laurent-coefficient maps {exponent: coefficient},
    each coefficient an ``int`` when it is integral and a ``Fraction`` only
    when it is not.  The denominator always has minimal exponent 0 and
    constant coefficient 1, and the pair is gcd-reduced, which makes ``==``
    structural and ``bool`` a zero test.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: dict, den: dict | None = None):
        self._num, self._den = _canonical(num, {0: 1} if den is None else den)

    # construction helpers -------------------------------------------------

    @staticmethod
    def from_fraction(x) -> "Scalar":
        x = _div(Fraction(x))
        return _scalar({0: x} if x else {}, {0: 1})

    @staticmethod
    def v_power(e: int) -> "Scalar":
        return _scalar({int(e): 1}, {0: 1})

    # field structure -------------------------------------------------------

    @staticmethod
    def _coerce(x):
        """x as a Scalar, or NotImplemented."""
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return Scalar.from_fraction(x)
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self._num)

    __eq__ = _binary(lambda a, b: a._num == b._num and a._den == b._den)

    def __neg__(self) -> "Scalar":
        return _scalar({e: -c for e, c in self._num.items()}, self._den)

    def __add__(self, other) -> "Scalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._num:
            return other
        if not other._num:
            return self
        if self._den == other._den:
            num, add, den = dict(self._num), other._num, self._den
        else:
            num, add = _lmul(self._num, other._den), _lmul(other._num, self._den)
            den = _lmul(self._den, other._den)
        for e, c in add.items():
            num[e] = num.get(e, 0) + c
        return Scalar(num, den)

    __radd__ = __add__

    __sub__ = _binary(lambda a, b: a + -b)
    __rsub__ = _binary(lambda a, b: b + -a)

    def __mul__(self, other) -> "Scalar":
        """The product; c v^e is a unit and a canonical denominator has
        constant term 1, so c v^e * n/d = (c v^e n)/d is gcd-reduced as is."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._num or not other._num:
            return ZERO
        if len(other._num) == 1 and len(other._den) == 1:
            self, other = other, self
        if len(self._num) == 1 and len(self._den) == 1:
            (e, c), = self._num.items()
            return _scalar({e + f: p if type(p := c * x) is int else _div(p)
                            for f, x in other._num.items()}, other._den)
        return Scalar(_lmul(self._num, other._num), _lmul(self._den, other._den))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        """den/num, gcd-free as it stands: :func:`_unit_den` only."""
        if not self._num:
            raise ZeroDivisionError("inverse of the zero scalar")
        return _scalar(*_unit_den(self._den, self._num))

    __truediv__ = _binary(lambda a, b: a * b.inverse())
    __rtruediv__ = _binary(lambda a, b: b * a.inverse())

    def __pow__(self, n: int) -> "Scalar":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # inspection ------------------------------------------------------------

    @property
    def is_laurent_polynomial(self) -> bool:
        return len(self._den) == 1

    def integer_coefficients(self) -> dict[int, int]:
        """{exponent of v: coefficient} of a Laurent polynomial with integer
        coefficients; DomainError for any other value."""
        if (len(self._den) > 1
                or any(type(c) is not int for c in self._num.values())):
            raise DomainError(f"{self} is not a Laurent polynomial with "
                              f"integer coefficients")
        return dict(self._num)

    def integer_parts(self) -> tuple["Scalar", "Scalar"]:
        """(n, d) with self = n / d, both with integer coefficients, n a
        Laurent polynomial and d a polynomial of nonzero constant term: the
        canonical pair times the lcm of the coefficient denominators, with
        no gcd, or (self, 1) when self is already such an n."""
        scale = lcm(*(c.denominator for part in (self._num, self._den)
                      for c in part.values()))
        if scale == 1 and self.is_laurent_polynomial:
            return self, ONE
        num, den = ({e: c.numerator * (scale // c.denominator)
                     for e, c in part.items()}
                    for part in (self._num, self._den))
        return _scalar(num, {0: 1}), _scalar(den, {0: 1})

    def __str__(self) -> str:
        return render_q(self)

    def __repr__(self) -> str:
        return f"Scalar({render_q(self)})"


def _scalar(num: dict, den: dict) -> Scalar:
    """The Scalar of a pair already in canonical form."""
    s = Scalar.__new__(Scalar)
    s._num, s._den = num, den
    return s


def _lmul(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            cur = out.get(e)
            out[e] = ca * cb if cur is None else cur + ca * cb
    return out


def _unit_den(num: dict, den: dict) -> tuple[dict, dict]:
    """num/den, both without zero terms, over the least term c v^b of den."""
    b, c = min(den.items())
    if c == 1 and not b:
        return num, den
    return ({e - b: _div(x, c) for e, x in num.items()},
            {e - b: _div(x, c) for e, x in den.items()})


def _canonical(num: dict, den: dict):
    """Reduce num/den to the canonical pair: gcd-free, with the denominator
    a polynomial of constant term 1 and integral coefficients as ints.

    One term on either side is coprime to the other once shifted by
    :func:`_unit_den`.  Otherwise, in w = v^g for the gcd g of every
    exponent gap, with the coefficient denominators cleared by their lcm, a
    primitive gcd over Z divides both sides exactly (Gauss's lemma)."""
    num = {e: c if type(c) is int else _div(c) for e, c in num.items() if c}
    den = {e: c if type(c) is int else _div(c) for e, c in den.items() if c}
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return {}, {0: 1}
    if len(num) == 1 or len(den) == 1:
        return _unit_den(num, den)
    amin, bmin = min(num), min(den)
    g = gcd(*(e - amin for e in num), *(e - bmin for e in den))
    scale = lcm(*(c.denominator for part in (num, den) for c in part.values()))

    def dense(part, low):
        poly = [0] * ((max(part) - low) // g + 1)
        for e, c in part.items():
            poly[(e - low) // g] = c.numerator * (scale // c.denominator)
        return poly

    npoly, dpoly = dense(num, amin), dense(den, bmin)
    common = _pgcd(npoly, dpoly)
    if len(common) > 1:
        npoly, dpoly = _pquo(npoly, common), _pquo(dpoly, common)
    return _unit_den({amin + g * i: c for i, c in enumerate(npoly) if c},
                     {bmin + g * i: c for i, c in enumerate(dpoly) if c})


ZERO = Scalar.from_fraction(0)
ONE = Scalar.from_fraction(1)


# ---------------------------------------------------------------------------
# q-combinatorics

def qpow(e) -> Scalar:
    """q**e as a Scalar; e may be any rational with 4e integral."""
    e4 = Fraction(e) * 4
    if e4.denominator != 1:
        raise DomainError(f"q**({e}) is not a monomial in v")
    return Scalar.v_power(int(e4))


def qint(n, c=1) -> Scalar:
    """The quantum integer [n] in base q^c, 2n integral:

        [n] = (q^{cn} - q^{-cn}) / (q^c - q^{-c}).

    The default c = 1 is the usual [n]; a simple root alpha_i takes
    c = <alpha_i, alpha_i>/2, so that q_i = q^c.  Built in canonical form,
    with no gcd: with t = 4|c| (c -> -c fixes [n]) and [-n] = -[n], [n] =
    sum_{j<n} v^{t(n-1-2j)} at integer n > 0, and sum_{j<m} v^{t(m-2j)/2} /
    (1 + v^t) at odd m = 2n > 0, gcd-free as with y = v^t the numerator is
    a monomial times 1 + y + ... + y^{m-1}, which is 1 at y = -1.
    """
    m, t = 2 * Fraction(n), 4 * abs(Fraction(c))
    if m.denominator != 1:
        raise DomainError(f"[{n}] needs 2n integral")
    odd, top, sign = m.numerator % 2, abs(m.numerator), 1 if m > 0 else -1
    if m and (not t or (t / (1 + odd)).denominator != 1):
        raise DomainError(f"q**({c * n}) is not a monomial in v")
    return _scalar({int(t) * e // 2: sign
                    for e in range(top - 2 + 2 * odd, -top, 2 * odd - 4)},
                   {0: 1, int(t): 1} if odd else {0: 1})


def curly(i) -> Scalar:
    """The symmetric bracket {i} = q^i + q^-i, 2i integral."""
    i = Fraction(i)
    if (2 * i).denominator != 1:
        raise DomainError(f"{{{i}}} needs 2i integral")
    return qpow(i) + qpow(-i)


def qint_ratio(pairs, c=1) -> Scalar:
    """prod [a]_c / [b]_c over (a, b) in ``pairs``, a Laurent polynomial, by
    exact division over Z: with A = 4ca and B = 4cb, [a]_c / [b]_c =
    v^{B-A} (v^{2A} - 1) / (v^{2B} - 1); each v^b - 1 divides from the top,
    Q_j = P_{j+b} + Q_{j+b}.  DomainError when an A or B is not a positive
    integer or a remainder (the low b coefficients) survives."""
    ex = [(4 * c * Fraction(a), 4 * c * Fraction(b)) for a, b in pairs]
    if any(x <= 0 or x.denominator != 1 for ab in ex for x in ab):
        raise DomainError(f"{pairs}: not ratios of q-integers in powers of v")
    poly, shift = [1], int(sum(B - A for A, B in ex))
    for pad in ([0] * int(2 * A) for A, _ in ex):
        poly = [x - y for x, y in zip(pad + poly, poly + pad)]
    for _, B in ex:
        b = int(2 * B)
        for j in range(len(poly) - 1, b - 1, -1):
            poly[j - b] += poly[j]
        if any(poly[:b]):
            raise DomainError(f"{pairs} in base q^({c}) does not divide")
        del poly[:b]
    return Scalar({shift + i: x for i, x in enumerate(poly)})


def qbinom(n: int, m: int, c=1) -> Scalar:
    """The q-binomial coefficient in base q^c (see :func:`qint`), the
    Laurent polynomial prod_{j<=m} [n-m+j]_c / [j]_c of :func:`qint_ratio`."""
    if not (0 <= m <= n):
        raise DomainError(f"qbinom({n},{m}) out of range")
    return qint_ratio([(n + 1 - j, j) for j in range(1, min(m, n - m) + 1)], c)


# ---------------------------------------------------------------------------
# evaluation points and radical extensions

def _sqrt(x: Fraction) -> Fraction | None:
    """The positive rational square root of x > 0, or None: in lowest terms
    x has one exactly when its numerator and denominator are squares."""
    a, b = isqrt(x.numerator), isqrt(x.denominator)
    return Fraction(a, b) if a * a == x.numerator and b * b == x.denominator else None


@dataclass(frozen=True)
class EvalPoint:
    """An exact specialization q -> q0 of the formal parameter.

    ``degree`` is the degree of the field in which v = q0**(1/4) lives (1, 2
    or 4) and ``radicand`` the defining constant: gen**degree = radicand with
    gen playing the role of v.

    Like :data:`SYMBOLIC`, a point is a specialization: ``of`` maps a Scalar
    to its value and ``one`` is the unit (a Fraction, which :class:`Ext`
    arithmetic coerces).
    """

    q0: Fraction
    degree: int
    radicand: Fraction

    one = _F1

    @staticmethod
    def from_q(q0) -> "EvalPoint":
        q0 = Fraction(q0)
        if q0 <= 0 or q0 == 1:
            raise DomainError(f"q0 = {q0} must be a positive rational other than 1")
        s = _sqrt(q0)
        if s is None:
            return EvalPoint(q0, 4, q0)
        t = _sqrt(s)
        return EvalPoint(q0, 2, s) if t is None else EvalPoint(q0, 1, t)

    def of(self, s: Scalar):
        """The value of ``s`` at this point (see :func:`eval_scalar`)."""
        return eval_scalar(s, self)

    @staticmethod
    def reducer() -> RowReducer:
        """A row reducer over this point's field."""
        return RowReducer()

    @staticmethod
    def product(a: SparseMat, b: SparseMat) -> SparseMat:
        """The matrix product ``a * b`` of values at this point."""
        return a * b


@dataclass(frozen=True)
class Radical:
    """The field Q[x]/(x^degree - radicand) of an Ext with no EvalPoint."""

    degree: int
    radicand: Fraction


GAUSSIAN = Radical(2, Fraction(-1))     # Q(i), with x playing the role of i


class Ext:
    """An element of Q[x]/(x^d - c), coefficients as Fractions.

    ``field`` is an :class:`EvalPoint` or a :class:`Radical`; either gives d
    as ``degree`` and c as ``radicand``.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: EvalPoint | Radical, coeffs: tuple[Fraction, ...]):
        assert len(coeffs) == field.degree
        self.field = field
        self.coeffs = coeffs

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def _coerce(self, other):
        """other as an element of this field, or NotImplemented."""
        if isinstance(other, Ext):
            if other.field != self.field:
                raise DomainError("mixing elements of different extensions")
            return other
        if isinstance(other, (int, Fraction)):
            fr = Fraction(other)
            d = self.field.degree
            return Ext(self.field, (fr,) + (_F0,) * (d - 1))
        return NotImplemented

    def __neg__(self):
        return Ext(self.field, tuple(-c for c in self.coeffs))

    __eq__ = _binary(lambda a, b: a.coeffs == b.coeffs)
    __add__ = _binary(lambda a, b: Ext(a.field, tuple(
        x + y for x, y in zip(a.coeffs, b.coeffs))))
    __radd__ = __add__
    __sub__ = _binary(lambda a, b: Ext(a.field, tuple(
        x - y for x, y in zip(a.coeffs, b.coeffs))))
    __rsub__ = _binary(lambda a, b: b - a)

    def _mul(self, other):
        d = self.field.degree
        c = self.field.radicand
        out = [_F0] * d
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                k = i + j
                if k < d:
                    out[k] += a * b
                else:
                    out[k - d] += a * b * c
        return Ext(self.field, tuple(out))

    __mul__ = __rmul__ = _binary(_mul)

    def inverse(self):
        """The inverse by conjugate norms (see the module docstring)."""
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        d = self.field.degree
        if d not in (1, 2, 4):
            raise DomainError(f"no norm inverse in degree {d}")
        num, norm, bit = self._coerce(_F1), self, 1
        while bit < d:
            # bit 1: x -> -x; bit 2: x^2 -> -x^2 on norm, which lies in Q[x^2]
            conj = Ext(self.field, tuple(-a if i & bit else a
                                         for i, a in enumerate(norm.coeffs)))
            num, norm, bit = num * conj, norm * conj, 2 * bit
        if not norm.coeffs[0]:
            raise DomainError(f"x^{d} - {self.field.radicand} is reducible")
        return num / norm.coeffs[0]

    def _quotient(self, other):
        """self / other; a rational divisor scales the coefficients (zero
        raises ZeroDivisionError there), and only an irrational one is
        inverted."""
        if any(other.coeffs[1:]):
            return self * other.inverse()
        return Ext(self.field, tuple(c / other.coeffs[0] for c in self.coeffs))

    __truediv__ = _binary(_quotient)
    __rtruediv__ = _binary(lambda a, b: b * a.inverse())

    def __repr__(self):
        return f"Ext{self.coeffs}"


def eval_scalar(s: Scalar, p: EvalPoint):
    """Evaluate a Scalar at an EvalPoint.

    Numerator and denominator are lifted alike, v^e -> c^(e // d) x^(e % d)
    in Q[x]/(x^d - c).  A rational lifted denominator (always the case at a
    degree-1 point or for a Laurent polynomial) divides the coefficients;
    only an irrational one is inverted.  Returns a plain Fraction whenever
    the value is rational, otherwise an :class:`Ext` element.  Raises
    :class:`PoleError` when the denominator vanishes at the point.
    """
    d, c = p.degree, p.radicand

    def lift(coeffs: dict[int, Fraction]) -> Ext:
        acc = [_F0] * d
        for e, coef in coeffs.items():
            acc[e % d] += coef * c ** (e // d)
        return Ext(p, tuple(acc))

    num, den = lift(s._num), lift(s._den)
    if not den:
        raise PoleError(f"pole at q0 = {p.q0}")
    val = num / den
    return val if any(val.coeffs[1:]) else val.coeffs[0]


# ---------------------------------------------------------------------------
# reduction modulo a prime

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Sinclair's bases: with each reduced mod n, Miller-Rabin is exact below 2^64
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def _is_prime(n: int) -> bool:
    """Trial division up to 37, then Miller-Rabin with Sinclair's bases,
    each reduced mod n and skipped when 0: deterministic for n < 2^64, and
    DomainError past it (every :func:`certificate_prime` is below 2^61)."""
    if n >= 1 << 64:
        raise DomainError(f"{n} is past the deterministic range 2^64")
    if n < 2:
        return False
    for b in _SMALL_PRIMES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for b in filter(None, (b % n for b in _MR_BASES)):
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@cache
def certificate_prime(point: EvalPoint) -> int:
    """The largest prime p = 3 (mod 4) below 2^61 in which the point's
    radicand c is a unit, and also a square when the degree is 2 or 4.

    Then x^degree = c has a root in F_p (see :meth:`ModPoint.reducing`).
    The search runs once per point: the result is cached.
    """
    a, b = point.radicand.numerator, point.radicand.denominator
    p = (1 << 61) - 1
    while True:
        if (a % p and b % p and _is_prime(p)
                and (point.degree == 1 or pow(a * b, (p - 1) // 2, p) == 1)):
            return p
        p -= 4


@dataclass(frozen=True)
class ModPoint:
    """The reduction of an :class:`EvalPoint` modulo a prime p.

    The point's field is Q[x]/(x^d - c) with v = x.  For v0 in F_p with
    v0^d = c, x -> v0 is a ring map onto F_p, defined on every element whose
    denominator does not vanish mod p.  As a specialization, ``of`` maps a
    Scalar to its image, an int in [0, p), and ``one`` is 1.
    """

    p: int
    v0: int

    one = 1

    @staticmethod
    def reducing(point: EvalPoint, p: int) -> "ModPoint":
        """The reduction of ``point`` mod ``p``, a prime = 3 (mod 4).

        Raises :class:`PoleError` when the radicand is not p-integral and
        DomainError when x^d = c has no root in F_p.
        """
        d, c = point.degree, point.radicand
        if not c.denominator % p:
            raise PoleError(f"radicand {c} has a pole mod {p}")
        c = c.numerator * pow(c.denominator, -1, p) % p
        v0 = c
        if d > 1:
            v0 = pow(c, (p + 1) // 4, p)             # a square root of c
            if d == 4:
                # one of +-v0 is a square, since -1 is not one mod p
                if pow(v0, (p - 1) // 2, p) != 1:
                    v0 = (p - v0) % p
                v0 = pow(v0, (p + 1) // 4, p)
        if pow(v0, d, p) != c:
            raise DomainError(f"x^{d} = {point.radicand} has no root mod {p}")
        return ModPoint(p, v0)

    def of(self, s: Scalar) -> int:
        """The image of ``s`` in F_p; PoleError when it is not defined."""
        p = self.p
        den = self._laurent(s._den)
        if not den:
            raise PoleError(f"denominator vanishes mod {p}")
        return self._laurent(s._num) * pow(den, -1, p) % p

    def _laurent(self, coeffs: dict[int, int | Fraction]) -> int:
        p, v0 = self.p, self.v0
        acc = 0
        for e, c in coeffs.items():
            if e < 0 and not v0:
                raise PoleError(f"v = 0 mod {p} is a pole of v^{e}")
            if type(c) is not int:
                if not c.denominator % p:
                    raise PoleError(f"coefficient {c} has a pole mod {p}")
                c = c.numerator * pow(c.denominator, -1, p)
            acc += c * pow(v0, e, p)
        return acc % p

    def reducer(self) -> ModRowReducer:
        """A row reducer over F_p."""
        return ModRowReducer(self.p)

    def product(self, a: SparseMat, b: SparseMat) -> SparseMat:
        """The matrix product ``a * b`` with entries reduced mod p."""
        p = self.p
        return (a * b).map_values(lambda x: x % p)


@dataclass(frozen=True)
class IntPoint:
    """The integer point w = w0 in w = v^g (g = 1, 2 or 4), where identities
    with integer coefficients are decided by one exact evaluation.

    As a specialization, ``one`` is 1 and ``of`` maps a Laurent polynomial
    in w with integer coefficients to its exact value at w0: an int when it
    lies in Z[w], a Fraction when it has negative powers of w.  Any other
    Scalar raises DomainError: no coefficient bound decides its value.
    """

    w0: int
    g: int

    one = 1

    def of(self, s: Scalar) -> int | Fraction:
        """The value of ``s``, sum_e c_e w0^(e/g) over its terms c_e v^e."""
        coeffs, g = s.integer_coefficients(), self.g
        if any(e % g for e in coeffs):
            raise DomainError(f"{s} is not a Laurent polynomial in v^{g}")
        low = min([0, *coeffs])
        total = sum(c * self.w0 ** ((e - low) // g) for e, c in coeffs.items())
        return Fraction(total, self.w0 ** (-low // g)) if low else total


class _Symbolic:
    """Generic q: arithmetic stays in Q(v)."""

    one = ONE

    @staticmethod
    def of(s: Scalar) -> Scalar:
        return s


SYMBOLIC = _Symbolic()
# The classical point v = 1 (hence q = 1), where values lie in Q;
# EvalPoint.from_q keeps q0 = 1 out of user input.
CLASSICAL = EvalPoint(_F1, 1, _F1)

# Where arithmetic happens: SYMBOLIC, an exact EvalPoint (CLASSICAL too),
# the reduction of one modulo a prime, or an integer point in w = v^g.
Specialization = EvalPoint | ModPoint | IntPoint | _Symbolic


# ---------------------------------------------------------------------------
# rendering

def _q_term(e: int, c: Fraction) -> str:
    """One Laurent term c*v^e written in powers of q (= v^4)."""
    qe = Fraction(e, 4)
    if qe == 0:
        return str(c)
    if qe == 1:
        base = "q"
    elif qe.denominator == 1:
        base = f"q^{qe.numerator}" if qe >= 0 else f"q^({qe.numerator})"
    else:
        base = f"q^({qe})"
    if c == 1:
        return base
    if c == -1:
        return f"-{base}"
    return f"{c}*{base}"


def _q_poly(coeffs: dict[int, Fraction]) -> str:
    if not coeffs:
        return "0"
    parts = []
    for e, c in sorted(coeffs.items(), reverse=True):
        t = _q_term(e, c)
        if parts and not t.startswith("-"):
            parts.append("+" + t)
        else:
            parts.append(t)
    return "".join(parts)


def render_q(s: Scalar) -> str:
    num = _q_poly(s._num)
    if s.is_laurent_polynomial:
        return num
    return f"({num})/({_q_poly(s._den)})"
