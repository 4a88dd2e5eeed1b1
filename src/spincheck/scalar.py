"""Exact scalar arithmetic: the field Q(v) and its rational specializations.

Everything downstream works over the field of rational functions in one
formal variable v with rational coefficients.  The deformation parameter is

    q = v**4,

so that q**(1/2) = v**2 and q**(1/4) = v are honest monomials and no case
splitting between integer, half-integer and quarter-integer exponents is ever
needed.  A :class:`Scalar` is a quotient of Laurent polynomials in v kept in a
canonical form (gcd-reduced, denominator a true polynomial with constant
term 1), so equality is plain structural comparison and a value is zero iff
its numerator is empty.

A :data:`Specialization` says where arithmetic happens: :data:`SYMBOLIC`
(Q(v) itself), :data:`CLASSICAL` (v = 1, hence q = 1), or an
:class:`EvalPoint`, an exact rational q0 > 0, q0 != 1.  Each has ``of``,
mapping a Scalar to its value there, and ``one``, the unit.  At a point,
substituting v = q0**(1/4) generally leaves Q, so evaluation is
performed in the smallest explicit radical extension that contains it:
Q itself when q0 is a rational fourth power, Q[x]/(x^2 - sqrt(q0)) when q0 is
a rational square, and Q[x]/(x^4 - q0) otherwise.  Results that land in Q are
returned as plain :class:`fractions.Fraction` values.

No floating point is used anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable

from .errors import DomainError, PoleError

_F0 = Fraction(0)
_F1 = Fraction(1)


# ---------------------------------------------------------------------------
# dense polynomial helpers (coefficient lists over Fraction, index = degree)

def _ptrim(p: list[Fraction]) -> list[Fraction]:
    while p and not p[-1]:
        p.pop()
    return p


def _pmul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [_F0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] += ai * bj
    return _ptrim(out)


def _pdivmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    assert b, "division by the zero polynomial"
    r = list(a)
    q = [_F0] * max(0, len(a) - len(b) + 1)
    inv = 1 / b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = r[k + len(b) - 1] * inv
        if c:
            q[k] = c
            for j, bj in enumerate(b):
                if bj:
                    r[k + j] -= c * bj
    return _ptrim(q), _ptrim(r)


def _pgcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Monic gcd by the Euclidean algorithm."""
    a, b = list(a), list(b)
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if a:
        lead = a[-1]
        if lead != 1:
            a = [c / lead for c in a]
    return a


def _pxgcd(a: list[Fraction], m: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Return (g, u) with u*a = g (mod m) and g the monic gcd of a and m."""
    r0, r1 = list(m), list(a)
    s0, s1 = [], [_F1]
    while r1:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _ptrim([x - y for x, y in
                             zip(s0 + [_F0] * max(0, len(_pmul(q, s1)) - len(s0)),
                                 _pmul(q, s1) + [_F0] * max(0, len(s0) - len(_pmul(q, s1))))])
    if r0:
        lead = r0[-1]
        if lead != 1:
            r0 = [c / lead for c in r0]
            s0 = [c / lead for c in s0]
    return r0, s0


# ---------------------------------------------------------------------------
# the rational function field

class Scalar:
    """An element of Q(v), canonically represented.

    Internally a pair of Laurent-coefficient maps {exponent: Fraction}.  The
    denominator always has minimal exponent 0 and constant coefficient 1, and
    the pair is gcd-reduced, which makes ``==`` structural and ``bool`` a
    zero test.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: dict[int, Fraction], den: dict[int, Fraction] | None = None):
        if den is None:
            den = {0: _F1}
        self._num, self._den = _canonical(num, den)

    # construction helpers -------------------------------------------------

    @staticmethod
    def from_fraction(x) -> "Scalar":
        x = Fraction(x)
        s = Scalar.__new__(Scalar)
        s._num = {0: x} if x else {}
        s._den = {0: _F1}
        return s

    @staticmethod
    def v_power(e: int) -> "Scalar":
        s = Scalar.__new__(Scalar)
        s._num = {int(e): _F1}
        s._den = {0: _F1}
        return s

    # field structure -------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        other = _as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __neg__(self) -> "Scalar":
        s = Scalar.__new__(Scalar)
        s._num = {e: -c for e, c in self._num.items()}
        s._den = self._den
        return s

    def __add__(self, other) -> "Scalar":
        other = _as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._num:
            return other
        if not other._num:
            return self
        if self._den == other._den:
            num = dict(self._num)
            for e, c in other._num.items():
                num[e] = num.get(e, _F0) + c
            return Scalar(num, self._den)
        num = _lmul(self._num, other._den)
        for e, c in _lmul(other._num, self._den).items():
            num[e] = num.get(e, _F0) + c
        return Scalar(num, _lmul(self._den, other._den))

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Scalar":
        other = _as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._num or not other._num:
            return ZERO
        return Scalar(_lmul(self._num, other._num), _lmul(self._den, other._den))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if not self._num:
            raise ZeroDivisionError("inverse of the zero scalar")
        return Scalar(dict(self._den), dict(self._num))

    def __truediv__(self, other):
        other = _as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

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

    @staticmethod
    def dot(pairs: Iterable[tuple]) -> "Scalar":
        """``sum(a * b for a, b in pairs)``, canonicalized once per group.

        The products stay unreduced.  A product whose other factor has
        denominator 1 keeps the existing denominator; any other product
        takes the product of the two.  Terms with equal unreduced
        denominators sum their numerators directly, so each group is
        canonicalized once and only the few group sums are added as
        Scalars.  ``int`` and ``Fraction`` factors are coerced.
        """
        groups: dict[tuple, list] = {}    # key -> [den or (den_a, den_b), num]
        for a, b in pairs:
            if type(a) is not Scalar:
                a = _coerce(a)
            if type(b) is not Scalar:
                b = _coerce(b)
            anum, bnum = a._num, b._num
            if not anum or not bnum:
                continue
            aden, bden = a._den, b._den
            if bden == _UNIT_DEN:
                key, den = (tuple(aden.items()),), aden
            elif aden == _UNIT_DEN:
                key, den = (tuple(bden.items()),), bden
            else:
                ka, kb = tuple(aden.items()), tuple(bden.items())
                if kb < ka:
                    ka, kb, aden, bden = kb, ka, bden, aden
                key, den = (ka, kb), (aden, bden)
            group = groups.get(key)
            if group is None:
                groups[key] = group = [den, {}]
            num = group[1]
            for ea, ca in anum.items():
                for eb, cb in bnum.items():
                    e = ea + eb
                    cur = num.get(e)
                    num[e] = ca * cb if cur is None else cur + ca * cb
        total = ZERO
        for key, (den, num) in groups.items():
            if len(key) == 2:
                den = _lmul(*den)
            total = total + Scalar(num, den)
        return total

    # inspection ------------------------------------------------------------

    @property
    def is_laurent_polynomial(self) -> bool:
        return self._den == {0: _F1}

    def numerator_items(self) -> list[tuple[int, Fraction]]:
        return sorted(self._num.items())

    def denominator_items(self) -> list[tuple[int, Fraction]]:
        return sorted(self._den.items())

    def subs_v(self, v0: Fraction) -> Fraction:
        """Substitute a rational value for v (used for the classical limit v=1)."""
        num = sum((c * v0 ** e for e, c in self._num.items()), _F0)
        den = sum((c * v0 ** e for e, c in self._den.items()), _F0)
        if not den:
            raise PoleError(f"denominator vanishes at v = {v0}")
        return num / den

    def __str__(self) -> str:
        return render_q(self)

    def __repr__(self) -> str:
        return f"Scalar({render_q(self)})"


def _as_scalar(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar.from_fraction(x)
    return NotImplemented


def _coerce(x) -> Scalar:
    s = _as_scalar(x)
    if s is NotImplemented:
        raise TypeError(f"cannot use {type(x).__name__} as an element of Q(v)")
    return s


def _lmul(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = out.get(e, _F0) + ca * cb
    return out


def _canonical(num: dict[int, Fraction], den: dict[int, Fraction]):
    """Reduce num/den to the canonical pair: gcd-free, with the denominator
    a polynomial of constant term 1.

    A denominator that is a single monomial c*v^b is a unit of the Laurent
    ring, so the numerator is only shifted by -b and scaled by 1/c, and the
    polynomial gcd is skipped.
    """
    num = {e: c for e, c in num.items() if c}
    den = {e: c for e, c in den.items() if c}
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return {}, {0: _F1}
    if len(den) == 1:
        (b, lead), = den.items()
        if lead == 1:
            return ({e - b: c for e, c in num.items()} if b else num), {0: _F1}
        return {e - b: c / lead for e, c in num.items()}, {0: _F1}
    amin, amax = min(num), max(num)
    bmin, bmax = min(den), max(den)
    npoly = [num.get(amin + i, _F0) for i in range(amax - amin + 1)]
    dpoly = [den.get(bmin + i, _F0) for i in range(bmax - bmin + 1)]
    g = _pgcd(npoly, dpoly)
    if len(g) > 1:
        npoly = _pdivmod(npoly, g)[0]
        dpoly = _pdivmod(dpoly, g)[0]
    lead = dpoly[0]
    shift = amin - bmin
    cnum = {shift + i: c / lead for i, c in enumerate(npoly) if c}
    cden = {i: c / lead for i, c in enumerate(dpoly) if c}
    return cnum, cden


ZERO = Scalar.from_fraction(0)
ONE = Scalar.from_fraction(1)
_UNIT_DEN = {0: _F1}     # the denominator of every Laurent polynomial


# ---------------------------------------------------------------------------
# q-combinatorics

def qpow(e) -> Scalar:
    """q**e as a Scalar; e may be any rational with 4e integral."""
    e4 = Fraction(e) * 4
    if e4.denominator != 1:
        raise DomainError(f"q**({e}) is not a monomial in v")
    return Scalar.v_power(int(e4))


def qint(n) -> Scalar:
    """The quantum integer [n] = (q^n - q^-n)/(q - q^-1), 2n integral."""
    n = Fraction(n)
    if (2 * n).denominator != 1:
        raise DomainError(f"[{n}] needs 2n integral")
    if n == 0:
        return ZERO
    return (qpow(n) - qpow(-n)) / (qpow(1) - qpow(-1))


def qint_base(n: int, c) -> Scalar:
    """[n] computed in base q^c, i.e. (q^{cn} - q^{-cn})/(q^c - q^{-c})."""
    c = Fraction(c)
    if n == 0:
        return ZERO
    return (qpow(c * n) - qpow(-c * n)) / (qpow(c) - qpow(-c))


def curly(i) -> Scalar:
    """The symmetric bracket {i} = q^i + q^-i, 2i integral."""
    i = Fraction(i)
    if (2 * i).denominator != 1:
        raise DomainError(f"{{{i}}} needs 2i integral")
    return qpow(i) + qpow(-i)


def qfact(n: int) -> Scalar:
    if n < 0:
        raise DomainError("negative factorial")
    out = ONE
    for j in range(2, n + 1):
        out = out * qint(j)
    return out


def qbinom(n: int, m: int) -> Scalar:
    if not (0 <= m <= n):
        raise DomainError(f"qbinom({n},{m}) out of range")
    m = min(m, n - m)
    out = ONE
    for j in range(1, m + 1):
        out = out * qint(n - m + j) / qint(j)
    return out


def qbinom_base(n: int, m: int, c) -> Scalar:
    if not (0 <= m <= n):
        raise DomainError(f"qbinom({n},{m}) out of range")
    m = min(m, n - m)
    out = ONE
    for j in range(1, m + 1):
        out = out * qint_base(n - m + j, c) / qint_base(j, c)
    return out


# ---------------------------------------------------------------------------
# evaluation points and radical extensions

def _nth_root(x: Fraction, n: int) -> Fraction | None:
    """Exact positive n-th root of a positive rational, or None."""
    if x <= 0:
        return None

    def iroot(a: int) -> int | None:
        if n == 2:
            r = isqrt(a)
            return r if r * r == a else None
        r = isqrt(isqrt(a))
        for cand in (r - 1, r, r + 1):
            if cand >= 0 and cand ** n == a:
                return cand
        return None

    p = iroot(x.numerator)
    if p is None:
        return None
    q = iroot(x.denominator)
    if q is None:
        return None
    return Fraction(p, q)


@dataclass(frozen=True)
class EvalPoint:
    """An exact specialization q -> q0 of the formal parameter.

    ``degree`` is the degree of the field in which v = q0**(1/4) lives (1, 2
    or 4) and ``radicand`` the defining constant: gen**degree = radicand with
    gen playing the role of v.

    Like :data:`SYMBOLIC` and :data:`CLASSICAL`, a point is a specialization:
    ``of`` maps a Scalar to its value and ``one`` is the unit (a Fraction,
    which :class:`Ext` arithmetic coerces).
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
        t = _nth_root(q0, 4)
        if t is not None:
            return EvalPoint(q0, 1, t)
        s = _nth_root(q0, 2)
        if s is not None:
            return EvalPoint(q0, 2, s)
        return EvalPoint(q0, 4, q0)

    @staticmethod
    def from_v(v0) -> "EvalPoint":
        v0 = Fraction(v0)
        if v0 in (0, 1, -1):
            raise DomainError(f"v0 = {v0} is excluded")
        return EvalPoint(v0 ** 4, 1, v0)

    def of(self, s: Scalar):
        """The value of ``s`` at this point (see :func:`eval_scalar`)."""
        return eval_scalar(s, self)


class Ext:
    """An element of Q[x]/(x^d - c), coefficients as Fractions."""

    __slots__ = ("point", "coeffs")

    def __init__(self, point: EvalPoint, coeffs: tuple[Fraction, ...]):
        assert len(coeffs) == point.degree
        self.point = point
        self.coeffs = coeffs

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def _coerce(self, other):
        if isinstance(other, Ext):
            if other.point != self.point:
                raise DomainError("mixing elements of different extensions")
            return other
        if isinstance(other, (int, Fraction)):
            fr = Fraction(other)
            d = self.point.degree
            return Ext(self.point, (fr,) + (_F0,) * (d - 1))
        return NotImplemented

    def __neg__(self):
        return Ext(self.point, tuple(-c for c in self.coeffs))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Ext(self.point, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Ext(self.point, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self.point.degree
        c = self.point.radicand
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
        return Ext(self.point, tuple(out))

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        d = self.point.degree
        minpoly = [-self.point.radicand] + [_F0] * (d - 1) + [_F1]
        g, u = _pxgcd(_ptrim(list(self.coeffs)), minpoly)
        if len(g) != 1:
            raise DomainError(f"x^{d} - {self.point.radicand} is reducible")
        u = _pdivmod(u, minpoly)[1] if len(u) > d else u
        coeffs = tuple((u[i] if i < len(u) else _F0) / g[0] for i in range(d))
        return Ext(self.point, coeffs)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __repr__(self):
        return f"Ext{self.coeffs}"


def eval_scalar(s: Scalar, p: EvalPoint):
    """Evaluate a Scalar at an EvalPoint.

    Returns a plain Fraction whenever the value is rational (always the case
    for degree-1 points), otherwise an :class:`Ext` element.  Raises
    :class:`PoleError` when the denominator vanishes at the point.
    """
    if p.degree == 1:
        v0 = p.radicand
        num = sum((c * v0 ** e for e, c in s.numerator_items()), _F0)
        den = sum((c * v0 ** e for e, c in s.denominator_items()), _F0)
        if not den:
            raise PoleError(f"pole at q0 = {p.q0}")
        return num / den

    def lift(items) -> Ext:
        d, c = p.degree, p.radicand
        acc = [_F0] * d
        for e, coef in items:
            acc[e % d] += coef * c ** (e // d)
        return Ext(p, tuple(acc))

    den = lift(s.denominator_items())
    if not den:
        raise PoleError(f"pole at q0 = {p.q0}")
    val = lift(s.numerator_items()) / den
    if not any(val.coeffs[1:]):
        return val.coeffs[0]
    return val


def eval_at_one(s: Scalar) -> Fraction:
    """The classical limit v = 1 (hence q = 1); PoleError on 0/0."""
    return s.subs_v(_F1)


class _Symbolic:
    """Generic q: arithmetic stays in Q(v)."""

    one = ONE

    @staticmethod
    def of(s: Scalar) -> Scalar:
        return s


class _Classical:
    """The classical point q = 1 (v = 1), where values lie in Q."""

    one = _F1

    @staticmethod
    def of(s: Scalar) -> Fraction:
        return eval_at_one(s)


SYMBOLIC = _Symbolic()
CLASSICAL = _Classical()

# Where arithmetic happens: SYMBOLIC, CLASSICAL or an exact EvalPoint.
Specialization = EvalPoint | _Symbolic | _Classical


# ---------------------------------------------------------------------------
# Gaussian rationals (for the classical spectrum layer)

class Gaussian:
    """a + b*i with rational a, b; a field, exact."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __neg__(self):
        return Gaussian(-self.re, -self.im)

    def __add__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return Gaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return Gaussian(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return Gaussian(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if not n:
            raise ZeroDivisionError("division by zero Gaussian")
        return Gaussian((self.re * other.re + self.im * other.im) / n,
                        (self.im * other.re - self.re * other.im) / n)

    def __rtruediv__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if n < 0:
            return (Gaussian(1) / self) ** (-n)
        out = Gaussian(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __repr__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        return f"({self.re}{'+' if self.im > 0 else ''}{self.im}i)"


def _as_gaussian(x):
    if isinstance(x, Gaussian):
        return x
    if isinstance(x, (int, Fraction)):
        return Gaussian(x)
    return NotImplemented


I_GAUSS = Gaussian(0, 1)


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


def _q_poly(items: list[tuple[int, Fraction]]) -> str:
    if not items:
        return "0"
    parts = []
    for e, c in sorted(items, reverse=True):
        t = _q_term(e, c)
        if parts and not t.startswith("-"):
            parts.append("+" + t)
        else:
            parts.append(t)
    return "".join(parts)


def render_q(s: Scalar) -> str:
    num = _q_poly(s.numerator_items())
    if s.is_laurent_polynomial:
        return num
    return f"({num})/({_q_poly(s.denominator_items())})"
