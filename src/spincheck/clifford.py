"""Euclidean Clifford algebras on bitmask monomials.

The Clifford algebra Cl(M) here has generators e_1, ..., e_M subject to

    e_i e_j + e_j e_i = 2 delta_ij    (so e_i**2 = 1).

A basis monomial e_{i_1} e_{i_2} ... e_{i_r} with i_1 < ... < i_r is encoded
as the bitmask with bit (i_j - 1) set; the generator index convention is
1-based in all public signatures, matching the usual mathematical notation,
while bit positions are 0-based.  A :class:`CliffordElement` is a dict from
bitmask to coefficient.  Coefficients are duck-typed; plain
:class:`fractions.Fraction` is the default.  Where complexified spectra
appear, values lie in the Gaussian rationals Q(i), an
:class:`~spincheck.scalar.Ext` over :data:`~spincheck.scalar.GAUSSIAN`.
Polynomials are ascending coefficient tuples, evaluated by :func:`horner`.

The sign of a monomial product is computed by inversion counting: to merge
e_B into e_A, each generator t of B must move past every generator of A with
larger index, and coincident generators square to one.  Both facts together
give sign(A, B) = prod over set bits t of B of (-1)**popcount(A >> (t+1)),
with the product mask A xor B.

On top of the plain algebra this module builds:

- volume elements f_m = e_1 ... e_m and the slotwise embeddings of l tensor
  factors Cl(N) into Cl(Nl), dressed by volume elements so that images of
  distinct factors commute;
- the quadratic elements C_rs = (1/2) sum_i e_{(r-1)N+i} e_{(s-1)N+i}
  (with the last summand dropped in the primed variant) and the bracket
  relations that make them a family of orthogonal-type generators;
- the commuting family y_i = e_i e_{N+i} inside Cl(2N), the symmetrized
  elementary products built from it, their three-term recursion and the
  annihilating polynomial with purely imaginary integer spectrum; and
- the classical (undeformed) eigenvector check for the corresponding
  (N+1)-dimensional raising/lowering pair.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import DomainError
from .linalg import SparseMat
from .report import VerificationReport
from .scalar import GAUSSIAN, Ext, _pmul

_F0 = Fraction(0)
_F1 = Fraction(1)
_HALF = Fraction(1, 2)


def _monomial_sign(a: int, b: int) -> int:
    """Parity sign of merging monomial b into monomial a (Euclidean)."""
    count = 0
    bb = b
    while bb:
        t = (bb & -bb).bit_length() - 1
        count += (a >> (t + 1)).bit_count()
        bb &= bb - 1
    return -1 if count & 1 else 1


class CliffordElement:
    """An element of Cl(M) as {bitmask: coefficient}."""

    __slots__ = ("ambient", "terms")

    def __init__(self, ambient: int, terms: dict[int, Fraction] | None = None):
        if ambient < 0:
            raise DomainError(f"ambient dimension {ambient} is negative")
        self.ambient = ambient
        self.terms = {m: c for m, c in (terms or {}).items() if c}
        if self.terms and max(self.terms) >= (1 << ambient):
            raise DomainError(f"monomial outside Cl({ambient})")

    @staticmethod
    def zero(ambient: int) -> "CliffordElement":
        return CliffordElement(ambient)

    @staticmethod
    def one(ambient: int) -> "CliffordElement":
        return CliffordElement(ambient, {0: _F1})

    @staticmethod
    def generator(i: int, ambient: int) -> "CliffordElement":
        """e_i (1-based)."""
        if not 1 <= i <= ambient:
            raise DomainError(f"generator e_{i} outside Cl({ambient})")
        return CliffordElement(ambient, {1 << (i - 1): _F1})

    @staticmethod
    def monomial(indices: tuple[int, ...], ambient: int, coeff=_F1) -> "CliffordElement":
        """e_{i_1} ... e_{i_r} for strictly increasing 1-based indices."""
        mask = 0
        for i in indices:
            if not 1 <= i <= ambient:
                raise DomainError(f"index {i} outside Cl({ambient})")
            bit = 1 << (i - 1)
            if mask >= bit:
                raise DomainError(f"indices {indices} must strictly increase")
            mask |= bit
        return CliffordElement(ambient, {mask: coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return self.ambient == other.ambient and self.terms == other.terms

    def __neg__(self) -> "CliffordElement":
        return CliffordElement(self.ambient, {m: -c for m, c in self.terms.items()})

    def __add__(self, other: "CliffordElement") -> "CliffordElement":
        if self.ambient != other.ambient:
            raise DomainError(f"adding elements of Cl({self.ambient}) and "
                              f"Cl({other.ambient})")
        out = dict(self.terms)
        for m, c in other.terms.items():
            cur = out.get(m)
            new = c if cur is None else cur + c
            if new:
                out[m] = new
            elif cur is not None:
                del out[m]
        return CliffordElement(self.ambient, out)

    def __sub__(self, other: "CliffordElement") -> "CliffordElement":
        return self + (-other)

    def scale(self, c) -> "CliffordElement":
        return CliffordElement(self.ambient, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, CliffordElement):
            return cl_mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        # scalar * element; element * element never dispatches here
        return self.scale(other)

    def commutator(self, other: "CliffordElement") -> "CliffordElement":
        return cl_mul(self, other) - cl_mul(other, self)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"

        def mono(m: int) -> str:
            if m == 0:
                return "1"
            return "".join(f"e{t + 1}" for t in range(m.bit_length()) if m >> t & 1)

        return " + ".join(f"{c}*{mono(m)}" for m, c in sorted(self.terms.items()))


def cl_mul(a: CliffordElement, b: CliffordElement) -> CliffordElement:
    """Product in Cl(M); both factors must share the ambient size."""
    if a.ambient != b.ambient:
        raise DomainError(f"ambient mismatch Cl({a.ambient}) vs Cl({b.ambient})")
    acc: dict[int, Fraction] = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            c = ca * cb
            if _monomial_sign(ma, mb) < 0:
                c = -c
            m = ma ^ mb
            cur = acc.get(m)
            new = c if cur is None else cur + c
            if new:
                acc[m] = new
            elif cur is not None:
                del acc[m]
    return CliffordElement(a.ambient, acc)


def volume_element(m: int, M: int) -> CliffordElement:
    """f_m = e_1 e_2 ... e_m inside Cl(M); f_0 = 1."""
    if not 0 <= m <= M:
        raise DomainError(f"volume element f_{m} outside Cl({M})")
    return CliffordElement(M, {(1 << m) - 1: _F1})


def phi_embed(j: int, x: CliffordElement, N: int, l: int) -> CliffordElement:
    """Image of tensor factor number j (1-based) of Cl(N)^{otimes l} in Cl(Nl).

    The generator e_i of the j-th factor maps to d_j * e_{(j-1)N + i} where
    the dressing d_j is the volume element f_{(j-1)N} for odd j and f_{jN}
    for even j; the map extends multiplicatively on monomials (factors taken
    in increasing generator order) and linearly.  Images of distinct factors
    commute, which is the point of the dressing.
    """
    if not 1 <= j <= l:
        raise DomainError(f"factor index {j} outside 1..{l}")
    if x.ambient != N:
        raise DomainError(f"element lives in Cl({x.ambient}), expected Cl({N})")
    M = N * l
    fm = (j - 1) * N if j % 2 == 1 else j * N
    dressing = volume_element(fm, M)
    gen_images: dict[int, CliffordElement] = {}

    def image_of_bit(t: int) -> CliffordElement:
        if t not in gen_images:
            e_big = CliffordElement.generator((j - 1) * N + t + 1, M)
            gen_images[t] = cl_mul(dressing, e_big)
        return gen_images[t]

    out = CliffordElement.zero(M)
    for mask, coeff in x.terms.items():
        img = CliffordElement.one(M)
        t = 0
        mm = mask
        while mm:
            if mm & 1:
                img = cl_mul(img, image_of_bit(t))
            mm >>= 1
            t += 1
        out = out + img.scale(coeff)
    return out


def c_rs(N: int, l: int, r: int, s: int, primed: bool = False) -> CliffordElement:
    """C_rs = (1/2) sum_{i=1}^{N} e_{(r-1)N+i} e_{(s-1)N+i} in Cl(Nl).

    The primed variant sums only to N-1 and therefore needs N >= 2.
    """
    if not (1 <= r <= l and 1 <= s <= l and r != s):
        raise DomainError(f"need distinct slot indices in 1..{l}, got ({r},{s})")
    top = N - 1 if primed else N
    if primed and N < 2:
        raise DomainError("primed elements need N >= 2")
    M = N * l
    acc = CliffordElement.zero(M)
    for i in range(1, top + 1):
        a = CliffordElement.generator((r - 1) * N + i, M)
        b = CliffordElement.generator((s - 1) * N + i, M)
        acc = acc + cl_mul(a, b)
    return acc.scale(_HALF)


def _c_signed(N: int, l: int, a: int, b: int, primed: bool) -> CliffordElement:
    """Antisymmetric extension: C_ab for a < b, -C_ba for a > b."""
    if a < b:
        return c_rs(N, l, a, b, primed)
    return -c_rs(N, l, b, a, primed)


def verify_so_relations(N: int, l: int, primed: bool = False) -> VerificationReport:
    """Check the orthogonal-type bracket relations of the quadratic family.

    For all admissible index pairs: elements on disjoint slot pairs commute,
    and [C_ab, C_bc] = C_ac for distinct a, b, c (with the antisymmetric
    convention C_ba = -C_ab).
    """
    rep = VerificationReport(
        "so_relations", {"N": N, "l": l, "primed": primed})
    if primed and N < 2:
        raise DomainError("primed elements need N >= 2")
    pairs = list(combinations(range(1, l + 1), 2))
    elements = {(r, s): c_rs(N, l, r, s, primed) for r, s in pairs}

    def check_disjoint():
        for (r, s), (p, q) in combinations(pairs, 2):
            if {r, s} & {p, q}:
                continue
            comm = elements[(r, s)].commutator(elements[(p, q)])
            if comm:
                return f"[C_{r}{s}, C_{p}{q}] != 0"
        return True

    def check_triples():
        for a in range(1, l + 1):
            for b in range(1, l + 1):
                for c in range(1, l + 1):
                    if len({a, b, c}) < 3:
                        continue
                    lhs = _c_signed(N, l, a, b, primed).commutator(
                        _c_signed(N, l, b, c, primed))
                    rhs = _c_signed(N, l, a, c, primed)
                    if lhs != rhs:
                        return f"[C_{a}{b}, C_{b}{c}] != C_{a}{c}"
        return True

    rep.record("disjoint_pairs_commute", check_disjoint)
    rep.record("bracket_triples", check_triples)
    return rep


# ---------------------------------------------------------------------------
# the commuting family and its annihilating polynomial

def horner(coeffs, x, one):
    """The polynomial with ascending ``coeffs`` at ``x``; ``one`` is the unit
    of x's ring.

    Works for any ring with + and * where ``coeff * one`` makes sense
    (Fraction, Ext, CliffordElement, SparseMat).
    """
    if not coeffs:
        return 0 * one
    acc = coeffs[-1] * one
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c * one
    return acc


def p_poly(N: int, m: int) -> tuple[Fraction, ...]:
    """The three-term family P_0 = 1, P_1 = x,
    P_{m+1} = x P_m + m(N+1-m) P_{m-1}, as ascending coefficients."""
    if m < 0:
        raise DomainError("polynomial index must be nonnegative")
    prev = [_F1]           # P_0
    if m == 0:
        return tuple(prev)
    cur = [_F0, _F1]       # P_1 = x
    for j in range(1, m):
        factor = Fraction(j * (N + 1 - j))
        nxt = [_F0] + cur                      # x * P_j
        for i, c in enumerate(prev):
            nxt[i] += factor * c               # + j(N+1-j) P_{j-1}
        prev, cur = cur, nxt
    return tuple(cur)


def pair_element(i: int, N: int) -> CliffordElement:
    """y_i = e_i e_{N+i} in Cl(2N); these square to -1 and commute pairwise."""
    if not 1 <= i <= N:
        raise DomainError(f"pair index {i} outside 1..{N}")
    return CliffordElement(2 * N, {(1 << (i - 1)) | (1 << (N + i - 1)): _F1})


def c_tilde(N: int, m: int) -> CliffordElement:
    """The symmetrized elementary product m! * sum_{i_1<...<i_m} y_{i_1}...y_{i_m}.

    Lives in Cl(2N).  Index m ranges over 0..N+1; the value at m = N+1 is 0
    (there is no (N+1)-subset of N pairs), which is exactly the annihilation
    statement for the degree-(N+1) member of the polynomial family.
    """
    if not 0 <= m <= N + 1:
        raise DomainError(f"order {m} outside 0..{N + 1}")
    fact = Fraction(1)
    for j in range(2, m + 1):
        fact *= j
    acc = CliffordElement.zero(2 * N)
    for subset in combinations(range(1, N + 1), m):
        prod = CliffordElement.one(2 * N)
        for i in subset:
            prod = cl_mul(prod, pair_element(i, N))
        acc = acc + prod
    return acc.scale(fact)


def commuting_family_check(N: int) -> VerificationReport:
    """The product recursion and annihilating polynomial of the C~ family.

    Checks that C~_m = P_m(N, C~_1) for 0 <= m <= N+1 (in particular
    P_{N+1}(N, C~_1) = 0, since there is no (N+1)-subset of pairs), and the
    three-term product recursion

        C~_1 C~_m = C~_{m+1} - m(N+1-m) C~_{m-1} .

    The minus sign is forced by y_i^2 = -1 for the paired generators; a
    companion check records that the plus-sign variant genuinely fails.
    """
    rep = VerificationReport("commuting_family", {"N": N})
    one = CliffordElement.one(2 * N)
    family = [c_tilde(N, m) for m in range(N + 2)]
    c1 = family[1]

    def check_realization():
        for m, cm in enumerate(family):
            if horner(p_poly(N, m), c1, one) != cm:
                return f"C~_{m} differs from P_{m}(N, C~_1)"
        return True

    rep.record("polynomial_realization", check_realization)
    rep.record("annihilating_polynomial",
               lambda: (not horner(p_poly(N, N + 1), c1, one))
               or "P_{N+1}(N, C~_1) != 0")

    def check_recursion():
        for m in range(1, N + 1):
            coeff = Fraction(m * (N + 1 - m))
            want = family[m + 1] - family[m - 1].scale(coeff)
            if cl_mul(c1, family[m]) != want:
                return f"recursion fails at m = {m}"
        return True

    rep.record("product_recursion", check_recursion)

    def check_plus_variant():
        for m in range(1, N + 1):
            coeff = Fraction(m * (N + 1 - m))
            if cl_mul(c1, family[m]) == family[m + 1] + family[m - 1].scale(coeff):
                return f"plus-sign variant unexpectedly holds at m = {m}"
        return True

    rep.record("plus_variant_fails", check_plus_variant)
    return rep


# ---------------------------------------------------------------------------
# classical eigenvector check for the (N+1)-dimensional raising/lowering pair

def lowering_raising_pair(N: int) -> tuple[SparseMat, SparseMat]:
    """Rational matrices E, F on an (N+1)-dimensional space:

        E v_r = (N - r + 1) v_{r-1},    F v_r = (r + 1) v_{r+1},

    0-indexed basis v_0..v_N.  E - F has spectrum {(N - 2r) i}.
    """
    E = SparseMat(N + 1, N + 1)
    F = SparseMat(N + 1, N + 1)
    for i in range(N):
        E.set_entry(i, i + 1, Fraction(N - i))
        F.set_entry(i + 1, i, Fraction(i + 1))
    return E, F


def classical_spectrum_check(N: int) -> VerificationReport:
    """Verify the eigenvector formulas for E - F at the undeformed level.

    Checks, for every eigenvalue lambda = (N - 2r) i with 0 <= r <= N:

    - the right eigenvector x(lambda)_s = (N-s)! P_s(N, lambda) / N!
      satisfies (E - F) x = lambda x;
    - the row vector y(lambda)_s = P_s(N, lambda) / s! satisfies
      y^T (E - F) = -lambda y^T (note the sign: y(lambda) is a left
      eigenvector for the opposite eigenvalue);
    - P_{N+1}(N, -) annihilates E - F, and its Gaussian roots are exactly
      {(N - 2r) i}.
    """
    rep = VerificationReport("classical_spectrum", {"N": N})
    E, F = lowering_raising_pair(N)
    A = E - F
    lambdas = [(N - 2 * r) * Ext(GAUSSIAN, (_F0, _F1)) for r in range(N + 1)]
    fact = [Fraction(1)]
    for j in range(1, N + 1):
        fact.append(fact[-1] * j)
    polys = [p_poly(N, s) for s in range(N + 2)]

    def check_right():
        for lam in lambdas:
            x = {s: (fact[N - s] * horner(polys[s], lam, _F1)) / fact[N]
                 for s in range(N + 1)}
            Ax = A.apply_to({s: v for s, v in x.items() if v})
            want = {s: lam * v for s, v in x.items() if lam * v}
            if Ax != want:
                return f"(E-F) x != lambda x at lambda = {lam.coeffs[1]}i"
        return True

    def check_left():
        At = A.transpose()
        for lam in lambdas:
            y = {s: horner(polys[s], lam, _F1) / fact[s] for s in range(N + 1)}
            yA = At.apply_to({s: v for s, v in y.items() if v})
            want = {s: -lam * v for s, v in y.items() if lam * v}
            if yA != want:
                return f"y^T (E-F) != -lambda y^T at lambda = {lam.coeffs[1]}i"
        return True

    def check_annihilation():
        img = horner(polys[N + 1], A, SparseMat.identity(N + 1, _F1))
        return img.is_zero() or "P_{N+1}(N, E-F) != 0"

    def check_roots():
        expanded = [_F1]
        for lam in lambdas:
            expanded = _pmul(expanded, [-lam, _F1])
        return (expanded == list(polys[N + 1])
                or "root product differs from P_{N+1}")

    rep.record("right_eigenvectors", check_right)
    rep.record("left_eigenvectors_negated", check_left)
    rep.record("annihilating_polynomial", check_annihilation)
    rep.record("gaussian_root_set", check_roots)
    return rep
