"""The explicit invariant operator on twofold spin tensor products.

The operator C acts on S ox S by flipping one coordinate pair at a time:

    C(v_mu ox v_nu) = sum_j delta(mu_j, -nu_j) (-q)^{(nu-mu)_{j-1}}
                      v_{flip_j mu} ox v_{flip_j nu} ,

where (gamma)_{j-1} is the partial sum of the first j-1 coordinates of gamma.
This is the even (type D_k) form; the odd (type B_k) operator lives on the
doubled module and has one extra term j = k+1 with no delta condition, which
flips the invisible coordinate in both slots and carries the coefficient
(-q)^{(nu-mu)_k} / (q^{1/2} + q^{-1/2}) -- the same partial-sum pattern
continued one step past the visible coordinates.

C commutes with the quantum-group action on S ox S (including the flip
t ox t), is symmetric, preserves weights, and has the small spectrum
[k], [k-1], ..., [-k] (even) or the half-integer spectrum [j + 1/2],
-k-1 <= j <= k (odd).  Embedding C into adjacent slots of higher tensor
powers produces a generating family C_1, ..., C_{n-1} for the commutant,
which this module verifies three ways: coideal-type relations among the C_i,
spectral data (annihilating products, minimality, eigenprojection traces
against quantum dimensions, the explicit extreme eigenvector), and a
dimension count comparing the algebra generated by the C_i against an
independently computed commutant dimension and against the branching
combinatorics.

Everything is exact.  The commutators of ``verify_commutation`` and of the
duality inclusion test, the eigenprojection identities of
``spectrum_check``, the relations of ``verify_coideal``, the characteristic
polynomial and extreme projection of ``third_power_profile`` and the trace
identity of ``markov_property_check`` hold over Q(v), and are decided with
plain ints at one integer point past an a-priori coefficient bound, where
an integer polynomial vanishes only if it is zero: an
:class:`~spincheck.scalar.IntPoint` from :func:`_zero_test_point`, whose
``of`` reads every value.  The spectrum and the third power share one
chain of eigenprojections, :func:`_eigenprojections`.  At a rational point,
``verify_coideal`` proves its nonzero claims mod a large prime.  The
duality counts are proved mod a large prime too, once that inclusion test
has put the generators into the commutant.  Each falls back to exact point
arithmetic when the cheap test proves nothing.  The other checks run over
Q(v).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial, reduce
from itertools import (accumulate, chain, combinations,
                       combinations_with_replacement, product)
from math import comb, gcd, prod
from operator import mul
from typing import Callable, NamedTuple

from .errors import DomainError, PoleError, SizeGuardError
from .linalg import RowReducer, SparseMat, kernel_basis, reduced_kernel
from .qspin import GeneratorAction, block_lift, spin_rep, tensor_action
from .report import VerificationReport
from .scalar import (CLASSICAL, ONE, SYMBOLIC, ZERO, EvalPoint, IntPoint,
                     ModPoint, Scalar, Specialization, _lmul,
                     certificate_prime, curly, qbinom, qint, qpow)
from .weights import (RootData, bratteli, centralizer_dims, inner,
                      module_weights, one_column_label, qdimension,
                      qtrace, slot_exponents, spin_label)

_F0 = Fraction(0)
_F1 = Fraction(1)
_HALF = Fraction(1, 2)

MAX_SYMBOLIC_DIM = 256      # largest S ox S that spectrum_check admits
MAX_POINT_DIM = 4096        # largest dimension handled at an evaluation point
MAX_ORACLE_UNKNOWNS = 2048  # largest C(2n, n)^k that verify_duality admits


def _neg_q_pow(m: int) -> Scalar:
    """(-q)^m for integer m."""
    s = qpow(m)
    return -s if m % 2 else s


@dataclass
class InvariantElement:
    """C on S ox S: parity 'even' (type D_k, module dim 2^k) or 'odd'
    (type B_k, doubled module dim 2^{k+1}).  ``mat`` is (dim^2 x dim^2)
    over Q(v), columns and rows indexed by a*dim + b for the basis pair
    (a, b)."""

    parity: str
    k: int
    rd: RootData
    dim: int
    mat: SparseMat

    def eigenvalues(self) -> list[Scalar]:
        """The full candidate spectrum, largest first."""
        if self.parity == "even":
            return [qint(j) for j in range(self.k, -self.k - 1, -1)]
        return [qint(Fraction(2 * j + 1, 2))
                for j in range(self.k, -self.k - 2, -1)]

    def eigen_label_heights(self) -> list[int]:
        """Even parity: the column height r of the label attached to each
        eigenvalue, ordered like :meth:`eigenvalues`.

        The correspondence alternates: the [1^r] summand of S ox S carries
        eigenvalue (-1)^r [k - r], so eigenvalue position i (value [k - i])
        maps to height i for even i and to 2k - i for odd i.  The flip
        operator t ox t acting on each eigenprojection image confirms this
        empirically: all heights r < k share one t-sign and all r > k the
        opposite (see ``spectrum_check``), which the monotone assignment
        r = i would violate.
        """
        if self.parity != "even":
            raise DomainError("label correspondence is stated for even parity")
        return [i if i % 2 == 0 else 2 * self.k - i
                for i in range(2 * self.k + 1)]

    def eigen_labels(self):
        """Even parity: the one-column label attached to each eigenvalue,
        ordered like :meth:`eigenvalues`."""
        return [one_column_label(self.rd, r) for r in self.eigen_label_heights()]


def build_c(k: int, parity: str) -> InvariantElement:
    """The invariant operator on S ox S: parity 'even' for type D_k, 'odd'
    for type B_k on the doubled module.

    One flip loop serves both: sign vectors have K coordinates (K = k even,
    k + 1 odd) and terms j = 1..k flip the visible ones.  The odd operator
    adds the term that flips the invisible coordinate of both slots and
    divides the continued coefficient by q^{1/2} + q^{-1/2}.
    """
    if parity not in ("even", "odd"):
        raise DomainError(f"parity must be 'even' or 'odd', got {parity!r}")
    if k < 1:
        raise DomainError("rank must be at least 1")
    odd = parity == "odd"
    K = k + 1 if odd else k
    d = 1 << K
    inv2 = qint(_HALF) if odd else None
    mat = SparseMat(d * d, d * d)
    for a in range(d):
        for b in range(d):
            col = a * d + b
            prefix = 0  # partial sum of (nu - mu): bit_a - bit_b so far
            for j in range(1, k + 1):
                bit = 1 << (K - j)
                abit = (a >> (K - j)) & 1
                bbit = (b >> (K - j)) & 1
                if abit != bbit:
                    row = (a ^ bit) * d + (b ^ bit)
                    mat.add_to(row, col, _neg_q_pow(prefix))
                prefix += abit - bbit
            if odd:
                # invisible flip, no delta condition
                row = (a ^ 1) * d + (b ^ 1)
                mat.add_to(row, col, _neg_q_pow(prefix) * inv2)
    return InvariantElement(parity, k, RootData("B" if odd else "D", k), d,
                            mat)


def build_c_even(k: int) -> InvariantElement:
    """The invariant operator on S ox S for type D_k."""
    return build_c(k, "even")


def build_c_odd(k: int) -> InvariantElement:
    """The invariant operator on the doubled module for type B_k."""
    return build_c(k, "odd")


def generator_action_for(c: InvariantElement) -> GeneratorAction:
    return spin_rep(c.rd, odd_doubled=(c.parity == "odd"))


# ---------------------------------------------------------------------------
# embedding into tensor powers

def embed_pair_operator(mat: SparseMat, d: int, i: int, n: int,
                        basis: list[int] | None = None) -> SparseMat:
    """Embed a two-slot operator (d^2 x d^2) into slots (i, i+1) of d^{ox n}.

    Only the columns of ``basis`` (default: every index; else weight
    blocks, which a weight-preserving ``mat`` keeps) are built, as
    ``tensor_action(..., columns=)`` does, and the result is the embedded
    operator taken :func:`_on_basis`: rows and columns indexed by position
    in ``basis``.  DomainError when a column leaves span(basis)."""
    if not 1 <= i <= n - 1:
        raise DomainError(f"slot {i} outside 1..{n - 1}")
    if mat.nrows != d * d or mat.ncols != d * d:
        raise DomainError(f"pair operator is {mat.nrows}x{mat.ncols}, "
                          f"not {d * d}x{d * d}")
    post = d ** (n - i - 1)
    # index u = (p d^2 + pc) post + s: the pair operator's column pc sends
    # it to u + (pr - pc) post
    if basis is None:
        basis = range(d ** n)
    cols = mat.transpose().rows
    pos = {u: p for p, u in enumerate(basis)}
    out = SparseMat(len(basis), len(basis))
    for p, u in enumerate(basis):
        pc = u // post % (d * d)
        for pr, val in cols.get(pc, {}).items():
            r = pos.get(u + (pr - pc) * post)
            if r is None:
                raise DomainError("operator leaves the span of the basis")
            out.set_entry(r, p, val)
    return out


def _embedded_family(mat: SparseMat, d: int, n: int, of: Callable,
                     basis: list[int] | None = None) -> list[SparseMat]:
    """A Q(v) pair operator on d-dimensional slots, its values mapped once
    by ``of`` (such as ``at.of``) and embedded into slots (i, i+1) of the
    n-th tensor power for i = 1..n-1: the family C_1, ..., C_{n-1} when
    ``mat`` is C.  With ``basis``, each member is built on it alone
    (:func:`embed_pair_operator`)."""
    mat = mat.map_values(of)
    return [embed_pair_operator(mat, d, i, n, basis) for i in range(1, n)]


def _on_basis(mat: SparseMat, basis: list[int],
              image: list[int] | None = None) -> SparseMat | None:
    """``mat`` from span(basis) to span(image) (default: ``basis``), rows
    indexed by position in ``image`` and columns by position in ``basis``;
    None when it maps a basis vector out of span(image)."""
    pos = {u: p for p, u in enumerate(basis)}
    to = pos if image is None else {u: p for p, u in enumerate(image)}
    out = SparseMat(len(to), len(basis))
    for r, row in mat.rows.items():
        for u, x in row.items():
            if u in pos:
                if r not in to:
                    return None
                out.set_entry(to[r], pos[u], x)
    return out


def _block_square(c: InvariantElement) -> SparseMat:
    """For odd parity: s^2 C^2 on V_00, the even-parity block of both
    slots, as B A, s = (q + 1) v^E from :func:`_clearing`.  C swaps slot
    parities: A, sC from V_00 to V_11, and B, back, have Laurent entries.
    DomainError when C leaves the swap."""
    if c.parity != "odd":
        raise DomainError("block restriction applies to the odd operator")
    lift = [block_lift(x, c.k) for x in range(1 << c.k)]
    even = [a * c.dim + b for a in lift for b in lift]
    odd = [u ^ (c.dim + 1) for u in even]   # flip the invisible bit of both
    mat = _clearing(c.mat).mat
    there, back = _on_basis(mat, even, odd), _on_basis(mat, odd, even)
    if there is None or back is None:
        raise DomainError("operator leaves the block swap")
    return back * there


# ---------------------------------------------------------------------------
# commutation with the quantum group

def verify_commutation(c: InvariantElement, g: GeneratorAction, *,
                       point: EvalPoint | None = None) -> VerificationReport:
    """[C, Delta(X)] = 0 for X among E_i, F_i, K_i, K_i^{1/2}, and t ox t.

    Each commutator is decided over Q(v) by :func:`_commutators_vanish`, with
    plain ints at one integer point.  C has no pole at q0 > 0, so one that
    vanishes over Q(v) vanishes at every point.  At a point, a check that
    fails over Q(v) reruns with exact point values, so the report is the
    same either way."""
    if g.rd != c.rd or g.doubled != (c.parity == "odd"):
        raise DomainError("generator action does not match the operator")
    rep = VerificationReport(
        "commutation",
        {"parity": c.parity, "k": c.k,
         "point": str(point.q0) if isinstance(point, EvalPoint) else "symbolic"})
    gids = []
    for i in range(1, g.nsimple + 1):
        gids += [("E", i), ("F", i), ("K", i), ("Khalf", i)]
    if g.t_perm is not None:
        gids.append(("t", 0))
    verdicts = _commutators_vanish(c.mat,
                                   [tensor_action(g, gid, 2) for gid in gids])
    cmat = cache(lambda: c.mat.map_values(point.of))

    def exact(gid) -> bool:
        return cmat().commutator(tensor_action(g, gid, 2, at=point)).is_zero()

    for gid, zero in zip(gids, verdicts):
        name = f"commutes_{gid[0]}{gid[1] if gid[0] != 't' else ''}"
        rep.record(name, lambda gid=gid, zero=zero: zero
                   or (point is not None and exact(gid))
                   or "nonzero commutator")
    return rep


def _commutators_vanish(mat: SparseMat, actions: list[SparseMat],
                        cleared: _Cleared | None = None) -> list[bool]:
    """Whether [X, G] = 0 over Q(v), for X = ``mat`` and each G of
    ``actions``, decided with plain ints at one integer point.  The entries
    of X lie in Q(v); those of each G are Laurent polynomials with integer
    coefficients, such as the single powers of v of a tensor action.
    ``cleared`` is X from :func:`_clearing` when the caller holds it
    already, with or without its eigenvalues.

    :func:`_clearing` gives s = delta v^E and sX in Z[w]; one power v^F,
    the least that lifts every exponent of every G to 0 or more, lifts every
    G to v^F G, with entries in Z[v] too.  s and v^F are nonzero, so
    [X, G] = 0 exactly when [sX, v^F G] = s v^F [X, G] is, an identity in
    Z[w] for w = v^g, g the gcd of the step of sX and the exponents of the
    lifted G.  The integer coefficients of each entry of G are read once;
    its l1 norm, its lifted exponents and its value at w0 come from them.

    The bound B: with R the largest l1 row sum of sX and E its largest entry
    l1 norm, h the largest entry l1 norm of a lifted G and m the most
    nonzeros in one of its rows, an entry of (sX)(v^F G) sums over c terms
    of l1 norm at most ||sX_ac||_1 h, so at most h R, and an entry of
    (v^F G)(sX) sums at most m terms of l1 norm at most h E.  Each entry of
    the commutator has l1 norm at most B = h (R + m E), and by Cauchy's
    bound (:func:`_zero_test_point`) it vanishes at w0 = B + 2 exactly when
    it is zero."""
    if cleared is None:
        cleared = _clearing(mat)
    # the integer coefficients of each entry of each G, read once
    coeffs = [{r: {col: x.integer_coefficients() for col, x in row.items()}
               for r, row in act.rows.items()} for act in actions]
    polys = [p for act in coeffs for row in act.values() for p in row.values()]
    lift = -min([0, *(e for p in polys for e in p)])     # F
    wide = max((len(row) for act in actions for row in act.rows.values()),
               default=0)
    at = _zero_test_point(
        max((sum(map(abs, p.values())) for p in polys), default=0)
        * (cleared.row + wide * cleared.entry),
        gcd(cleared.g, *(e + lift for p in polys for e in p)))
    w0, g = at.w0, at.g

    def lifted_value(act: dict) -> SparseMat:
        return SparseMat(mat.nrows, mat.ncols, {
            r: {col: sum(c * w0 ** ((e + lift) // g) for e, c in p.items())
                for col, p in row.items()} for r, row in act.items()})

    x = cleared.mat.map_values(at.of)
    return [x * y == y * x for y in map(lifted_value, coeffs)]


# ---------------------------------------------------------------------------
# spectra

def _factor_chain(mat: SparseMat, roots: list,
                  ident: SparseMat) -> list[SparseMat]:
    """The prefix products of (mat - r * I) over ``roots``, multiplied left
    to right: entry i is the product of the factors before the i-th, so
    entry 0 is ``ident``, entry 1 the first factor itself and the last entry
    the full product."""
    return [ident, *accumulate((mat - ident.scale(r) for r in roots), mul)]


def _lagrange_denominator(roots: list[Scalar], i: int) -> Scalar:
    """prod_{j != i} (roots[i] - roots[j]).  The product of (M - r * I)
    over every root but the i-th, divided by it, is the projection onto the
    roots[i]-eigenspace of M."""
    denom = ONE
    for j, r in enumerate(roots):
        if j != i:
            denom = denom * (roots[i] - r)
    return denom


def _l1(s: Scalar) -> int:
    """The sum of the absolute coefficients of s, a Laurent polynomial with
    integer coefficients."""
    return sum(map(abs, s.integer_coefficients().values()))


def _zero_test_point(bound: int, g: int) -> IntPoint:
    """The point w = bound + 2 in w = v^g (g = 1, 2 or 4).  A nonzero
    Laurent polynomial in w with integer coefficients of absolute value at
    most ``bound`` does not vanish there: every root z of an integer
    polynomial with leading coefficient c_d and other coefficients c_i has
    |z| < 1 + max |c_i / c_d| (Cauchy).  Its ``of`` refuses a scalar that is
    no such polynomial."""
    return IntPoint(bound + 2, g)


class _Cleared(NamedTuple):
    """The output of :func:`_clearing`."""

    scale: Scalar           # s = delta * v^E
    mat: SparseMat          # sM
    eigs: list[Scalar]      # s e_i over the eigenvalues e_i of M
    row: int                # R, the largest l1 row sum of sM
    g: int                  # sM and the s e_i lie in Z[w], w = v^g
    entry: int              # the largest l1 norm of an entry of sM


def _lift(values) -> Scalar:
    """v^E for the least E >= 0 that lifts every exponent of ``values``,
    Laurent polynomials with integer coefficients, to 0 or more."""
    low = min((min(x.integer_coefficients(), default=0) for x in values),
              default=0)
    return Scalar.v_power(max(0, -low))


def _w_step(values) -> int:
    """gcd(4, every exponent of ``values``), Laurent polynomials with
    integer coefficients: the largest g in {1, 2, 4} with every value a
    Laurent polynomial in w = v^g."""
    return gcd(4, *(e for x in values for e in x.integer_coefficients()))


def _clearing(mat: SparseMat, eigs: list[Scalar] | tuple = ()) -> _Cleared:
    """s = delta v^E, sM, the s e_i over the eigenvalues e_i of M, R and
    the largest entry l1 norm of sM, and g = gcd(4, every exponent of sM
    and of the s e_i).  delta is the product of the distinct integer
    denominators d of the entries of M and the e_i: with x = n / d
    (:meth:`Scalar.integer_parts`, read once per value), delta x = n times
    the other distinct d's, a Laurent polynomial with integer coefficients
    formed with no gcd.  v^E is the least power that lifts every exponent of
    those to 0 or more, so sM and the s e_i lie in Z[v], and in fact in Z[w]
    for w = v^g.  The integer coefficients of each delta x are read once:
    E, g and both norms come from them, since v^E moves every exponent by E
    and keeps every coefficient."""
    dens: list[Scalar] = []

    def parts(x: Scalar) -> tuple[Scalar, int]:
        num, den = x.integer_parts()
        if den not in dens:
            dens.append(den)
        return num, dens.index(den)

    pmat, peigs = mat.map_values(parts), [parts(e) for e in eigs]
    others = [prod(dens[:i] + dens[i + 1:], start=ONE)
              for i in range(len(dens))]

    def cleared(part: tuple[Scalar, int]) -> Scalar:
        num, i = part   # with one denominator (all of even C), delta x = n
        return num * others[i] if len(dens) > 1 else num

    fmat, feigs = pmat.map_values(cleared), list(map(cleared, peigs))
    rows = [[x.integer_coefficients() for x in r.values()]
            for r in fmat.rows.values()]
    exps = [e for p in chain(*rows, (x.integer_coefficients() for x in feigs))
            for e in p]
    top = max(0, -min(exps, default=0))                               # E
    norms = [[sum(map(abs, p.values())) for p in r] for r in rows]
    lift = Scalar.v_power(top)
    return _Cleared(prod(dens, start=ONE) * lift, fmat.scale(lift),
                    [e * lift for e in feigs], max(map(sum, norms), default=0),
                    gcd(4, *(e + top for e in exps)),
                    max(map(max, norms), default=0))


def _eigenprojections(cleared: _Cleared, count: int, a: int, b: int
                      ) -> tuple[IntPoint, SparseMat, list[SparseMat],
                                 list[int], list[bool]]:
    """The cleared eigenprojections of M, from the output of
    :func:`_clearing`, as plain ints at one integer point: the point, the
    full product of the m factors (sM - s e_j I), and for each i < ``count``
    the product O_i of every factor but the i-th, the Lagrange denominator
    L_i = prod_{j != i} (s e_i - s e_j), and whether O_i^2 = L_i O_i.  The
    projection onto the e_i-eigenspace of M is O_i / L_i.

    O_i is the prefix product over j < i times each sparse factor j > i on
    the right; the full product is the last O_i times its own factor, as
    the factors are polynomials in sM and commute.  With p_i(x) =
    prod_{j != i} (x - s e_j), p_i(x) - L_i vanishes at x = s e_i, so it is
    (x - s e_i) r_i(x) and O_i^2 - L_i O_i = (full product) r_i(sM): the
    dense square O_i O_i is formed only when the full product does not
    vanish.

    The bound: ||(XY)_ab||_1 <= sum_c ||X_ac||_1 ||Y_cb||_1, so a product of
    t matrices with l1 row sums at most F has entries and row sums of l1
    norm at most F^t.  Every factor has row sums at most F = R +
    max_j ||s e_j||_1, R that of sM, so the full product is bounded by F^m,
    each O_i by F^{m-1} and O_i^2 - L_i O_i by F^{m-1} (F^{m-1} + Lambda),
    Lambda = max_i ||L_i||_1.  The caller's own claims on O_i and L_i are
    bounded by a F^{m-1} + b Lambda.  B is the sum of these bounds, and by
    Cauchy's bound (:func:`_zero_test_point`) each identity holds exactly
    when it holds at w0 = B + 2, w = v^g for the g of ``cleared``."""
    ceigs = cleared.eigs
    m = len(ceigs)
    lags = [_lagrange_denominator(ceigs, i) for i in range(count)]
    step = cleared.row + max(map(_l1, ceigs))               # F
    lag, out = max(map(_l1, lags)), step ** (m - 1)         # Lambda, F^{m-1}
    at = _zero_test_point(step ** m + out * (out + lag) + a * out + b * lag,
                          cleared.g)
    ident = SparseMat.identity(cleared.mat.nrows, 1)
    mat = cleared.mat.map_values(at.of)
    factors = [mat - ident.scale(at.of(e)) for e in ceigs]
    prefix = [ident, *accumulate(factors[:count - 1], mul)]
    others = [reduce(mul, factors[i + 1:], prefix[i]) for i in range(count)]
    full = others[-1] * factors[count - 1]
    lags = [at.of(x) for x in lags]
    return at, full, others, lags, [full.is_zero() or o * o == o.scale(lag)
                                    for o, lag in zip(others, lags)]


def spectrum_check(c: InvariantElement) -> VerificationReport:
    """Spectral profile of C on S ox S.

    Checks the annihilating product over the candidate eigenvalues, its
    minimality (every factor is needed), the idempotent partition of unity,
    the extreme eigenvector (even: the weighted sum of v_lambda ox
    v_{-lambda}, in its plain and parity-twisted versions, carrying [k] and
    -[k] between them), the rank of the extreme projection, quantum traces
    of all projections against quantum dimensions of one-column labels
    (even), the block-swap property (odd), and compatibility with freezing
    trailing coordinate pairs to the rank-r operator.

    The eigenprojection identities are decided over plain ints at one
    integer point, from the chain of :func:`_eigenprojections`.  With
    s = delta v^E from :func:`_clearing` (delta = q + 1 at odd parity,
    turning 1/{1/2} into v^2, else 1; v^E the least power lifting every
    exponent of delta C and delta e_i to 0 or more), sC and s e_i lie in
    Z[w], w = v^g with g the gcd of 4 and their exponents (4 at even
    parity, 2 at odd).  With O_i and L_i from there, the projection is
    P_i = O_i / L_i, and each claim is an identity in Z[w^{+-1}]: full
    product = 0, O_i != 0 (minimality), O_i^2 = L_i O_i (idempotence,
    which the full product implies), tr_q(O_i) = dim_q L_i and the t ox t
    sign of a column of O_i (even; q-trace weights and quantum dimensions
    are Laurent polynomials in q = v^4), and tr(O_i) = mult C(N, i) L_i
    (ranks: the rank of an idempotent is its trace).  The partition
    sum_i O_i / L_i = I is Lagrange interpolation of the constant 1 at the
    m distinct s e_i, which holds for every matrix, so
    ``idempotent_partition`` reports the idempotence verdict alone.  With
    n = dim^2 and K the largest of ||dim_q||_1 and mult C(N, i), the trace,
    sign and rank claims have l1 norms at most (n + 2) F^{m-1} + K Lambda
    (t ox t is a permutation): the claim terms a = n + 2 and b = K of the
    bound.

    Raises SizeGuardError when S ox S is larger than MAX_SYMBOLIC_DIM.
    """
    size = c.dim * c.dim
    if size > MAX_SYMBOLIC_DIM:
        # the module has dimension 2^(k + extra), extra = 0 (even) or 1 (odd)
        extra = c.dim.bit_length() - 1 - c.k
        top = (MAX_SYMBOLIC_DIM.bit_length() - 1) // 2 - extra
        raise SizeGuardError(
            f"spectrum check on S ox S of dimension {size} exceeds the size "
            f"bound {MAX_SYMBOLIC_DIM} on S ox S; the largest {c.parity} "
            f"rank accepted is {top}")
    rep = VerificationReport("spectrum", {"parity": c.parity, "k": c.k})
    eigs = c.eigenvalues()
    even = c.parity == "even"
    N = 2 * c.k + (0 if even else 1)
    mult = 1 if even else 2
    labels = c.eigen_labels() if even else []
    qdims = [qdimension(lbl, c.rd) for lbl in labels]
    ranks = [mult * comb(N, i) for i in range(len(eigs))]
    at, full, others, lags, idempotent = _eigenprojections(
        _clearing(c.mat, eigs), len(eigs), size + 2,
        max(ranks + [_l1(q) for q in qdims]))

    rep.record("annihilating_product",
               lambda: full.is_zero() or "product does not vanish")

    def check_minimality():
        for i, other in enumerate(others):
            if other.is_zero():
                return f"factor {i} (eigenvalue {eigs[i]}) is redundant"
        return True

    rep.record("minimality", check_minimality)

    def check_partition():
        # sum_i O_i / L_i = I is Lagrange interpolation: it holds for every
        # matrix once the eigenvalues are distinct
        if False in idempotent:
            return f"projection {idempotent.index(False)} is not idempotent"
        return True

    rep.record("idempotent_partition", check_partition)

    if even:
        k, d = c.k, c.dim
        rho = c.rd.rho()
        eps = c.rd.epsilon()
        wts = module_weights(k)
        full = d - 1

        def extreme_vector(twist: bool) -> dict[int, Scalar]:
            vec = {}
            for a in range(d):
                lam = wts[a]
                e = inner(tuple(x - y for x, y in zip(eps, lam)), rho)
                assert e.denominator == 1
                coeff = _neg_q_pow(int(e))
                if twist and a.bit_count() % 2:
                    coeff = -coeff
                vec[a * d + (a ^ full)] = coeff
            return vec

        def sign_of(twist: bool):
            top = qint(k)
            v = extreme_vector(twist)
            img = c.mat.apply_to(v)
            for cand, name in ((top, "+"), (-top, "-")):
                if img == {i: cand * x for i, x in v.items()}:
                    return name
            return None

        def check_extreme():
            plain, twisted = sign_of(False), sign_of(True)
            if plain is None or twisted is None or plain == twisted:
                return f"resolution failed: plain={plain} twisted={twisted}"
            rep.params["top_eigenvector"] = ("plain" if plain == "+"
                                             else "twisted")
            return True

        rep.record("extreme_eigenvector", check_extreme)

        def check_traces():
            for o, lag, qdim, lbl in zip(others, lags, qdims, labels):
                # qtrace weights the diagonal by powers of q, polynomials
                # in w like the quantum dimensions
                if at.of(qtrace(o, c.rd)) != at.of(qdim) * lag:
                    return f"trace of projection for {lbl} mismatches"
            return True

        rep.record("projection_traces", check_traces)

        def check_fingerprint():
            # A label of height r < k and its height-(2k - r) associate have
            # equal quantum dimensions, so traces alone cannot tell them
            # apart.  The flip t ox t can: it scales the highest-weight line
            # of each eigenprojection image by a sign, and that sign is
            # (-1)^{k+1} for every plain label (r < k) and (-1)^k for every
            # associate (r > k).  This pins the alternating correspondence
            # r = i (i even) / 2k - i (i odd) of eigen_label_heights.
            flip = tensor_action(spin_rep(c.rd), ("t", 0), 2, at=at)
            plain_sign = 1 if k % 2 else -1
            for i, r in enumerate(c.eigen_label_heights()):
                if r == k:
                    continue    # self-associate: t maps between two labels
                h = min(r, 2 * k - r)
                lam = tuple([_F1] * h + [_F0] * (k - h))
                # the first nonzero column of O_i on the weight-lam slice
                cols = ({rr: row[u] for rr, row in others[i].rows.items()
                         if u in row} for u in _weight_block(k, 2, lam))
                vec = next(filter(None, cols), None)
                if vec is None:
                    return f"projection {i} kills the weight-{lam} slice"
                want = plain_sign if r < k else -plain_sign
                if flip.apply_to(vec) != {u: want * x for u, x in vec.items()}:
                    return f"projection {i} (height {r}): flip sign != {want}"
            return True

        rep.record("projection_label_fingerprint", check_fingerprint)
    else:
        # odd parity: C swaps the parity blocks of both slots
        k, d = c.k, c.dim

        def check_block_swap():
            for r, row in c.mat.rows.items():
                for col in row:
                    ra, rb = divmod(r, d)
                    ca, cb = divmod(col, d)
                    if (ra.bit_count() + ca.bit_count()) % 2 == 0:
                        return f"entry ({r},{col}) preserves a slot parity"
                    if (rb.bit_count() + cb.bit_count()) % 2 == 0:
                        return f"entry ({r},{col}) preserves a slot parity"
            return True

        rep.record("block_swap", check_block_swap)

    def check_ranks():
        # eigenspace dimensions follow the binomial profile of one-column
        # constituents; the doubled module carries each one twice.  An
        # idempotent has rank equal to its trace.
        for i, (o, lag) in enumerate(zip(others, lags)):
            if not idempotent[i]:
                return f"projection {i} is not idempotent"
            want = ranks[i]
            trace = sum(row.get(r, 0) for r, row in o.rows.items())
            if trace != want * lag:
                return (f"projection {i}: rank {Fraction(trace, lag)}, "
                        f"expected {want}")
        return True

    rep.record("projection_ranks", check_ranks)

    if c.k >= 2:
        def check_restriction():
            small = build_c(c.k - 1, c.parity)
            return _restriction_matches(c, small) or "restriction mismatch"

        rep.record("freezing_restriction", check_restriction)
    return rep


def _restriction_matches(big: InvariantElement, small: InvariantElement) -> bool:
    """Freeze the leading-complement coordinates: with the last k - r
    coordinate pairs of both slots set to (+, +), the big operator acts as
    the rank-r operator on the remaining coordinates (and does not leak)."""
    shift = big.k - small.k
    if big.parity == "even":
        lift = [a << shift for a in range(small.dim)]
    else:
        lift = [((a >> 1) << (shift + 1)) | (a & 1) for a in range(small.dim)]
    return _on_basis(big.mat, [a * big.dim + b for a in lift for b in lift]
                     ) == small.mat


# ---------------------------------------------------------------------------
# size guards on the tensor power

def _guard_power(suite: str, n: int, cost, bound: int, unit: str) -> None:
    """Refuse the n-th tensor power when ``cost(n)``, counted in ``unit``,
    passes ``bound``: SizeGuardError names the cost, the bound and the
    largest power m < n within it (as ``--n m``)."""
    need = cost(n)
    if need <= bound:
        return
    fits = [m for m in range(2, n) if cost(m) <= bound]
    raise SizeGuardError(
        f"{suite} at n = {n} needs {need} {unit}, past the bound {bound}"
        + (f"; try --n {fits[-1]}" if fits else ""))


# ---------------------------------------------------------------------------
# coideal-type relations among the C_i

def _coideal_bound(cleared: _Cleared) -> int:
    """B of :func:`verify_coideal` for the output of :func:`_clearing`: an
    upper bound on the l1 norm of each entry of each cleared identity."""
    scale, ceigs, row = cleared.scale, cleared.eigs, cleared.row
    factor = row * row + max(_l1(e * e) for e in ceigs)
    return max(2 * row ** 4, 4 * row ** 3 + _l1(scale * scale) * row,
               row * factor ** (len(ceigs) // 2))


def _coideal_relations(c: InvariantElement, cleared: _Cleared, n: int, of,
                       mod: int = 0, basis: list[int] | None = None
                       ) -> dict[str, tuple[bool, Callable[[], bool | str]]]:
    """The checks of :func:`verify_coideal` in report order, by name: whether
    the check claims that its identities vanish, and the check, which
    returns True or the witness of its first failure.  Each identity is the
    cleared one (see there), built from the output of :func:`_clearing`
    mapped by ``of``: ints at w0, ints read mod ``mod``, or point values.
    Nothing is multiplied before a check runs.  By the lemmas of
    :func:`verify_coideal`, the products run on S ox S and the cubics at
    (C_1, C_2) and (C_2, C_1) on S^{ox 3}, restricted to ``basis`` (D) when
    it is given; these are the first failures in generator order, and the
    distant commutators vanish for every C."""
    scale, ceigs = cleared.scale, cleared.eigs
    pair = cleared.mat.map_values(of)
    gens = ([embed_pair_operator(pair, c.dim, i, 3, basis) for i in (1, 2)]
            if n >= 3 else [])
    q, mid, rhs = of(qpow(1)), of(qpow(2) + ONE), of(scale * scale * qpow(1))
    sq_eigs = [of(e * e) for e in reversed(ceigs[:len(ceigs) // 2])]
    odd = c.parity == "odd"

    def vanishes(m: SparseMat) -> bool:
        return not any(x % mod if mod else x
                       for row in m.rows.values() for x in row.values())

    @cache
    def cubic(i: int, j: int) -> tuple[bool, bool, bool]:
        # at (C_i, C_j) on S^{ox 3}: does the cubic vanish with the plus
        # sign, with the minus sign; does the middle word
        a, b = gens[i], gens[j]
        square = a * a
        outer = (square * b + b * square).scale(q) - b.scale(rhs)
        middle = (a * b * a).scale(mid)
        return (vanishes(outer + middle), vanishes(outer - middle),
                vanishes(middle))

    def check_cubic():
        for i, j in ((0, 1), (1, 0)) if gens else ():
            if not cubic(i, j)[0]:
                return f"cubic relation fails at (C_{i + 1}, C_{j + 1})"
        return True

    degenerate = c.parity == "even" and c.k == 1

    def check_minus_variant():
        if degenerate:
            # smallest case: the middle word vanishes, so the two sign
            # conventions agree
            return (cubic(0, 1)[2]
                    or "middle word expected to vanish at k = 1")
        return (not cubic(0, 1)[1]
                or "minus-sign variant unexpectedly holds")

    @cache
    def chain_vanishes() -> tuple[bool, bool]:
        # on S ox S: is the eigenvalue product zero; is the second-to-last
        # entry of its chain zero
        chain = _factor_chain(pair * pair, sq_eigs,
                              SparseMat.identity(pair.nrows, 1))
        full = chain[-1] if odd else pair * chain[-1]
        return vanishes(full), vanishes(chain[-2])

    def annihilated(what: str, label: str):
        return (chain_vanishes()[0]
                or f"{what} does not vanish for C_1{label}")

    # distant generators act on disjoint slots, so they commute
    checks = {"distant_commutation": (True, lambda: True),
              "adjacent_cubic": (True, check_cubic)}
    if gens:
        checks["minus_variant_distinct"] = (degenerate, check_minus_variant)
    if odd:
        checks["distant_commutation_squares"] = (True, lambda: True)
    checks["eigenvalue_product"] = (
        True, lambda: annihilated("eigenvalue product", ""))
    if odd:
        checks["squared_eigenvalue_product"] = (
            True, lambda: annihilated("squared product", "^2"))
        # the same product with only k factors must NOT annihilate
        checks["short_square_product_nonzero"] = (
            False, lambda: (not chain_vanishes()[1]
                            or "k-factor product already vanishes"))
    return checks


def verify_coideal(k: int, parity: str, n: int, *,
                   point: EvalPoint | None = None) -> VerificationReport:
    """Relations of the generating family C_1, ..., C_{n-1}.

    Both parities: distant commutation and the adjacent cubic relation

        C_i^2 C_j + (q + q^-1) C_i C_j C_i + C_j C_i^2 = C_j   (|i - j| = 1).

    Note the plus on the middle term: the operators realize the q -> -q
    twist of the familiar minus-sign presentation (only that coefficient
    changes sign under q -> -q, and the spectrum {+-[j]} is invariant).  In
    the diagonalizing basis of C_i the eigenvalues alternate in sign along
    the branching order, (-1)^r [k - r], and conjugating by that alternation
    turns one sign convention into the other.  A companion check witnesses
    that the minus-sign variant genuinely fails (except at even k = 1, where
    the middle word C_i C_j C_i vanishes identically and both forms hold).

    Even additionally: the annihilating eigenvalue product per generator.

    Odd additionally: distant commutation of the squares, the annihilating
    product over the half-integer eigenvalues, the squared-eigenvalue
    product with k+1 factors, and a witness that the product with only k
    factors does NOT annihilate (the shorter relation genuinely fails).

    The ladder of eigenvalues is symmetric under e -> -e, so prod_e (x - e)
    = x^z prod_{e>0} (x^2 - e^2), z = 1 (even) or 0 (odd): at odd parity the
    eigenvalue product and the squared product are one polynomial, computed
    once.  It ends one factor chain over the squared positive eigenvalues
    (even: times C), whose second-to-last entry is the k-factor witness.

    Each relation is decided on the smallest tensor power it lives on
    (:func:`_coideal_relations`).  X -> I ox X ox I is a unital ring map
    whose image is zero exactly when X is, so p(C_i) = I ox p(C) ox I for
    every polynomial p: the eigenvalue products run on S ox S.  The cubic
    at (C_i, C_{i+-1}) is I ox (the cubic at (C_1, C_2) or (C_2, C_1) on
    S^{ox 3}) ox I, and the distant commutators vanish for every operator
    on disjoint slots.

    Every path runs on D (:func:`_dominant_space`) once
    :func:`_pair_in_commutant` shows over Q(v) that C commutes with U and
    t ox t on S ox S, S the module of :func:`generator_action_for` (doubled
    at odd parity).  Then each cubic X, a polynomial in C_1 and C_2,
    commutes with U and t^{ox 3}; C_1 and C_2 keep weights, so X|_D is the
    same polynomial in C_1|_D and C_2|_D, built on D's columns alone
    (:func:`embed_pair_operator`), and X is zero exactly when X|_D is, by
    the sigma-orbit lemma of :func:`_orbit_blocks`.  The entries of X|_D
    are among those of X, so the bound B below covers them, and a nonzero
    image of X|_D mod p proves X nonzero.  D has 40 of the 512 dimensions
    of S^{ox 3} at even k = 3 and 104 of 512 at odd k = 2.  When the
    inclusion fails, every path runs on all of S^{ox 3}.  No product runs
    on more than d^3 dimensions, d the dimension of S; only the size guard
    still counts d^n.

    Every relation is decided in cleared form.  With s = delta v^E and sC
    from :func:`_clearing`, sC and the generators G_i = I ox sC ox I have
    entries in Z[w], w = v^g (g = 4 at even parity, 2 at odd), and with
    q = v^4 the cubic times s^3 q is the identity

        q (G_i^2 G_j + G_j G_i^2) + (q^2 + 1) G_i G_j G_i - s^2 q G_j = 0

    in Z[w] (q, q^2 + 1 and s^2 q lie there too); the minus variant changes
    the middle sign, the commutators are [G_i, G_j] and [G_i^2, G_j^2], and
    the products are chains of (sC)^2 - (s e)^2 I.  The bound B
    (:func:`_coideal_bound`): with R the largest l1 row sum of sC, and so
    of each G_i, an entry of a product of matrices with row sums R_1, ...,
    R_t has l1 norm at most R_1 ... R_t.  The commutators are then bounded
    by 2 R^2 and 2 R^4, the cubic and its variant by 4 R^3 + ||s^2||_1 R,
    and the products by R F^m, with F = R^2 + max ||(s e)^2||_1 and m the
    number of positive eigenvalues; B is the largest, and it covers the
    commutators, which are never formed, all the same.  An l1 norm is the
    same read in v or in w, so by Cauchy's bound (:func:`_zero_test_point`)
    each identity vanishes at w0 = B + 2 exactly when it is zero, and
    without a point every check is decided both ways with plain ints at w0.

    At a point q0 > 0, s and v are invertible, so a cleared identity holds
    there exactly when the relation does.  An identity that is zero in Z[w]
    holds at every point, so a zero claim that passes at w0 passes at q0.
    A nonzero claim (the minus variant, the k-factor witness) is read at
    the reduction mod the prime of :func:`certificate_prime`
    (:meth:`ModPoint.reducing`), a ring map on the point's values of Z[v]:
    a nonzero image proves a nonzero value.  Any other outcome -- a zero
    claim failing at w0, a zero image, a point with no reduction -- reruns
    that check with exact point values, on D too, so the report is the same
    either way.  Without a point, the verdict at w0 on D is final, by the
    lemma.  SizeGuardError refuses powers past MAX_POINT_DIM
    dimensions.
    """
    rep = VerificationReport(
        "coideal",
        {"parity": parity, "k": k, "n": n,
         "point": str(point) if point is not None else "symbolic"})
    c = build_c(k, parity)
    _guard_power("coideal", n, lambda m: c.dim ** m, MAX_POINT_DIM,
                 "dimensions at a point")
    cleared = _clearing(c.mat, c.eigenvalues())
    basis = None
    if n >= 3:
        g = generator_action_for(c)
        if _pair_in_commutant(c.mat, g, cleared):
            basis = _dominant_space(g, 3)
    at = _zero_test_point(_coideal_bound(cleared), cleared.g)
    checks = _coideal_relations(c, cleared, n, at.of, basis=basis)

    @cache
    def images():
        try:
            mod = ModPoint.reducing(point, certificate_prime(point))
        except PoleError:
            return {}
        return _coideal_relations(c, cleared, n, mod.of, mod.p, basis)

    exact = cache(lambda: _coideal_relations(c, cleared, n, point.of,
                                             basis=basis))

    def decide(name: str, zero: bool, check) -> bool | str:
        # at the point: a zero claim by w0, a nonzero claim mod p, or exactly
        if not zero:
            check = images().get(name, (zero, lambda: False))[1]
        return check() is True or exact()[name][1]()

    for name, (zero, check) in checks.items():
        rep.record(name, check if point is None
                   else partial(decide, name, zero, check))
    return rep


# ---------------------------------------------------------------------------
# duality: generated algebra vs commutant dimension

def _tensor_weights(g: GeneratorAction, n: int) -> list[tuple[Fraction, ...]]:
    """The weight of each basis vector of S^{ox n}: the sum of its slot
    weights, slot 1 the most significant digit of the index."""
    return [tuple(map(sum, zip(*slots)))
            for slots in product(g.weights, repeat=n)]


def _module_actions(g: GeneratorAction, n: int, at: Specialization
                    ) -> tuple[list[tuple[Fraction, ...]], list[SparseMat]]:
    """The weights of S^{ox n}, S the module of ``g``, and the operators its
    commutant is taken against, at ``at``: Delta^n(E_i) and Delta^n(F_i) for
    each simple root and, where ``g`` has the flip (type D, where it extends
    the module structure), t^{ox n}."""
    gids = [(kind, i) for i in range(1, g.nsimple + 1) for kind in ("E", "F")]
    if g.t_perm is not None:
        gids.append(("t", 0))
    return (_tensor_weights(g, n),
            [tensor_action(g, gid, n, at=at) for gid in gids])


def _weight_block(k: int, n: int, wt: tuple[Fraction, ...]) -> list[int]:
    """The basis indices of ``wt``, a weight of S^{ox n}, ascending, for the
    2^k-dimensional module of :func:`spin_rep` (type D, or one parity block
    of type B), built without listing the other weights.  Coordinate j of
    slot t (0-based) is -1/2 exactly when bit (n - 1 - t) k + k - j of the
    index is set, so the block sets, for each j, that bit in n/2 - wt_j of
    the n slots."""
    choices = []
    for j, w in enumerate(wt, 1):
        bits = [1 << ((n - 1 - t) * k + k - j) for t in range(n)]
        minus = int(n * _HALF - w)
        choices.append([sum(c) for c in combinations(bits, minus)])
    return sorted(map(sum, product(*choices)))


def _orbit_blocks(k: int, n: int) -> dict[tuple[Fraction, ...], list[int]]:
    """The weights lambda_1 >= ... >= lambda_k >= 0 of S^{ox n}, rank k,
    each with its :func:`_weight_block`, from the non-decreasing minus
    counts m_j = n/2 - lambda_j <= n/2: in type B the dominant weights, in
    type D (lambda_{k-1} >= |lambda_k|, every weight at D_1, sigma negating
    lambda_k) one dominant weight per sigma-orbit.

    The sigma-orbit lemma: let X commute with U and, in type D, with
    t^{ox n}.  Where S^{ox n} is semisimple (over Q(v), at every q0 > 0 and
    at q = 1), highest-weight vectors of dominant weight generate it, so X
    is fixed by its values on them.  t^{ox n} conjugates E_i to
    E_{sigma(i)} and maps those of weight lambda onto those of
    sigma(lambda), where X takes the values t^{ox n} X.  So X is zero
    exactly when it vanishes on the sum of these blocks."""
    return {wt: _weight_block(k, n, wt)
            for wt in (tuple(n * _HALF - m for m in minus)
                       for minus in combinations_with_replacement(
                           range(n // 2 + 1), k))}


def _dominant_space(g: GeneratorAction, n: int) -> list[int]:
    """D for the module of ``g``: the basis indices of every
    :func:`_orbit_blocks` block of S^{ox n}, ascending, with no other
    weight listed.  On the doubled module (type B, one more, invisible,
    coordinate in the lowest bit of each slot) each visible slot digit x
    of a block index becomes x << 1 | b, for both values of b."""
    k = g.rd.rank
    space = [u for block in _orbit_blocks(k, n).values() for u in block]
    if g.doubled:
        low, width = (1 << k) - 1, k + 1
        spread = [sum(((u >> t * k) & low) << (t * width + 1)
                      for t in range(n)) for u in space]
        bits = [sum(c) for c in product(*((0, 1 << t * width)
                                         for t in range(n)))]
        space = [u | b for u in spread for b in bits]
    return sorted(space)


def _raising_block(g: GeneratorAction, n: int, block: list[int],
                   at: Specialization) -> SparseMat:
    """Delta^n(E_i), i = 1..rank, at ``at``, stacked and restricted to the
    columns of a weight ``block`` (column p is block[p]): its kernel is the
    block's highest-weight space.  No other column of S^{ox n} is built."""
    pos = {u: p for p, u in enumerate(block)}
    rows = [{pos[u]: x for u, x in row.items()}
            for i in range(1, g.nsimple + 1)
            for row in tensor_action(g, ("E", i), n, at=at,
                                     columns=block).rows.values()]
    return SparseMat(len(rows), len(block), dict(enumerate(rows)))


def _oracle_unknowns(k: int, n: int) -> int:
    """The entries of a weight-preserving matrix on S^{ox n}, the cost
    :func:`_guard_duality` bounds: sum_w mult(w)^2 over the weights of
    S^{ox n}.  Each coordinate of a spin weight is +-1/2 independently, so
    this is (sum_m C(n, m)^2)^k = C(2n, n)^k.  Both counts run on the much
    smaller dominant blocks (:func:`commutant_dim_oracle`)."""
    return comb(2 * n, n) ** k


def _guard_duality(k: int, n: int) -> None:
    """The one size guard of both duality counts: refuse a tensor power
    whose weight-preserving matrices have more than MAX_ORACLE_UNKNOWNS
    entries (:func:`_oracle_unknowns`).  C(2n, n)^k is at least the
    dimension 2^{kn} of S^{ox n}, so it bounds every block either count
    runs on.  It does not price the mod-p closure of :func:`_hw_closure`,
    whose words have only sum m_lambda^2 entries."""
    _guard_power("duality", n, lambda m: _oracle_unknowns(k, m),
                 MAX_ORACLE_UNKNOWNS, "weight-preserving matrix entries")


def commutant_dim_oracle(rd: RootData, n: int, at: Specialization) -> int:
    """Dimension of the commutant of the quantum-group module structure on
    S^{ox n} (:func:`_module_actions`: the weights, every Delta^n(E_i) and
    Delta^n(F_i) and, in type D, t^{ox n}) at an exact evaluation point, at
    CLASSICAL (q = 1) or mod p at a :class:`ModPoint`, from highest-weight
    multiplicities on one dominant block per sigma-orbit
    (:func:`_orbit_blocks`).

    At q0 > 0, q0 != 1, q0 is not a root of unity, and at q = 1 Weyl's
    theorem applies: S^{ox n} is semisimple at every point
    :func:`verify_duality` takes, a sum of simple modules V_lambda with
    dominant highest weights.  The multiplicity of V_lambda is
    m_lambda = dim HW_lambda, HW_lambda the kernel of the stacked
    Delta^n(E_i) on the weight-lambda block (:func:`_raising_block`), and
    the commutant is the sum of End(HW_lambda).

    - Type B: the count is sum_lambda m_lambda^2.
    - Type D: t^{ox n} maps HW_lambda onto HW_sigma(lambda) (the
      sigma-orbit lemma of :func:`_orbit_blocks`).  For lambda !=
      sigma(lambda), V_lambda + V_sigma(lambda) is one simple module,
      counted once at its representative, m_lambda^2.  For
      lambda = sigma(lambda), t splits HW_lambda into its
      +1 and -1 eigenspaces, of dimensions a and b (the kernels of
      [E_i; T -+ 1] on the block), two simple modules: a^2 + b^2.

    Mod p every entry is a power of v (or 1), and each kernel only grows
    under the reduction, so m_lambda, a and b, and the count, are at least
    their exact values: comm <= comm_p.  The ranks of :func:`_hw_reducers`
    give each m; :func:`_guard_duality` runs first.
    """
    if at is SYMBOLIC:
        raise DomainError("the oracle needs an EvalPoint or CLASSICAL")
    _guard_duality(rd.rank, n)
    g = spin_rep(rd, odd_doubled=False)
    return sum((len(block) - red.rank) ** 2
               for wt, block in _orbit_blocks(rd.rank, n).items()
               for red in _hw_reducers(g, n, wt, block, at))


def _hw_reducers(g: GeneratorAction, n: int, wt: tuple[Fraction, ...],
                 block: list[int], at: Specialization) -> list:
    """A reducer at ``at`` per highest-weight space of the
    :func:`_orbit_blocks` block of ``wt`` (see :func:`commutant_dim_oracle`),
    holding the rows, by position in ``block``, of [E_i], or of
    [E_i; T -+ 1] for lambda = sigma(lambda), whose kernel it is."""
    rows = list(_raising_block(g, n, block, at).rows.values())
    stacks = [rows]
    if g.t_perm is not None and wt[-1] == 0:
        t = _on_basis(tensor_action(g, ("t", 0), n, at=at, columns=block),
                      block)
        ident = SparseMat.identity(len(block), at.one)
        stacks = [rows + list(sign.rows.values())
                  for sign in (t - ident, t + ident)]
    reducers = []
    for stack in stacks:
        reducers.append(red := at.reducer())
        for row in stack:
            red.add_row(row)
    return reducers


def _duality_pair(k: int, parity: str) -> tuple[SparseMat, int]:
    """The pair operator whose embeddings generate the algebra counted by
    :func:`generated_algebra_dim`, and its slot dimension: C for even
    parity; for odd, s^2 C^2 on the even-parity block of both slots, s =
    (q + 1) v^E (:func:`_block_square`).  s^2 is nonzero at every q0 > 0
    and at q = 1, so the generated unital algebra stays the same there; mod
    p a zero image of it can only drop the modular rank."""
    c = build_c(k, parity)
    return (c.mat, c.dim) if parity == "even" else (_block_square(c), 1 << k)


class _Generators(NamedTuple):
    """The pair operator of :func:`_duality_pair`, its slot dimension, the
    basis :func:`_algebra_rank` runs on: :func:`_dominant_space` once
    :func:`_pair_in_commutant` holds, None (all of S^{ox n}) otherwise, and
    the module of :func:`spin_rep`, built once a request."""

    mat: SparseMat
    d: int
    basis: list[int] | None
    g: GeneratorAction


def _generators(rd: RootData, parity: str, n: int) -> _Generators:
    """The one setup of :func:`generated_algebra_dim` and
    :func:`verify_duality`: the generators and their basis, once a request."""
    pair = _duality_pair(rd.rank, parity)
    g = spin_rep(rd, odd_doubled=False)
    basis = _dominant_space(g, n) if _pair_in_commutant(pair[0], g) else None
    return _Generators(*pair, basis, g)


def generated_algebra_dim(k: int, parity: str, n: int,
                          at: Specialization) -> int:
    """Dimension of the unital algebra generated by the C_i (odd parity:
    their squares, see :func:`_duality_pair`) on the n-th tensor power of
    the (2^k)-dimensional module, at an EvalPoint, at CLASSICAL or mod p at
    a :class:`ModPoint`.  It runs on one dominant block per sigma-orbit
    once :func:`_pair_in_commutant` holds, and on all of S^{ox n} otherwise
    (:func:`_algebra_rank`).  :func:`_guard_duality` refuses oversized
    powers."""
    if at is SYMBOLIC:
        raise DomainError("pass an EvalPoint or CLASSICAL")
    _guard_duality(k, n)
    rd = RootData("D" if parity == "even" else "B", k)
    return _algebra_rank(_generators(rd, parity, n), n, at)


def _algebra_rank(gens: _Generators, n: int, at: Specialization) -> int:
    """:func:`generated_algebra_dim` for generators built already: the rank
    of the words in the embedded generators on ``gens.basis``
    (:func:`_word_rank`).

    Once the generators lie in the commutant, End_U(S^{ox n}), with t ox t
    among its operators in type D, the words run on
    :func:`_dominant_space`, which every weight-preserving operator keeps.
    That is faithful on the generated algebra A, by the sigma-orbit lemma
    of :func:`_orbit_blocks`.  So the rank is dim A, and mod p, where ranks
    only drop, gen_p <= gen.  Otherwise the words run on all of S^{ox n},
    and the exact count is dim A in every case."""
    family = _embedded_family(gens.mat, gens.d, n, at.of, gens.basis)
    size = gens.d ** n if gens.basis is None else len(gens.basis)
    return _word_rank(family, size, at)


def _word_rank(family: list[SparseMat], size: int, at: Specialization,
               stop: int | None = None) -> int:
    """The rank at ``at`` of the words in ``family`` (size x size), the
    identity included, each flattened over its entries; it stops once the
    rank reaches ``stop``."""
    def flatten(m: SparseMat) -> dict[int, object]:
        return {u * size + v: val
                for u, row in m.rows.items() for v, val in row.items()}

    red = at.reducer()
    ident = SparseMat.identity(size, at.one)
    red.add_row(flatten(ident))
    queue = [ident]
    while queue:
        m = queue.pop()
        for gmat in family:
            prod = at.product(gmat, m)
            if red.add_row(flatten(prod)):
                if red.rank == stop:
                    return stop
                queue.append(prod)
    return red.rank


def _hw_closure(gens: _Generators, n: int, at: ModPoint) -> tuple[int, int]:
    """L and comm_p = sum m^2 over the kernels HW_{p,lambda} of
    :func:`_hw_reducers`: L is the rank, stopped at comm_p, of the words in
    the generators restricted to their sum, one block-diagonal matrix of
    width sum m; 0 when an image leaves its space."""
    mat, g = gens.mat.map_values(at.of), gens.g
    rows: list[dict] = [{} for _ in range(1, n)]
    width, comm, inside = 0, 0, True
    for wt, block in _orbit_blocks(g.rd.rank, n).items():
        xs = [embed_pair_operator(mat, gens.d, i, n, block)
              for i in range(1, n)]
        for red in _hw_reducers(g, n, wt, block, at):
            hw = reduced_kernel(red, len(block), at.one)
            # coordinates in HW: the entries at each vector's free column
            m, free = len(hw), [next(iter(v)) for v in hw]
            basis = SparseMat(m, len(block), dict(enumerate(hw))).transpose()
            for x, out in zip(xs, rows):
                image = at.product(x, basis)
                coords = SparseMat(m, m, {r: image.rows.get(f, {})
                                          for r, f in enumerate(free)})
                inside = inside and at.product(basis, coords) == image
                out.update({width + r: {width + c: v for c, v in row.items()}
                            for r, row in coords.rows.items()})
            width, comm = width + m, comm + m * m
    family = [SparseMat(width, width, r) for r in rows]
    return (_word_rank(family, width, at, comm) if inside else 0), comm


def _pair_in_commutant(mat: SparseMat, g: GeneratorAction,
                       cleared: _Cleared | None = None) -> bool:
    """Whether the pair operator X = ``mat`` lies in the commutant on S ox S
    over Q(v), S the module of ``g``: it preserves weights and commutes with
    each operator of :func:`_module_actions` at n = 2
    (:func:`_commutators_vanish`; ``cleared`` is passed on).

    Then I ox X ox I (X on slots j, j + 1) lies in the commutant on S^{ox n}
    for every n.  In Delta^n(E) as :func:`tensor_action` builds it, a term
    on another slot puts K^{+-1/2} ox K^{+-1/2} on the pair's slots, a
    scalar on each weight space of S ox S; the two terms on the pair's slots
    sum to (K^{1/2})^{ox (j-1)} ox Delta^2(E) ox (K^{-1/2})^{ox (n-j-1)};
    t^{ox n} contains t ox t; and weights add over the slots.  For X with
    Laurent polynomial entries (:func:`_duality_pair`) this holds at every
    q0 > 0 and at q = 1, and then for the unital algebra the embedded X
    generate too."""
    wts, actions = _module_actions(g, 2, SYMBOLIC)
    for u, row in mat.rows.items():
        if any(wts[v] != wts[u] for v in row):
            return False
    return all(_commutators_vanish(mat, actions, cleared))


def _duality_counts(gens: _Generators, n: int, rd: RootData,
                    at: Specialization) -> tuple[int, int]:
    """The generated-algebra and commutant dimensions at ``at``, for
    generators built already: mod p, once ``gens.basis`` is set, L and
    comm_p of :func:`_hw_closure`; otherwise :func:`_algebra_rank`, the
    reference path, and :func:`commutant_dim_oracle`."""
    if gens.basis is not None and isinstance(at, ModPoint):
        return _hw_closure(gens, n, at)
    return _algebra_rank(gens, n, at), commutant_dim_oracle(rd, n, at)


DEFAULT_DUALITY_POINTS = (Fraction(3, 2), Fraction(5, 2), "classical")


def verify_duality(k: int, parity: str, n: int,
                   points=DEFAULT_DUALITY_POINTS) -> VerificationReport:
    """Compare three independent dimension counts on the n-th tensor power:
    the algebra generated by the C_i, the commutant of the quantum-group
    module structure, and the sum of squared multiplicities from the
    branching diagram.  ``points`` holds rationals q0 and the string
    'classical' for q = 1.

    Both counts come from :func:`_duality_counts`, on one dominant block
    per sigma-orbit (:func:`_orbit_blocks`).  Once per call, in
    :func:`_generators`, :func:`_pair_in_commutant` shows over Q(v) that
    every embedded generator lies in the commutant at every point, so
    gen <= comm, and the words may run on those blocks
    (:func:`_algebra_rank`).  At every point S^{ox n} is semisimple, so the
    commutant is the sum of squared highest-weight multiplicities
    (:func:`commutant_dim_oracle`).  Each point then takes both counts mod
    the prime of :func:`certificate_prime` on the highest-weight kernels
    HW_{p,lambda} (:func:`_hw_closure`), invariant as [X, Delta^n(E_i)] and
    [X, t^{ox n}] vanish as Laurent identities.  Restriction to them and
    reduction mod p only lower ranks, and kernels only grow mod p, so
    L <= gen_p <= gen <= comm <= comm_p, and L = comm_p = the branching
    count proves all equal.  Any other outcome takes both counts exactly at
    the point (words on all of S^{ox n} if the inclusion failed), with the
    same report; a certified point does no exact-field arithmetic.  Before
    any rank, :func:`_guard_duality`, the one guard of both counts, refuses
    a power past MAX_ORACLE_UNKNOWNS weight-preserving matrix entries.
    """
    _guard_duality(k, n)
    rd = RootData("D" if parity == "even" else "B", k)
    rep = VerificationReport("duality", {"parity": parity, "k": k, "n": n})
    expected = centralizer_dims(bratteli(rd, n))[n - 1]
    rep.params["branching_dimension"] = expected
    gens = _generators(rd, parity, n)
    for pt in points:
        if pt == "classical":
            at, tag = CLASSICAL, "classical"
        else:
            at, tag = EvalPoint.from_q(Fraction(pt)), f"q0={pt}"
        counts = None
        if gens.basis is not None:
            try:
                counts = _duality_counts(
                    gens, n, rd, ModPoint.reducing(at, certificate_prime(at)))
            except PoleError:
                pass            # no certificate at this point
        if counts != (expected, expected):
            counts = _duality_counts(gens, n, rd, at)
        gen_dim, ora_dim = counts
        rep.add(f"generated_vs_commutant[{tag}]", gen_dim == ora_dim,
                None if gen_dim == ora_dim
                else f"generated {gen_dim} != commutant {ora_dim}")
        rep.add(f"matches_branching[{tag}]", gen_dim == expected,
                None if gen_dim == expected
                else f"generated {gen_dim} != branching {expected}")
    return rep


# ---------------------------------------------------------------------------
# the third tensor power in detail

def _matrices_in_basis(mats: list[SparseMat], basis: list[dict],
                       what: str) -> list[SparseMat]:
    """The action of each matrix on span(basis), written in that basis.

    Gauss-Jordan with tags: basis vector j enters the reducer with a unit
    entry in tag column size + j, past the matrices' own columns, so each
    pivot row carries the combination of basis vectors it stands for.  The
    basis is dependent when a pivot lands on a tag column.  An image lies
    in the span when it reduces to tag entries only, and its coordinates
    are then minus those entries.

    ``what`` names the basis in the DomainError raised when it is dependent
    or when a matrix maps a basis vector out of its span.
    """
    size = mats[0].ncols
    red = RowReducer()
    for j, v in enumerate(basis):
        red.add_row({**v, size + j: 1})
        if red.order[-1][0] >= size:
            raise DomainError(f"{what} is dependent")
    out = []
    for mat in mats:
        m = SparseMat(len(basis), len(basis))
        for j, v in enumerate(basis):
            rest = red.reduce(mat.apply_to(v))
            if min(rest, default=size) < size:
                raise DomainError(f"operator leaves the span of the {what}")
            for t, val in rest.items():
                m.set_entry(t - size, j, -val)
        out.append(m)
    return out


def _model_products(k: int) -> list[Scalar]:
    """The off-diagonal products X_{r,r+1} X_{r+1,r} of
    :func:`third_power_profile`, r = 0..2k-1."""
    return [qint(r + 1) * qint(2 * k - r) / (curly(k - r) * curly(k - r - 1))
            for r in range(2 * k)]


def _model_polynomial(products: list[Scalar]) -> list[Scalar]:
    """The characteristic polynomial, constant term first, of a tridiagonal
    matrix with zero diagonal and off-diagonal products c_1, c_2, ... =
    ``products``, by the recursion p_m = x p_{m-1} - c_m p_{m-2}."""
    p_prev, p_cur = [ONE], [ZERO, ONE]
    for cm in products:
        p_next = [ZERO] + p_cur
        for j, a in enumerate(p_prev):
            p_next[j] = p_next[j] - cm * a
        p_prev, p_cur = p_cur, p_next
    return p_cur


def third_power_profile(k: int) -> VerificationReport:
    """Fine structure of C_1, C_2 on the highest-weight space of S^{ox 3}.

    Valid for even parity only.  Inside the weight-epsilon block of the
    third power, the joint highest-weight space has dimension N + 1
    (N = 2k).  The first operator acts there with simple spectrum, and the
    natural basis is the branching order: v_r spans the eigenline of the
    alternating eigenvalue (-1)^r [k - r], the value C_1 takes on the
    height-r one-column summand of the first two slots.  In that order the
    second operator is tridiagonal with zero diagonal and off-diagonal
    products

        X_{r,r+1} X_{r+1,r} = [r+1][N-r] / ({k-r}{k-r-1}) ,

    has characteristic polynomial equal to the model three-term recursion,
    and its extreme-eigenvalue projection has entries given by the closed
    weights d_r = qbinom(N, r) {k-r} / {k} over the squared quantum
    dimension.  (Ordering the basis monotonically by eigenvalue instead
    scrambles the band: tridiagonality singles out the branching order.)

    The characteristic polynomial and the extreme projection are decided in
    cleared form with plain ints at one integer point, from the chain of
    :func:`_eigenprojections` at i = 0.  :func:`_clearing` gives
    s = delta v^E, Y = sX and the s e_r in Z[w], w = v^g.  There
    O = prod_{r>=1} (Y - s e_r I), Z = L_0 = prod_{r>=1} (s e_0 - s e_r),
    and the projection is P = O/Z.

    - Characteristic polynomial: the model coefficients (the recursion over
      Q(v)) are those of prod_r (x - e_r), so s^{N+1} p(X) is the full
      product.
    - Extreme projection: with d_i = num_i / den_i
      (:meth:`Scalar.integer_parts`) and D the quantum dimension, the
      claims are O^2 = Z O (idempotence, which the full product implies),
      tr O = Z (rank 1: an idempotent's rank is its trace) and
      O_ii D^2 den_i = num_i Z, the last times one power of v that makes
      D^2 den_i and num_i polynomials.  They fix the off-diagonal products
      too: P = O/Z is then a rank-1 idempotent, P = u w^T with w^T u = 1,
      so P_ij P_ji = u_i w_j u_j w_i = P_ii P_jj.  The trace and diagonal
      claims have l1 norms at most (N + 1) F^N + ||Z||_1 and
      W F^N + T ||Z||_1, with W = max ||D^2 den_i||_1 and
      T = max ||num_i||_1: the claim terms a = N + 1 + W and b = 1 + T of
      the bound, whose point follows the step of num_i and D^2 den_i too.
    """
    rep = VerificationReport("third_power", {"k": k})
    rd = RootData("D", k)
    g = spin_rep(rd)
    d = 1 << k
    N = 2 * k
    n = 3
    # highest-weight space: common kernel of the raising operators on the
    # epsilon block, the only part of S^{ox 3} built
    idx_eps = _weight_block(k, n, rd.epsilon())
    hw = kernel_basis(_raising_block(g, n, idx_eps, SYMBOLIC), ONE)

    rep.add("highest_weight_dimension", len(hw) == N + 1,
            None if len(hw) == N + 1 else f"dim {len(hw)} != {N + 1}")
    if len(hw) != N + 1:
        return rep

    c = build_c_even(k)
    # action on the highest-weight space, in the kernel basis
    C1hw, C2hw = _matrices_in_basis(
        _embedded_family(c.mat, d, n, SYMBOLIC.of, idx_eps), hw,
        "highest-weight kernel basis")
    # branching order: v_r is the eigenvector of the alternating value
    # (-1)^r [k - r]; as a set these are exactly [k], [k-1], ..., [-k]
    eigs = [qint(k - r) if r % 2 == 0 else -qint(k - r)
            for r in range(N + 1)]
    identh = SparseMat.identity(N + 1, ONE)

    vbasis: list[dict[int, Scalar]] = []

    def check_simple_spectrum():
        for e in eigs:
            ker = kernel_basis(C1hw - identh.scale(e), ONE)
            if len(ker) != 1:
                return f"eigenvalue {e} has multiplicity {len(ker)}"
            vbasis.append(ker[0])
        return True

    rep.record("first_generator_alternating_spectrum", check_simple_spectrum)
    if len(vbasis) != N + 1:
        return rep

    X, = _matrices_in_basis([C2hw], vbasis,
                            "first generator's eigenvector basis")

    def check_tridiagonal():
        for i, row in X.rows.items():
            for j in row:
                if abs(i - j) > 1:
                    return f"entry ({i},{j}) nonzero"
        return True

    rep.record("tridiagonal", check_tridiagonal)
    rep.record("zero_diagonal",
               lambda: all(X.entry(i, i) is None for i in range(N + 1))
               or "nonzero diagonal entry")

    models = _model_products(k)
    # X_{i,i+1} X_{i+1,i} for i < N, None where a factor vanishes
    products = [None if a is None or b is None else a * b
                for a, b in ((X.entry(i, i + 1), X.entry(i + 1, i))
                             for i in range(N))]

    def check_products():
        for i, (ab, model) in enumerate(zip(products, models)):
            if ab is None:
                return f"off-diagonal ({i},{i + 1}) vanishes"
            if ab != model:
                return f"product at {i} mismatches"
        return True

    rep.record("offdiagonal_products", check_products)

    D = qdimension(spin_label(rd), rd)
    dwt = [qbinom(N, i) * curly(k - i) / curly(k) for i in range(N + 1)]
    # X and its eigenvalues cleared: Y = sX and the s e_r lie in Z[w]
    cleared = _clearing(X, eigs)

    @cache
    def projection():
        # the chain at i = 0, with Z = L_0, and both sides of the diagonal
        # claims: num_i and D^2 den_i, times one power of v that makes all
        # of them polynomials, whose step the point must follow too
        nums, dens = zip(*(w.integer_parts() for w in dwt))
        left = [D * D * den for den in dens]
        lift = _lift([*nums, *left])
        nums, left = [x * lift for x in nums], [x * lift for x in left]
        at, full, (o,), (z,), (idempotent,) = _eigenprojections(
            cleared._replace(g=gcd(cleared.g, _w_step(left + nums))), 1,
            N + 1 + max(map(_l1, left)), 1 + max(map(_l1, nums)))
        return (full, o, z, idempotent, [at.of(x) for x in left],
                [at.of(x) * z for x in nums])

    def check_charpoly():
        # the model polynomial is prod_r (x - e_r), so s^{N+1} p(X) is the
        # full product; {exponent: coefficient} products: _lmul only adds
        # and multiplies, so it takes Scalar coefficients
        expanded = {0: ONE}
        for e in eigs:
            expanded = _lmul(expanded, {0: -e, 1: ONE})
        if ({j: a for j, a in enumerate(_model_polynomial(models)) if a}
                != {j: a for j, a in expanded.items() if a}):
            return "model polynomial is not the eigenvalue product"
        return (projection()[0].is_zero()
                or "model polynomial does not annihilate")

    rep.record("characteristic_polynomial", check_charpoly)

    rep.record("weights_sum_to_dim_squared",
               lambda: sum(dwt, ZERO) == D * D or "weight sum mismatch")

    def check_reconstruction():
        topsq = qint(k) * qint(k)
        # the alternating sums sum_{t<=i} (-1)^{i-t} d_t
        alts = list(accumulate(dwt, lambda alt, w: w - alt))
        for i, ab in enumerate(products):
            if ab is None:
                return f"off-diagonal ({i},{i + 1}) vanishes"
            if ab * dwt[i] * dwt[i + 1] != topsq * alts[i] * alts[i]:
                return f"reconstruction fails at {i}"
        return True

    rep.record("entry_reconstruction", check_reconstruction)

    def check_projection():
        _, o, z, idempotent, lhs, rhs = projection()
        if not idempotent:
            return "not idempotent"
        if sum(o.entry(i, i) or 0 for i in range(N + 1)) != z:
            return "rank != 1"
        for i in range(N + 1):
            if (o.entry(i, i) or 0) * lhs[i] != rhs[i]:
                return f"diagonal entry {i} mismatches"
        return True

    rep.record("extreme_projection_entries", check_projection)
    return rep


# ---------------------------------------------------------------------------
# quantum trace multiplicativity

def markov_property_check(k: int, pairs: int = 20,
                          seed: int = 20240817) -> VerificationReport:
    """tr_q((b ox 1)(1 ox a)) = tr_q(b) tr_q(a) for normalized quantum
    traces, with a, b random integer polynomials in the even operator C.

    The left side lives on S^{ox 3} and is never built: it is the sum over
    u2, w2 of q^{s(u2)} B[u2, w2] A[w2, u2], where q^{s(u)} is the q-trace
    weight of slot index u, B the partial q-trace of b over its first slot
    and A that of a over its last.

    Each trial is decided in cleared form with plain ints at one integer
    point.  With s = v^E and sC from :func:`_clearing` and M = 2k + 1,
    s^M a = sum_j c_j s^{M-j} (sC)^j lies in Z[w], w = v^g, for the same
    random c_j drawn in the same order, and likewise s^M b.  Multiplied by
    s^{2M} D q^{4c}, D the quantum dimension of S and c = -min_u s(u), the
    identity reads

        tr'((s^M b ox 1)(1 ox s^M a)) * q^c D = tr'(s^M b) tr'(s^M a)

    in Z[w^{+-1}], where tr' weights slot index u by q^{s(u) + c}, a
    polynomial.  The bound B: with R the largest l1 row sum of sC, every
    entry and every l1 row sum of s^M a is at most A = 3 sum_j R^j (|c_j| <=
    3); the left product trace sums d^3 products of a row of one factor
    with an entry of the other (d = dim S), and each trace sums d^2 entries,
    so B = A^2 (d^3 ||D||_1 + d^4).  By Cauchy's bound
    (:func:`_zero_test_point`) each trial holds exactly when it holds at
    w0 = B + 2."""
    rep = VerificationReport("markov", {"k": k, "pairs": pairs})
    rd = RootData("D", k)
    c = build_c_even(k)
    d = c.dim
    D = qdimension(spin_label(rd), rd)
    rng = random.Random(seed)
    top = 2 * k + 1
    cleared = _clearing(c.mat, c.eigenvalues())
    slot_exp = slot_exponents(rd)
    low = min(slot_exp)
    weights = [qpow(e - low) for e in slot_exp]
    shifted = D * qpow(-low)
    entry = 3 * sum(cleared.row ** j for j in range(top + 1))     # A
    at = _zero_test_point(entry ** 2 * (d ** 3 * _l1(shifted) + d ** 4),
                          gcd(cleared.g, _w_step([cleared.scale, shifted,
                                                  *weights])))
    s0, mat = at.of(cleared.scale), cleared.mat.map_values(at.of)
    wts = [at.of(w) for w in weights]
    # s^{M-j} (sC)^j for j = 0..M
    power = SparseMat.identity(d * d, 1)
    powers = [power.scale(s0 ** top)]
    for j in range(1, top + 1):
        power = power * mat
        powers.append(power.scale(s0 ** (top - j)))

    def partial_trace(m: SparseMat, slot: int) -> dict[tuple[int, int], int]:
        # the q-trace over slot 0 or 1 of S ox S, keyed by the other slot's
        # (row, column)
        out: dict[tuple[int, int], int] = {}
        for r, row in m.rows.items():
            rr = divmod(r, d)
            for col, val in row.items():
                cc = divmod(col, d)
                if rr[slot] == cc[slot]:
                    key = (rr[1 - slot], cc[1 - slot])
                    out[key] = out.get(key, 0) + wts[rr[slot]] * val
        return out

    def trace(m: SparseMat) -> int:
        return sum(wts[r // d] * wts[r % d] * row.get(r, 0)
                   for r, row in m.rows.items())

    # every trace is linear in the matrix, so each is taken once per power
    traces = [trace(p) for p in powers]
    firsts = [partial_trace(p, 0) for p in powers]
    lasts = [partial_trace(p, 1) for p in powers]

    def combine(coeffs: list[int], parts: list[dict]) -> dict:
        out: dict = {}
        for coeff, part in zip(coeffs, parts):
            if coeff:
                for key, val in part.items():
                    out[key] = out.get(key, 0) + coeff * val
        return out

    def check_pairs():
        dim = at.of(shifted)
        for trial in range(pairs):
            a = [rng.randint(-3, 3) for _ in powers]
            b = [rng.randint(-3, 3) for _ in powers]
            # Tr_q over S^{ox 3} of (b ox 1)(1 ox a): contract the middle
            # slot
            b_first, a_last = combine(b, firsts), combine(a, lasts)
            lhs = sum(wts[u2] * val * a_last.get((w2, u2), 0)
                      for (u2, w2), val in b_first.items())
            trb, tra = sum(map(mul, b, traces)), sum(map(mul, a, traces))
            if lhs * dim != trb * tra:
                return f"trial {trial} fails"
        return True

    rep.record("product_trace_multiplicativity", check_pairs)
    return rep
