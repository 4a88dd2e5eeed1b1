"""Sparse exact linear algebra: products, row reduction, kernels."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spincheck
from spincheck.errors import DomainError
from spincheck.linalg import (ModRowReducer, RowReducer, SparseMat,
                              kernel_basis, reduced_kernel)
from spincheck.scalar import ModPoint, Scalar, curly, qint

ONE = Fraction(1)

entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def matrices(draw, max_n=5):
    nrows = draw(st.integers(1, max_n))
    ncols = draw(st.integers(1, max_n))
    m = SparseMat(nrows, ncols)
    for i in range(nrows):
        for j in range(ncols):
            v = draw(entries)
            if v:
                m.set_entry(i, j, v)
    return m


def dense(m: SparseMat):
    return [[m.entry(i, j) or Fraction(0) for j in range(m.ncols)]
            for i in range(m.nrows)]


@given(matrices(), matrices())
@settings(max_examples=50, deadline=None)
def test_matrix_product_matches_apply(a, b):
    if a.ncols != b.nrows:
        b = SparseMat(a.ncols, b.ncols, {i: dict(r) for i, r in b.rows.items()
                                         if i < a.ncols})
    prod = a * b
    for j in range(b.ncols):
        col = {i: v for i, row in b.rows.items() if (v := row.get(j))}
        want = a.apply_to(col)
        got = {i: v for i, row in prod.rows.items() if (v := row.get(j))}
        assert got == want


@given(matrices())
@settings(max_examples=50, deadline=None)
def test_rank_nullity(m):
    red = RowReducer()
    for i in range(m.nrows):
        red.add_row({j: v for j, v in m.rows.get(i, {}).items()})
    null = kernel_basis(m, ONE)
    assert red.rank + len(null) == m.ncols
    for vec in null:
        assert m.apply_to(vec) == {}


@given(matrices())
@settings(max_examples=50, deadline=None)
def test_transpose_involution(m):
    assert dense(m.transpose().transpose()) == dense(m)


@given(matrices())
@settings(max_examples=50, deadline=None)
def test_mod_row_reducer_rank_matches_rationals(m):
    # entries with denominators <= 4 and small minors keep every rank mod
    # a 61-bit prime
    p = 2**61 - 1
    exact, mod = RowReducer(), ModRowReducer(p)
    for _, row in sorted(m.rows.items()):
        assert mod.add_row({j: v.numerator * pow(v.denominator, -1, p)
                            for j, v in row.items()}) == exact.add_row(row)
    assert mod.rank == exact.rank
    for c, prow in mod.order:
        assert prow[c] == 1 and all(0 < v < p for v in prow.values())


def test_mod_row_reducer_rank_drops_mod_a_divisor_of_a_minor():
    # det [[1, 1], [1, 4]] = 3
    mod = ModRowReducer(3)
    assert mod.add_row({0: 1, 1: 1})
    assert not mod.add_row({0: 1, 1: 4})
    assert not mod.add_row({0: -3, 1: 6})     # zero mod 3
    assert mod.rank == 1


def test_identity_and_commutator():
    ident = SparseMat.identity(3, ONE)
    m = SparseMat(3, 3)
    m.set_entry(0, 1, Fraction(2))
    m.set_entry(2, 0, Fraction(-1, 3))
    assert (ident * m) == m and (m * ident) == m
    assert m.commutator(ident).is_zero()
    assert m.commutator(m).is_zero()
    n = SparseMat(3, 3)
    n.set_entry(1, 0, ONE)
    lhs = m.commutator(n)
    rhs = (m * n) + (n * m).scale(Fraction(-1))
    assert lhs == rhs and not lhs.is_zero()


def test_add_to_accumulates_and_cancels():
    m = SparseMat(2, 2)
    m.add_to(0, 0, Fraction(1, 2))
    m.add_to(0, 0, Fraction(1, 2))
    assert m.entry(0, 0) == ONE
    m.add_to(0, 0, Fraction(-1))
    assert m.entry(0, 0) is None
    assert m.is_zero()


def _mod_kernel(m: SparseMat, p: int) -> list[dict[int, int]]:
    """The kernel of ``m`` over F_p: its rows, in key order, fill a
    ModRowReducer, and reduced_kernel back-substitutes."""
    red = ModRowReducer(p)
    for _, row in sorted(m.rows.items()):
        red.add_row(row)
    return reduced_kernel(red, m.ncols, 1)


def test_kernel_of_identity_is_trivial():
    assert kernel_basis(SparseMat.identity(4, ONE), ONE) == []
    assert _mod_kernel(SparseMat.identity(4, 1), 7) == []


@given(matrices())
@settings(max_examples=50, deadline=None)
def test_mod_p_kernel_matches_rational_kernel(m):
    # as in the rank test above, every rank survives mod a 61-bit prime, so
    # the kernel mod p is the exact kernel's image, vector by vector; each
    # vector is one at its free column (its first key) and zero at the
    # other free columns
    p = 2**61 - 1

    def image(x: Fraction) -> int:
        return x.numerator * pow(x.denominator, -1, p) % p

    exact = kernel_basis(m, ONE)
    mod = _mod_kernel(m.map_values(image), p)
    assert mod == [{j: image(x) for j, x in v.items()} for v in exact]
    free = [next(iter(v)) for v in mod]
    for v, fc in zip(mod, free):
        assert v[fc] == 1 and not set(v) & (set(free) - {fc})
        assert all(0 < x < p for x in v.values())
        assert not any(x % p for x in m.map_values(image).apply_to(v).values())


def test_mod_p_kernel_grows_past_a_divisor_of_a_minor():
    # det [[1, 1], [1, 4]] = 3: no kernel over Q, a line mod 3
    m = SparseMat(2, 2, {0: {0: 1, 1: 1}, 1: {0: 1, 1: 4}})
    assert _mod_kernel(m, 5) == []
    assert _mod_kernel(m, 3) == [{1: 1, 0: 2}]


def test_shape_mismatch_raises_under_optimize():
    # python -O strips asserts; the shape checks must still refuse
    code = ("from fractions import Fraction\n"
            "from spincheck.errors import DomainError\n"
            "from spincheck.linalg import SparseMat\n"
            "a = SparseMat.identity(2, Fraction(1))\n"
            "b = SparseMat.identity(3, Fraction(1))\n"
            "for op in (lambda: a + b, lambda: a * b):\n"
            "    try:\n"
            "        op()\n"
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
    assert proc.stdout.split() == ["refused", "refused"]
    with pytest.raises(DomainError):
        SparseMat.identity(2, ONE) * SparseMat.identity(3, ONE)


# ---------------------------------------------------------------------------
# entries in Q(v)

_V = Scalar.v_power
_ODD = Scalar.from_fraction(1) / curly(Fraction(1, 2))
_LAGRANGE = Scalar.from_fraction(1) / (qint(3) - qint(1))
_POOL = [_V(e) for e in (-3, 0, 2, 5)]               # monomials
_POOL += [_ODD, _ODD * _ODD, _ODD * _ODD * _ODD]     # odd-type denominators
_POOL += [_LAGRANGE, _LAGRANGE * _V(2), _ODD * _LAGRANGE]
_POOL += [-x for x in _POOL]                         # so that sums cancel
_POOL += [Fraction(1, 2), 2]                         # coerced inside Q(v)

q_entries = st.one_of(st.none(), st.sampled_from(_POOL))


# ---------------------------------------------------------------------------
# products over every entry type against an entrywise reference

_P = 2**61 - 1
# residues mod p as products leave them: unreduced, so that some cancel
# only mod p
_RESIDUES = [1, -1, 2, _P - 1, _P + 1, 1 - _P, 2 * _P - 3, 3 - 2 * _P, _P**2]
_ENTRIES = {
    "int": st.integers(-3, 3).filter(bool),
    "Fraction": entries.filter(bool),
    "Scalar": st.sampled_from(_POOL),
    "residue": st.sampled_from(_RESIDUES),
}


@st.composite
def typed_products(draw):
    kind = draw(st.sampled_from(sorted(_ENTRIES)))
    values = st.one_of(st.none(), _ENTRIES[kind])
    n, m, p = (draw(st.integers(1, 3)) for _ in range(3))
    a, b = (SparseMat(r, c, {i: {j: v for j in range(c)
                                 if (v := draw(values)) is not None}
                             for i in range(r)})
            for r, c in ((n, m), (m, p)))
    x = {j: v for j in range(m) if (v := draw(values)) is not None}
    return kind, a, b, x


def _entrywise_sum(terms):
    """The sum of ``terms`` left to right, or None when there are none."""
    total = None
    for t in terms:
        total = t if total is None else total + t
    return total


def _reduced(rows: dict, p: int) -> dict:
    return {i: red for i, row in rows.items()
            if (red := {j: x for j, v in row.items() if (x := v % p)})}


# row 0 of the product and of the image cancel, and so does entry (1, 0)
_ROW_CANCELS = (SparseMat(2, 3, {0: {0: 1, 1: 1}, 1: {0: 1, 2: 1}}),
                SparseMat(3, 2, {0: {0: 1, 1: 2}, 1: {0: -1, 1: -2},
                                 2: {0: -1, 1: 3}}),
                {0: 1, 1: -1, 2: 1})


@given(typed_products())
@settings(max_examples=160, deadline=None)
@example(("int", *_ROW_CANCELS))
@example(("Fraction",
          *(SparseMat(r.nrows, r.ncols, {i: {j: Fraction(v, 2)
                                             for j, v in row.items()}
                                         for i, row in r.rows.items()})
            for r in _ROW_CANCELS[:2]),
          {0: Fraction(1, 3), 1: Fraction(-1, 3), 2: Fraction(1, 3)}))
@example(("residue",                           # zero mod p, not over Z
          SparseMat(1, 2, {0: {0: 1, 1: 1}}),
          SparseMat(2, 2, {0: {0: _P - 1, 1: 2}, 1: {0: 1, 1: -2}}),
          {0: _P + 1, 1: -1}))
@example(("Scalar",
          SparseMat(1, 2, {0: {0: _ODD, 1: _ODD}}),
          SparseMat(2, 2, {0: {0: _V(3), 1: 2},
                           1: {0: -_V(3), 1: Fraction(1, 2)}}),
          {0: _V(3), 1: -_V(3)}))
def test_products_match_entrywise_reference(case):
    kind, a, b, x = case
    before = a.copy(), b.copy(), dict(x)
    want = {}
    for i in range(a.nrows):
        for j in range(b.ncols):
            v = _entrywise_sum(a.entry(i, k) * b.entry(k, j)
                               for k in range(a.ncols)
                               if a.entry(i, k) is not None
                               and b.entry(k, j) is not None)
            if v:
                want.setdefault(i, {})[j] = v
    want_img = {i: v for i in range(a.nrows)
                if (v := _entrywise_sum(a.entry(i, j) * x[j] for j in x
                                        if a.entry(i, j) is not None))}
    prod, img = a * b, a.apply_to(x)
    assert prod.rows == want and img == want_img
    assert all(row and all(row.values()) for row in prod.rows.values())
    assert all(img.values())
    if kind == "residue":
        mod = ModPoint(_P, 1).product(a, b)
        assert mod.rows == _reduced(want, _P)
        assert all(0 < v < _P for row in mod.rows.values() for v in row.values())
    assert (a, b, x) == before


# ---------------------------------------------------------------------------
# sums and differences against an entrywise reference

int_entries = st.one_of(st.none(), st.integers(-2, 2))


@st.composite
def summands(draw, values):
    nrows, ncols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return tuple(
        SparseMat(nrows, ncols, {i: {j: v for j in range(ncols)
                                     if (v := draw(values)) is not None}
                                 for i in range(nrows)})
        for _ in range(2))


def _entrywise(a: SparseMat, b: SparseMat, negate: bool) -> dict:
    """a + b, or a + (-b) when ``negate``, entry by entry."""
    want: dict[int, dict] = {}
    for i in range(a.nrows):
        for j in range(a.ncols):
            x, y = a.entry(i, j), b.entry(i, j)
            if y is not None and negate:
                y = -y
            v = x if y is None else y if x is None else x + y
            if v:
                want.setdefault(i, {})[j] = v
    return want


_CANCEL = SparseMat(2, 3, {0: {0: _ODD, 2: _V(-3)}, 1: {1: _LAGRANGE}})


@given(st.one_of(summands(int_entries), summands(q_entries)))
@settings(max_examples=60, deadline=None)
@example((_CANCEL, _CANCEL))                 # a - a: every row cancels
@example((_CANCEL, -_CANCEL))                # a + (-a)
@example((SparseMat(2, 2, {0: {0: 1, 1: -2}, 1: {0: 3}}),   # row 0 cancels
          SparseMat(2, 2, {0: {0: -1, 1: 2}, 1: {1: 1}})))
def test_sums_match_entrywise_reference(pair):
    a, b = pair
    before = a.copy(), b.copy()
    for negate, total in ((False, a + b), (True, a - b)):
        assert total.rows == _entrywise(a, b, negate)
        assert all(row and all(row.values()) for row in total.rows.values())
    assert (a, b) == before
    assert (a - a).is_zero() and (a + (-a)).is_zero()


def test_shape_mismatch_names_the_operation():
    a, b = SparseMat(2, 2), SparseMat(2, 3)
    with pytest.raises(DomainError) as added:
        a + b
    with pytest.raises(DomainError) as subtracted:
        a - b
    assert str(added.value) == "cannot add 2x2 and 2x3 matrices"
    assert str(subtracted.value) == "cannot subtract 2x2 and 2x3 matrices"
