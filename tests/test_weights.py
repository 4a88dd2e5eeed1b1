"""Root data, labels, branching diagrams, quantum dimensions and traces."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincheck.errors import DomainError
from spincheck.linalg import SparseMat
from spincheck.scalar import CLASSICAL, ONE, ZERO, Scalar, qint
from spincheck.weights import (PinLabel, RootData, basic_construction_dim,
                               bratteli, centralizer_dims,
                               classical_dimension, module_weights,
                               one_column_label, one_column_qdim_forms,
                               qdimension, qtrace, spin_label,
                               spin_qdim_product_form, spinor_tensor,
                               trivial_label)

half = Fraction(1, 2)


def test_root_data_basics():
    b2 = RootData("B", 2)
    d2 = RootData("D", 2)
    assert b2.rho() == (Fraction(3, 2), half)
    assert d2.rho() == (Fraction(1), Fraction(0))
    assert RootData("D", 3).rho() == (2, 1, 0)
    with pytest.raises(DomainError):
        RootData("A", 2)


def test_pin_label_validation():
    with pytest.raises(DomainError):
        PinLabel((Fraction(0), Fraction(1)), "D")        # not dominant
    with pytest.raises(DomainError):
        PinLabel((Fraction(1), half), "B")               # mixed classes
    with pytest.raises(DomainError):
        PinLabel((Fraction(1), Fraction(1)), "D", assoc=True)  # needs last 0
    with pytest.raises(DomainError):
        PinLabel((Fraction(1), Fraction(0)), "B", assoc=True)  # D only
    lbl = PinLabel((Fraction(1), Fraction(0)), "D", assoc=True)
    assert str(lbl) == "(1,0)'"


def test_one_column_heights_type_d():
    rd = RootData("D", 2)
    names = [str(one_column_label(rd, r)) for r in range(5)]
    assert names == ["(0,0)", "(1,0)", "(1,1)", "(1,0)'", "(0,0)'"]


def test_one_column_heights_type_b():
    # heights past the middle fold back onto the same label
    rd = RootData("B", 2)
    names = [str(one_column_label(rd, r)) for r in range(6)]
    assert names == ["(0,0)", "(1,0)", "(1,1)", "(1,1)", "(1,0)", "(0,0)"]
    with pytest.raises(DomainError):
        one_column_label(rd, 6)


def test_module_weights_are_sign_vectors():
    for k in (1, 2, 3):
        wts = module_weights(k)
        assert len(wts) == 1 << k
        assert len(set(wts)) == len(wts)
        for w in wts:
            assert all(abs(x) == half for x in w)


@pytest.mark.parametrize("fam,k", [("B", 1), ("B", 2), ("D", 2), ("D", 3)])
def test_spinor_tensor_of_spin_label(fam, k):
    rd = RootData(fam, k)
    dec = spinor_tensor(spin_label(rd), rd)
    # S ox S is multiplicity free with one-column constituents; type D sees
    # all 2k+1 column heights (associates split), type B folds to k+1
    want = 2 * k + 1 if fam == "D" else k + 1
    assert len(dec) == want
    assert all(m == 1 for m in dec.values())
    assert trivial_label(rd) in dec


@pytest.mark.parametrize("fam", ["B", "D"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_bratteli_dimension_conservation(fam, k):
    """Multiplicities weighted by classical dimensions add to dim(S)^n."""
    rd = RootData(fam, k)
    diag = bratteli(rd, 4)
    d = 1 << k
    for n in range(1, 5):
        total = sum(m * classical_dimension(lbl, rd)
                    for lbl, m in diag.levels[n - 1].items())
        assert total == d ** n


def test_centralizer_dims_known_values():
    assert centralizer_dims(bratteli(RootData("B", 1), 4)) == [1, 2, 5, 14]
    assert centralizer_dims(bratteli(RootData("B", 2), 4)) == [1, 3, 14, 84]
    assert centralizer_dims(bratteli(RootData("D", 2), 4)) == [1, 5, 35, 294]
    assert centralizer_dims(bratteli(RootData("D", 3), 3)) == [1, 7, 84]


def test_bratteli_json_golden():
    diag = bratteli(RootData("B", 1), 3)
    levels = diag.as_json()["levels"]
    assert levels[2] == {"(3/2)": 1, "(1/2)": 2}


def test_bratteli_dot_contains_edges():
    dot = bratteli(RootData("B", 1), 2).as_dot()
    assert dot.startswith("digraph")
    assert '"L1:(1/2)" -> "L2:(1)"' in dot


@pytest.mark.parametrize("fam,k", [("B", 1), ("B", 2), ("D", 2)])
def test_basic_construction_bounded_by_centralizer(fam, k):
    diag = bratteli(RootData(fam, k), 4)
    dims = centralizer_dims(diag)
    for n in (1, 2, 3):
        old = basic_construction_dim(diag, n)
        assert 0 < old <= dims[n]    # ideal inside the level-(n+1) algebra


@pytest.mark.parametrize("N", range(2, 9))
def test_one_column_qdim_two_sided(N):
    for r in range(0, N // 2 + 1):
        lhs, rhs = one_column_qdim_forms(N, r)
        assert lhs == rhs


@pytest.mark.parametrize("fam,k", [("B", 1), ("B", 2), ("B", 3),
                                   ("D", 1), ("D", 2), ("D", 3)])
def test_spin_qdim_product_form(fam, k):
    rd = RootData(fam, k)
    assert spin_qdim_product_form(rd) == qdimension(spin_label(rd), rd)


@pytest.mark.parametrize("fam,k", [("B", 1), ("B", 2), ("D", 2), ("D", 3)])
def test_tensor_square_qdim_additivity(fam, k):
    rd = RootData(fam, k)
    total = ZERO
    for lbl, m in spinor_tensor(spin_label(rd), rd).items():
        total = total + qdimension(lbl, rd) * Scalar.from_fraction(m)
    D = qdimension(spin_label(rd), rd)
    assert total == D * D


def test_qdim_specializes_to_classical_dimension():
    for fam, k in (("B", 1), ("B", 2), ("D", 2), ("D", 3)):
        rd = RootData(fam, k)
        diag = bratteli(rd, 3)
        for level in diag.levels:
            for lbl in level:
                assert CLASSICAL.of(qdimension(lbl, rd)) == \
                    classical_dimension(lbl, rd)


def test_qtrace_of_identity_is_quantum_dimension():
    for fam, k in (("B", 1), ("B", 2), ("D", 2)):
        rd = RootData(fam, k)
        ident = SparseMat.identity(1 << k, ONE)
        assert qtrace(ident, rd) == qdimension(spin_label(rd), rd)


@given(st.sampled_from([("B", 1), ("B", 2), ("D", 2)]),
       st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_qtrace_is_linear(params, i, j):
    fam, k = params
    rd = RootData(fam, k)
    d = 1 << k
    a = SparseMat(d, d)
    a.set_entry(i % d, j % d, qint(2))
    b = SparseMat(d, d)
    b.set_entry(j % d, i % d, qint(3))
    assert qtrace(a + b, rd) == qtrace(a, rd) + qtrace(b, rd)


def test_associate_labels_share_quantum_dimension():
    rd = RootData("D", 2)
    for r in (0, 1):
        plain = one_column_label(rd, r)
        assoc = one_column_label(rd, 4 - r)
        assert qdimension(plain, rd) == qdimension(assoc, rd)
        assert str(assoc).endswith("'")
