"""Quantum-group generator actions on spin modules and tensor powers."""

from fractions import Fraction

import pytest

from spincheck.errors import DomainError
from spincheck.linalg import SparseMat
from spincheck.qspin import block_lift, spin_rep, tensor_action, verify_serre
from spincheck.scalar import CLASSICAL, ONE, Scalar, qpow
from spincheck.weights import RootData, inner


@pytest.mark.parametrize("fam,k,doubled", [
    ("D", 1, False), ("D", 2, False), ("D", 3, False),
    ("B", 1, False), ("B", 1, True), ("B", 2, False), ("B", 2, True),
])
def test_serre_relations(fam, k, doubled):
    rep = verify_serre(RootData(fam, k), odd_doubled=doubled)
    assert rep.passed, rep.summary()


@pytest.mark.parametrize("fam,doubled", [
    ("D", False), ("B", False), ("B", True)])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_serre_runs_no_polynomial_gcd(gcd_calls, fam, k, doubled):
    # [E_i, F_i] is compared with K_i - K_i^-1 after multiplying by
    # q_i - q_i^-1, so no check forms a Q(v) quotient
    assert verify_serre(RootData(fam, k), odd_doubled=doubled).passed
    assert not gcd_calls


@pytest.mark.parametrize("fam,k,doubled", [
    ("D", 2, False), ("B", 1, True), ("B", 3, False)])
def test_serre_catches_a_wrong_sign_on_k_inverse(monkeypatch, fam, k, doubled):
    # the mutant K_i^-1 -> -K_i^-1 leaves every other relation standing
    inverse = Scalar.inverse
    monkeypatch.setattr(Scalar, "inverse", lambda s: -inverse(s))
    rep = verify_serre(RootData(fam, k), odd_doubled=doubled)
    assert {c.name: c.witness for c in rep.checks if not c.passed} == {
        "ef_commutator": "[E_1, F_1] != (K_i - K_i^-1)/(q_i - q_i^-1)"}


def test_doubled_module_is_type_b_only():
    with pytest.raises(DomainError):
        spin_rep(RootData("D", 2), odd_doubled=True)


def test_weights_and_k_action_agree():
    # K_i acts diagonally by q^{<mu, alpha_i>} on the weight-mu line
    g = spin_rep(RootData("D", 2))
    for i in range(1, g.nsimple + 1):
        K = tensor_action(g, ("K", i), 1)
        alpha = g.rd.simple_roots()[i - 1]
        for b, mu in enumerate(g.weights):
            assert K.entry(b, b) == qpow(inner(mu, alpha))


def test_raising_operators_shift_weights():
    g = spin_rep(RootData("B", 2), odd_doubled=True)
    for i in range(1, g.nsimple + 1):
        E = tensor_action(g, ("E", i), 1)
        alpha = g.rd.simple_roots()[i - 1]
        for r, row in E.rows.items():
            for c in row:
                shift = tuple(x - y for x, y in
                              zip(g.weights[r], g.weights[c]))
                assert shift == alpha


def test_flip_is_an_involution():
    g = spin_rep(RootData("D", 2))
    assert g.t_perm is not None
    t = tensor_action(g, ("t", 0), 1)
    assert t * t == SparseMat.identity(g.dim, ONE)


def test_tensor_action_slotwise_product_rule():
    # Delta(K) = K ox K: check one diagonal entry by hand
    g = spin_rep(RootData("B", 1), odd_doubled=True)
    K1 = tensor_action(g, ("K", 1), 1)
    K2 = tensor_action(g, ("K", 1), 2)
    d = g.dim
    for a in range(d):
        for b in range(d):
            assert K2.entry(a * d + b, a * d + b) == \
                K1.entry(a, a) * K1.entry(b, b)


@pytest.mark.parametrize("fam,k,doubled", [("D", 2, False), ("B", 1, True)])
def test_coproduct_commutator_relation(fam, k, doubled):
    """[Delta(E_i), Delta(F_j)] = delta_ij (Delta(K_i) - Delta(K_i)^-1)/(q_i - q_i^-1)
    on the two-fold tensor power: the coproduct is an algebra map."""
    rd = RootData(fam, k)
    g = spin_rep(rd, odd_doubled=doubled)
    n = 2
    for i in range(1, g.nsimple + 1):
        for j in range(1, g.nsimple + 1):
            E = tensor_action(g, ("E", i), n)
            F = tensor_action(g, ("F", j), n)
            comm = E.commutator(F)
            if i != j:
                assert comm.is_zero()
                continue
            K = tensor_action(g, ("K", i), n)
            Kinv = K.map_values(lambda v: ONE / v)
            alpha = rd.simple_roots()[i - 1]
            qi = qpow(Fraction(inner(alpha, alpha), 2))
            want = (K - Kinv).scale(ONE / (qi - ONE / qi))
            assert comm == want


def test_tensor_flip_acts_slotwise():
    g = spin_rep(RootData("D", 2))
    t1 = tensor_action(g, ("t", 0), 1)
    t2 = tensor_action(g, ("t", 0), 2)
    d = g.dim
    # t2 = t1 ox t1 on pure tensors
    for a in range(d):
        for b in range(d):
            va = {r: row[a] for r, row in t1.rows.items() if a in row}
            vb = {r: row[b] for r, row in t1.rows.items() if b in row}
            img = t2.apply_to({a * d + b: ONE})
            want = {ra * d + rb: x * y
                    for ra, x in va.items() for rb, y in vb.items()}
            assert img == want


def _kron(a: SparseMat, b: SparseMat) -> SparseMat:
    out = SparseMat(a.nrows * b.nrows, a.ncols * b.ncols)
    for i, arow in a.rows.items():
        for j, x in arow.items():
            for k, brow in b.rows.items():
                for l, y in brow.items():
                    out.set_entry(i * b.nrows + k, j * b.ncols + l, x * y)
    return out


@pytest.mark.parametrize("fam,k,doubled", [("D", 2, False), ("B", 1, True)])
@pytest.mark.parametrize("n", [2, 3])
def test_classical_action_is_leibniz(fam, k, doubled, n):
    """At q = 1 the coproduct is the Leibniz rule: Delta^n(X) is the sum
    over slots t of 1 ox ... ox X ox ... ox 1, and K is the identity."""
    g = spin_rep(RootData(fam, k), odd_doubled=doubled)
    ident = SparseMat.identity(g.dim, Fraction(1))
    for i in range(1, g.nsimple + 1):
        for kind in ("E", "F"):
            x = tensor_action(g, (kind, i), 1, at=CLASSICAL)
            want = SparseMat(g.dim ** n, g.dim ** n)
            for t in range(n):
                term = x if t == 0 else ident
                for s in range(1, n):
                    term = _kron(term, x if s == t else ident)
                want = want + term
            assert tensor_action(g, (kind, i), n, at=CLASSICAL) == want
        assert tensor_action(g, ("K", i), n, at=CLASSICAL) == \
            SparseMat.identity(g.dim ** n, Fraction(1))


def test_block_lift_round_trip():
    k = 3
    seen = set()
    for x in range(1 << k):
        y = block_lift(x, k)
        # the visible bits of y reproduce x, the invisible bit makes the
        # total sign-flip count even
        assert (y >> 1) == x
        assert bin(y).count("1") % 2 == 0
        seen.add(y)
    assert len(seen) == 1 << k


def test_tensor_action_rejects_unknown_kind():
    g = spin_rep(RootData("D", 2))
    with pytest.raises(DomainError, match="unknown generator kind 'X'"):
        tensor_action(g, ("X", 9), 1)
