"""Quantum-group generator actions on spin modules and their tensor powers.

The module S of type D_k is realized on the 2^k sign vectors of
:func:`spincheck.weights.module_weights`; basis index i has coordinate j
equal to +1/2 exactly when bit (k - j) of i is 0.  For type B_k the natural
home of the generators is the doubled module on sign vectors of length k+1:
the weight of a vector is its first k coordinates, coordinate k+1 is
invisible to the torus, and the last simple generator toggles it.  The
doubled module splits into two blocks under the total sign parity, each
equivalent to the 2^k-dimensional spin module; ``odd_doubled=False``
constructs that block directly (last generator simply raises the k-th
coordinate) and is what tensor-power computations use.

Generator conventions (all coefficients 1; q_i = q^{<alpha_i, alpha_i>/2}):

- E_i for i < k turns the coordinate pair (mu_i, mu_{i+1}) = (-, +)
  into (+, -);
- type D, E_k turns (mu_{k-1}, mu_k) = (-, -) into (+, +);
- type B doubled, E_k turns (mu_k, mu_{k+1}) = (-, x) into (+, -x),
  toggling the invisible coordinate; undoubled, it turns mu_k = - into +;
- F_i is the transpose of E_i;
- K_i is diagonal with entry q^{<mu, alpha_i>};
- t flips the last module coordinate (type D: mu_k, so it implements the
  diagram flip and swaps the two half-spin summands; type B doubled: the
  invisible coordinate, and it commutes with the whole action).

Tensor powers use the coproduct with square-root twists,

    Delta^n(X) = sum_t K^{1/2} ox ... ox X_(t) ox ... ox K^{-1/2},

built entrywise (no intermediate Kronecker products).  Every matrix is built
at a :data:`~spincheck.scalar.Specialization`: symbolically over Q(v), at an
exact :class:`~spincheck.scalar.EvalPoint`, or at the classical point q = 1.
There every power of q is 1, so the coproduct becomes the Leibniz rule and K
the identity: the undeformed enveloping-algebra action used for q = 1
cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import DomainError
from .linalg import SparseMat
from .report import VerificationReport
from .scalar import ONE, SYMBOLIC, Specialization, qbinom, qpow
from .weights import RootData, inner

_F0 = Fraction(0)
_HALF = Fraction(1, 2)


@dataclass
class GeneratorAction:
    """The single-module data of the generator action.

    ``emap[i]`` (1-based simple-root index i) sends a basis column index to
    its image row under E_i; every E_i column has at most one nonzero entry,
    always with coefficient 1, so a plain dict is the whole matrix.  ``fmap``
    is the transpose.  ``k_exp[i][b] = <mu_b, alpha_i>`` gives K_i.
    ``t_perm`` is the flip permutation, or None when the flip does not act on
    this model (the undoubled type B block).
    """

    rd: RootData
    doubled: bool
    dim: int
    weights: list[tuple[Fraction, ...]]
    emap: dict[int, dict[int, int]]
    fmap: dict[int, dict[int, int]]
    k_exp: dict[int, list[Fraction]]
    t_perm: list[int] | None

    @property
    def nsimple(self) -> int:
        return len(self.emap)


def spin_rep(rd: RootData, odd_doubled: bool = False) -> GeneratorAction:
    """Construct the generator action on the spin module.

    For type D ``odd_doubled`` must be False.  For type B, True builds the
    doubled module (dimension 2^{k+1}, with the flip), False the single
    parity block (dimension 2^k, no flip).
    """
    k = rd.rank
    if rd.family == "D" and odd_doubled:
        raise DomainError("type D has no doubled spin module")
    K = k + 1 if (rd.family == "B" and odd_doubled) else k
    dim = 1 << K

    def coord_bit(j: int) -> int:
        # 1-based coordinate j of a length-K sign vector
        return K - j

    def sign(b: int, j: int) -> Fraction:
        return _HALF if not (b >> coord_bit(j)) & 1 else -_HALF

    weights = [tuple(sign(b, j) for j in range(1, k + 1)) for b in range(dim)]
    simple = rd.simple_roots()

    emap: dict[int, dict[int, int]] = {}
    for i in range(1, len(simple) + 1):
        col_to_row: dict[int, int] = {}
        if i < k or (rd.family == "D" and i == k):
            if rd.family == "D" and i == k:
                ja, jb = k - 1, k
                want = (-_HALF, -_HALF)   # (-,-) -> (+,+)
            else:
                ja, jb = i, i + 1
                want = (-_HALF, _HALF)    # (-,+) -> (+,-)
            mask = (1 << coord_bit(ja)) | (1 << coord_bit(jb))
            for b in range(dim):
                if (sign(b, ja), sign(b, jb)) == want:
                    col_to_row[b] = b ^ mask
        else:
            # type B last generator
            if odd_doubled:
                mask = (1 << coord_bit(k)) | 1   # raise mu_k, toggle invisible
            else:
                mask = 1 << coord_bit(k)
            for b in range(dim):
                if (b >> coord_bit(k)) & 1:      # mu_k = -
                    col_to_row[b] = b ^ mask
        emap[i] = col_to_row

    fmap = {i: {r: c for c, r in m.items()} for i, m in emap.items()}
    k_exp = {i: [inner(weights[b], simple[i - 1]) for b in range(dim)]
             for i in range(1, len(simple) + 1)}
    t_perm: list[int] | None
    if rd.family == "B" and not odd_doubled:
        t_perm = None
    else:
        t_perm = [b ^ 1 for b in range(dim)]
    return GeneratorAction(rd, odd_doubled and rd.family == "B", dim,
                           weights, emap, fmap, k_exp, t_perm)


def block_lift(x: int, k: int) -> int:
    """Index of visible sign vector x inside the even-parity block of the
    doubled module: the invisible bit makes the total minus count even."""
    return (x << 1) | (x.bit_count() & 1)


def parse_generator_id(gid) -> tuple[str, int]:
    """Accept 'E1', 'F2', 'K1', 'Khalf2', 't' or ('E', 1) style ids."""
    if isinstance(gid, tuple):
        kind, idx = (gid[0], gid[1]) if len(gid) == 2 else (gid[0], 0)
        return str(kind), int(idx)
    s = str(gid)
    if s == "t":
        return "t", 0
    for kind in ("Khalf", "E", "F", "K"):
        if s.startswith(kind) and s[len(kind):].isdigit():
            return kind, int(s[len(kind):])
    raise DomainError(f"unknown generator id {gid!r}")


def _digits(u: int, d: int, n: int) -> list[int]:
    out = [0] * n
    for t in range(n - 1, -1, -1):
        out[t] = u % d
        u //= d
    return out


def tensor_action(g: GeneratorAction, gid, n: int, *,
                  at: Specialization = SYMBOLIC) -> SparseMat:
    """Matrix of a generator on the n-fold tensor power, specialized by ``at``.

    Quantum coproduct: K^{1/2} twists to the left of the acting slot,
    K^{-1/2} to the right.  Each power of q is mapped through ``at.of``, so
    at CLASSICAL E and F follow the Leibniz rule and K is the identity.
    """
    if n < 1:
        raise DomainError("need at least one tensor factor")
    kind, i = parse_generator_id(gid)
    d = g.dim
    size = d ** n

    # slot-major index arithmetic: slot 1 is the most significant digit
    stride = [d ** (n - t - 1) for t in range(n)]

    if kind == "t":
        if g.t_perm is None:
            raise DomainError("this model has no flip operator")
        out = SparseMat(size, size)
        for u in range(size):
            digs = _digits(u, d, n)
            r = sum(g.t_perm[b] * s for b, s in zip(digs, stride))
            out.set_entry(r, u, at.one)
        return out

    if kind in ("K", "Khalf"):
        if i not in g.k_exp:
            raise DomainError(f"no simple root with index {i}")
        exps = g.k_exp[i]
        half = Fraction(1, 2) if kind == "Khalf" else Fraction(1)
        out = SparseMat(size, size)
        for u in range(size):
            e = sum(exps[b] for b in _digits(u, d, n)) * half
            out.set_entry(u, u, at.of(qpow(e)))
        return out

    if kind not in ("E", "F"):
        raise DomainError(f"unknown generator kind {kind!r}")
    amap = g.emap.get(i) if kind == "E" else g.fmap.get(i)
    if amap is None:
        raise DomainError(f"no simple root with index {i}")
    exps = g.k_exp[i]
    out = SparseMat(size, size)
    for u in range(size):
        digs = _digits(u, d, n)
        for t in range(n):
            r_digit = amap.get(digs[t])
            if r_digit is None:
                continue
            row = u + (r_digit - digs[t]) * stride[t]
            e = _F0
            for s in range(n):
                if s < t:
                    e += exps[digs[s]]
                elif s > t:
                    e -= exps[digs[s]]
            out.add_to(row, u, at.of(qpow(e / 2)))
    return out


# ---------------------------------------------------------------------------
# defining relations

def verify_serre(rd: RootData, odd_doubled: bool = False) -> VerificationReport:
    """Check the defining relations on the single spin module.

    Covers: weight compatibility of E_i/F_i, K-conjugation, the
    [E_i, F_j] relation with q_i = q^{<alpha_i,alpha_i>/2}, nilpotence
    E_i^2 = F_i^2 = 0, the full quantum Serre relations for all pairs
    (including the trivially-zero long-short relation of type B), distant
    commutation, and the flip properties (t^2 = 1, conjugation permutes the
    generators by the diagram symmetry, t commutes with the torus image).
    """
    rep = VerificationReport(
        "serre", {"family": rd.family, "rank": rd.rank, "doubled": odd_doubled})
    g = spin_rep(rd, odd_doubled)
    simple = rd.simple_roots()
    ns = g.nsimple
    d = g.dim
    ident = SparseMat.identity(d, ONE)
    E = {i: tensor_action(g, ("E", i), 1) for i in range(1, ns + 1)}
    F = {i: tensor_action(g, ("F", i), 1) for i in range(1, ns + 1)}
    Kmat = {i: tensor_action(g, ("K", i), 1) for i in range(1, ns + 1)}

    def check_weights():
        for i in range(1, ns + 1):
            alpha = simple[i - 1]
            for c, r in g.emap[i].items():
                got = tuple(a - b for a, b in zip(g.weights[r], g.weights[c]))
                if got != alpha:
                    return f"E_{i} misraises weight at basis {c}"
        return True

    def check_k_conj():
        for i in range(1, ns + 1):
            for j in range(1, ns + 1):
                pairing = inner(simple[i - 1], simple[j - 1])
                lhs = Kmat[i] * E[j]
                rhs = (E[j] * Kmat[i]).scale(qpow(pairing))
                if lhs != rhs:
                    return f"K_{i} E_{j} K_{i}^-1 != q^<a_{i},a_{j}> E_{j}"
        return True

    def check_ef():
        for i in range(1, ns + 1):
            for j in range(1, ns + 1):
                comm = E[i] * F[j] - F[j] * E[i]
                if i != j:
                    if not comm.is_zero():
                        return f"[E_{i}, F_{j}] != 0"
                    continue
                ci = inner(simple[i - 1], simple[i - 1]) / 2
                denom = qpow(ci) - qpow(-ci)
                rhs = (Kmat[i] - Kmat[i].map_values(
                    lambda s: ONE / s)).scale(ONE / denom)
                if comm != rhs:
                    return f"[E_{i}, F_{i}] != (K_i - K_i^-1)/(q_i - q_i^-1)"
        return True

    def check_nilpotent():
        for i in range(1, ns + 1):
            if not (E[i] * E[i]).is_zero():
                return f"E_{i}^2 != 0"
            if not (F[i] * F[i]).is_zero():
                return f"F_{i}^2 != 0"
        return True

    def serre_sum(X: dict[int, SparseMat], i: int, j: int) -> SparseMat:
        aij = g.rd.cartan_entry(i, j)
        assert aij.denominator == 1
        m = 1 - int(aij)
        ci = inner(simple[i - 1], simple[i - 1]) / 2
        acc = SparseMat(d, d)
        xi_pow = [ident]
        for _ in range(m):
            xi_pow.append(xi_pow[-1] * X[i])
        for s in range(m + 1):
            term = xi_pow[m - s] * X[j] * xi_pow[s]
            coeff = qbinom(m, s, ci)
            if s % 2:
                coeff = -coeff
            acc = acc + term.scale(coeff)
        return acc

    def check_serre():
        for i in range(1, ns + 1):
            for j in range(1, ns + 1):
                if i == j:
                    continue
                if not serre_sum(E, i, j).is_zero():
                    return f"Serre relation fails for E ({i},{j})"
                if not serre_sum(F, i, j).is_zero():
                    return f"Serre relation fails for F ({i},{j})"
        return True

    def check_distant():
        for i, j in combinations(range(1, ns + 1), 2):
            if g.rd.cartan_entry(i, j) != 0:
                continue
            if not E[i].commutator(E[j]).is_zero():
                return f"[E_{i}, E_{j}] != 0 though disconnected"
        return True

    rep.record("weight_compatibility", check_weights)
    rep.record("k_conjugation", check_k_conj)
    rep.record("ef_commutator", check_ef)
    rep.record("nilpotence", check_nilpotent)
    rep.record("serre_relations", check_serre)
    rep.record("distant_commutation", check_distant)

    if g.t_perm is not None:
        T = tensor_action(g, "t", 1)

        def check_flip():
            if T * T != ident:
                return "t^2 != 1"
            # diagram symmetry: swap last two roots in type D (k >= 2),
            # fix everything else
            sigma = {i: i for i in range(1, ns + 1)}
            if rd.family == "D" and rd.rank >= 2:
                sigma[ns - 1], sigma[ns] = ns, ns - 1
            for i in range(1, ns + 1):
                if T * E[i] * T != E[sigma[i]]:
                    return f"t E_{i} t != E_{sigma[i]}"
                if T * Kmat[i] * T != Kmat[sigma[i]]:
                    return f"t K_{i} t != K_{sigma[i]}"
            return True

        rep.record("flip_properties", check_flip)
    return rep
