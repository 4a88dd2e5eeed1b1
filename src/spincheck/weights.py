"""Root data of types B and D, spin-module labels, branching and q-dimensions.

Weights live in the standard orthonormal coordinates: a weight is a tuple of
k Fractions, and the invariant form is the Euclidean dot product.  Type B_k
has simple roots e_i - e_{i+1} and the short root e_k; type D_k has
e_i - e_{i+1} and e_{k-1} + e_k.  D_1 is the degenerate torus case: no roots
at all, rho = (0,).

Irreducible summands of tensor powers of the spin module are tracked by
:class:`PinLabel`: a dominant tuple with lambda_k >= 0 plus a family tag and
an ``assoc`` flag.  For type D a label with lambda_k > 0 stands for the sum
V_lambda + V_lambda-bar of the two irreducibles swapped by the diagram flip
(one "combined" module -- the flip is implemented by an algebra involution, so
this sum is what tensor calculations see); a label with lambda_k = 0 is a
single irreducible which comes in a plain and a twisted (``assoc``) copy.
Type B labels never carry the flag.

The one-step branching rule is spinor_tensor: tensoring with the spin module
adds an arbitrary sign vector (+-1/2, ..., +-1/2) and keeps the dominant
results, all with multiplicity one; in type D, results with mu_k = 0 appear
once plain and once twisted.  Iterating the rule from the spin label itself
yields the branching diagram (:func:`bratteli`), level n describing the n-th
tensor power.

Quantum dimensions use the q-Weyl formula prod [<lambda+rho, alpha>] /
[<rho, alpha>] over positive roots, a Laurent polynomial even at half-integer
arguments, which :func:`spincheck.scalar.qint_ratio` divides out exactly over
the integers; the quantum trace of a matrix on S^{otimes n} weights each
diagonal entry by q^{<mu, 2 rho>} per tensor slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iproduct

from .errors import DomainError
from .linalg import SparseMat
from .scalar import Scalar, ONE, curly, qbinom, qint_ratio, qpow

_F0 = Fraction(0)
_F1 = Fraction(1)
_HALF = Fraction(1, 2)


def inner(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> Fraction:
    if len(a) != len(b):
        raise DomainError(f"inner product of lengths {len(a)} and {len(b)}")
    return sum((x * y for x, y in zip(a, b)), _F0)


@dataclass(frozen=True)
class RootData:
    """Type B_k or D_k root system in orthonormal coordinates."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in ("B", "D"):
            raise DomainError(f"family must be 'B' or 'D', got {self.family!r}")
        if self.rank < 1:
            raise DomainError("rank must be at least 1")

    def _unit(self, i: int) -> tuple[Fraction, ...]:
        return tuple(_F1 if j == i else _F0 for j in range(self.rank))

    def simple_roots(self) -> list[tuple[Fraction, ...]]:
        k = self.rank
        roots = []
        for i in range(k - 1):
            roots.append(tuple(self._unit(i)[j] - self._unit(i + 1)[j] for j in range(k)))
        if self.family == "B":
            roots.append(self._unit(k - 1))
        elif k >= 2:
            roots.append(tuple(self._unit(k - 2)[j] + self._unit(k - 1)[j] for j in range(k)))
        return roots  # D_1: empty list

    def positive_roots(self) -> list[tuple[Fraction, ...]]:
        k = self.rank
        roots = []
        for i in range(k):
            for j in range(i + 1, k):
                roots.append(tuple(self._unit(i)[t] - self._unit(j)[t] for t in range(k)))
                roots.append(tuple(self._unit(i)[t] + self._unit(j)[t] for t in range(k)))
        if self.family == "B":
            for i in range(k):
                roots.append(self._unit(i))
        return roots

    def rho(self) -> tuple[Fraction, ...]:
        k = self.rank
        if self.family == "B":
            return tuple(Fraction(2 * (k - i) + 1, 2) for i in range(1, k + 1))
        return tuple(Fraction(k - i) for i in range(1, k + 1))

    def two_rho(self) -> tuple[Fraction, ...]:
        return tuple(2 * r for r in self.rho())

    def cartan_entry(self, i: int, j: int) -> Fraction:
        """The Cartan matrix entry a_ij = 2 <alpha_i, alpha_j> / <alpha_i, alpha_i>
        (1-based simple-root indices; row-normalized)."""
        al = self.simple_roots()
        return 2 * inner(al[i - 1], al[j - 1]) / inner(al[i - 1], al[i - 1])

    def epsilon(self) -> tuple[Fraction, ...]:
        return tuple(_HALF for _ in range(self.rank))

    @property
    def vector_dim(self) -> int:
        """N: the size of the underlying orthogonal space."""
        return 2 * self.rank + (1 if self.family == "B" else 0)

    @property
    def spin_dim(self) -> int:
        """Dimension of the spin module S (for B: of one parity block)."""
        return 1 << self.rank


def module_weights(k: int) -> list[tuple[Fraction, ...]]:
    """The 2^k sign-vector weights, in the shared basis order.

    Index i has coordinate j (1-based) equal to +1/2 exactly when bit
    (k - j) of i is 0, i.e. lexicographic with + before -; index 0 is the
    all-plus weight.
    """
    out = []
    for i in range(1 << k):
        out.append(tuple(_HALF if not (i >> (k - j)) & 1 else -_HALF
                         for j in range(1, k + 1)))
    return out


# ---------------------------------------------------------------------------
# labels

@dataclass(frozen=True)
class PinLabel:
    """A dominant highest-weight label for summands of spin tensor powers."""

    entries: tuple[Fraction, ...]
    family: str
    assoc: bool = False

    def __post_init__(self):
        entries = tuple(Fraction(e) for e in self.entries)
        object.__setattr__(self, "entries", entries)
        if self.family not in ("B", "D"):
            raise DomainError(f"family must be 'B' or 'D', got {self.family!r}")
        if not entries:
            raise DomainError("empty label")
        if any((2 * e).denominator != 1 for e in entries):
            raise DomainError(f"label {self} is not a weight: each entry "
                              f"must be an integer or a half-integer")
        if any(entries[i] < entries[i + 1] for i in range(len(entries) - 1)):
            raise DomainError(f"label {self} is not dominant")
        if entries[-1] < 0:
            raise DomainError(f"label {self} has negative last entry")
        classes = {(2 * e).numerator % 2 for e in entries}
        if len(classes) > 1:
            raise DomainError(f"label {self} mixes integers and half-integers")
        if self.assoc:
            if self.family != "D":
                raise DomainError("only type D labels carry the twist flag")
            if entries[-1] != 0:
                raise DomainError("twisted labels need last entry 0")

    @property
    def rank(self) -> int:
        return len(self.entries)

    @property
    def combined(self) -> bool:
        """True when the label stands for V_lambda + V_lambda-bar (type D)."""
        return self.family == "D" and self.entries[-1] > 0

    def bar(self) -> tuple[Fraction, ...]:
        """The flipped weight (last coordinate negated)."""
        return self.entries[:-1] + (-self.entries[-1],)

    def sort_key(self):
        return tuple(-e for e in self.entries) + ((1,) if self.assoc else (0,))

    def __str__(self) -> str:
        body = ",".join(str(e) for e in self.entries)
        return f"({body})" + ("'" if self.assoc else "")

    __repr__ = __str__


def spin_label(rd: RootData) -> PinLabel:
    return PinLabel(rd.epsilon(), rd.family)


def trivial_label(rd: RootData) -> PinLabel:
    return PinLabel(tuple(_F0 for _ in range(rd.rank)), rd.family)


def one_column_label(rd: RootData, r: int) -> PinLabel:
    """The label of the r-th fundamental (one-column) summand, 0 <= r <= N.

    Columns taller than half the space fold back: in type B the column of
    height r and the column of height N - r give the same label, in type D
    the fold lands on the twisted copy.  r = rank in type D is the combined
    label (1, ..., 1).
    """
    k, N = rd.rank, rd.vector_dim
    if not 0 <= r <= N:
        raise DomainError(f"column height {r} outside 0..{N}")
    if rd.family == "B":
        rr = min(r, N - r)
        return PinLabel(tuple(_F1 if i < rr else _F0 for i in range(k)), "B")
    if r <= k:
        return PinLabel(tuple(_F1 if i < r else _F0 for i in range(k)), "D")
    rr = N - r
    return PinLabel(tuple(_F1 if i < rr else _F0 for i in range(k)), "D", assoc=True)


# ---------------------------------------------------------------------------
# the one-step branching rule

def spinor_tensor(x: PinLabel, rd: RootData) -> dict[PinLabel, int]:
    """Decompose (module of x) tensor S into labels with multiplicities.

    Every dominant mu = lambda + omega over sign vectors omega contributes
    multiplicity one; in type D a result with mu_k = 0 contributes both the
    plain and the twisted copy (when the input itself is twisted the flags of
    such results are toggled, which is vacuous but keeps the rule honest).
    """
    if x.family != rd.family or x.rank != rd.rank:
        raise DomainError("label does not match the root data")
    k = rd.rank
    out: dict[PinLabel, int] = {}

    def put(lbl: PinLabel):
        out[lbl] = out.get(lbl, 0) + 1

    for omega in iproduct((_HALF, -_HALF), repeat=k):
        mu = tuple(a + b for a, b in zip(x.entries, omega))
        if any(mu[i] < mu[i + 1] for i in range(k - 1)):
            continue
        if mu[-1] < 0:
            continue
        if rd.family == "B":
            put(PinLabel(mu, "B"))
        elif mu[-1] > 0:
            put(PinLabel(mu, "D"))
        else:
            put(PinLabel(mu, "D", assoc=x.assoc))
            put(PinLabel(mu, "D", assoc=not x.assoc))
    return out


@dataclass
class BratteliDiagram:
    """Levels of the branching diagram of S, S^{2}, S^{3}, ...

    ``levels[i]`` maps each label occurring in S^{otimes (i+1)} to its
    multiplicity; ``edges[i]`` maps each label at level i to the tuple of
    labels at level i+1 it branches into (the rule is multiplicity-free, so
    tuples have no repeats).
    """

    family: str
    rank: int
    levels: list[dict[PinLabel, int]] = field(default_factory=list)
    edges: list[dict[PinLabel, tuple[PinLabel, ...]]] = field(default_factory=list)

    def sorted_level(self, i: int) -> list[tuple[PinLabel, int]]:
        return sorted(self.levels[i].items(), key=lambda kv: kv[0].sort_key())

    def as_json(self) -> dict:
        return {
            "family": self.family,
            "rank": self.rank,
            "levels": [
                {str(lbl): m for lbl, m in self.sorted_level(i)}
                for i in range(len(self.levels))
            ],
        }

    def as_dot(self) -> str:
        lines = ["digraph bratteli {", "  rankdir=BT;"]
        for i, lev in enumerate(self.levels):
            for lbl, m in sorted(lev.items(), key=lambda kv: kv[0].sort_key()):
                lines.append(f'  "L{i + 1}:{lbl}" [label="{lbl} x{m}"];')
        for i, emap in enumerate(self.edges):
            for src, dsts in sorted(emap.items(), key=lambda kv: kv[0].sort_key()):
                for dst in dsts:
                    lines.append(f'  "L{i + 1}:{src}" -> "L{i + 2}:{dst}";')
        lines.append("}")
        return "\n".join(lines)


def bratteli(rd: RootData, levels: int) -> BratteliDiagram:
    """Branching diagram for the first ``levels`` tensor powers of S."""
    if levels < 1:
        raise DomainError("need at least one level")
    diag = BratteliDiagram(rd.family, rd.rank)
    cur = {spin_label(rd): 1}
    diag.levels.append(cur)
    for _ in range(levels - 1):
        nxt: dict[PinLabel, int] = {}
        emap: dict[PinLabel, tuple[PinLabel, ...]] = {}
        for lbl, mult in cur.items():
            branch = spinor_tensor(lbl, rd)
            assert all(m == 1 for m in branch.values()), "rule must be multiplicity-free"
            emap[lbl] = tuple(sorted(branch, key=lambda b: b.sort_key()))
            for tgt in branch:
                nxt[tgt] = nxt.get(tgt, 0) + mult
        diag.edges.append(emap)
        diag.levels.append(nxt)
        cur = nxt
    return diag


def centralizer_dims(d: BratteliDiagram) -> list[int]:
    """Sum of squared multiplicities per level: dim of the commutant of the
    quantum-group action on each tensor power."""
    return [sum(m * m for m in lev.values()) for lev in d.levels]


def basic_construction_dim(d: BratteliDiagram, n: int) -> int:
    """Dimension of the two-step ideal at power n.

    This is sum of (m_j^{(n+1)})^2 over the labels j present at power n-1
    (power 0 is the virtual trivial level), i.e. the block sizes of the ideal
    of the level-(n+1) centralizer generated by the basic projection.
    Requires the diagram to contain level n+1.
    """
    if n < 1:
        raise DomainError("power must be at least 1")
    if len(d.levels) < n + 1:
        raise DomainError(f"diagram has {len(d.levels)} levels, need {n + 1}")
    rd = RootData(d.family, d.rank)
    if n == 1:
        lower: set[PinLabel] = {trivial_label(rd)}
    else:
        lower = set(d.levels[n - 2])
    upper = d.levels[n]  # power n+1
    return sum(m * m for lbl, m in upper.items() if lbl in lower)


# ---------------------------------------------------------------------------
# dimensions

def weyl_dim(entries: tuple[Fraction, ...], rd: RootData) -> Fraction:
    """Classical Weyl dimension of the single irreducible V_entries."""
    num = _F1
    den = _F1
    rho = rd.rho()
    lam_rho = tuple(a + b for a, b in zip(entries, rho))
    for alpha in rd.positive_roots():
        num *= inner(lam_rho, alpha)
        den *= inner(rho, alpha)
    return num / den


def classical_dimension(x: PinLabel, rd: RootData) -> int:
    d = weyl_dim(x.entries, rd)
    if x.combined:
        d = d + weyl_dim(x.bar(), rd)
    assert d.denominator == 1 and d > 0
    return int(d)


def _q_weyl(entries: tuple[Fraction, ...], rd: RootData) -> Scalar:
    """prod [<lambda+rho, alpha>] / [<rho, alpha>] over positive roots: the
    character of V_lambda at q^{2 rho}, a Laurent polynomial.  Both brackets
    are positive for a dominant lambda and its flip, as qint_ratio needs."""
    rho = rd.rho()
    lam_rho = tuple(a + b for a, b in zip(entries, rho))
    return qint_ratio([(inner(lam_rho, alpha), inner(rho, alpha))
                       for alpha in rd.positive_roots()])


def qdimension(x: PinLabel, rd: RootData) -> Scalar:
    """Quantum dimension; combined type D labels add both flip partners."""
    if x.family != rd.family or x.rank != rd.rank:
        raise DomainError("label does not match the root data")
    out = _q_weyl(x.entries, rd)
    if x.combined:
        out = out + _q_weyl(x.bar(), rd)
    return out


def spin_qdim_product_form(rd: RootData) -> Scalar:
    """Closed product form of dim_q S: for N = 2k+1 the product of
    q^{j-1/2} + q^{1/2-j} over j = 1..k, and for N = 2k twice the product of
    q^j + q^{-j} over j = 1..k-1."""
    k = rd.rank
    out = ONE
    if rd.family == "B":
        for j in range(1, k + 1):
            out = out * curly(Fraction(2 * j - 1, 2))
    else:
        out = out + ONE  # the factor 2
        for j in range(1, k):
            out = out * curly(j)
    return out


def one_column_qdim_forms(N: int, r: int) -> tuple[Scalar, Scalar]:
    """The two closed forms for dim_q of the height-r column module in an
    N-dimensional space: binomial-sum form and balanced-bracket form."""
    def qb(n, m):
        return qbinom(n, m) if 0 <= m <= n else Scalar.from_fraction(0)

    lhs = qb(N - 1, r) + qb(N - 1, r - 1)
    rhs = qb(N, r) * curly(Fraction(N, 2) - r) / curly(Fraction(N, 2))
    return lhs, rhs


# ---------------------------------------------------------------------------
# quantum trace

def slot_exponents(rd: RootData) -> list[Fraction]:
    """<mu, 2 rho> for the weight mu of each spin-module basis index: a
    tensor slot holding index b contributes q^{<mu_b, 2 rho>} to the
    quantum trace."""
    two_rho = rd.two_rho()
    return [inner(w, two_rho) for w in module_weights(rd.rank)]


def qtrace(m: SparseMat, rd: RootData) -> Scalar:
    """Quantum trace of a matrix acting on S^{otimes n}.

    The number of factors n is inferred from the matrix size.  Each diagonal
    entry at a basis index with slot weights mu_1, ..., mu_n is weighted by
    prod_t q^{<mu_t, 2 rho>}.
    """
    d = rd.spin_dim
    if m.nrows != m.ncols:
        raise DomainError("quantum trace needs a square matrix")
    n = 0
    size = 1
    while size < m.nrows:
        size *= d
        n += 1
    if size != m.nrows:
        raise DomainError(f"matrix size {m.nrows} is not a power of {d}")
    slot_exp = slot_exponents(rd)
    total = Scalar.from_fraction(0)
    for i, row in m.rows.items():
        a = row.get(i)
        if a is None:
            continue
        e = _F0
        idx = i
        for _ in range(n):
            e += slot_exp[idx % d]
            idx //= d
        total = total + qpow(e) * a
    return total
