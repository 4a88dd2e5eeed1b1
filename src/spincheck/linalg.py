"""Sparse exact linear algebra over an arbitrary coefficient field.

Matrices are dict-of-rows: ``rows[i][j]`` is the (i, j) entry, and absent
keys are zero.  Stored values are always truthy (canonically nonzero), which
the mutation helpers enforce; this makes equality a structural comparison.
Coefficients are duck-typed -- anything with field-like ``+ - * /``, a
truthiness zero test and ``==`` works.  The program uses three:
:class:`fractions.Fraction`, :class:`spincheck.scalar.Scalar` and
:class:`spincheck.scalar.Ext` (which covers the Gaussian rationals too).

Products (``A * B`` and :meth:`SparseMat.apply_to`) hand each output entry's
term pairs to the entry type's ``dot`` when it has one, and otherwise add
the products one by one.  Over Q(v) that is :meth:`Scalar.dot`, which
canonicalizes once per output entry instead of after every ``*`` and ``+``.

Row reduction is incremental (:class:`RowReducer`): rows arrive one at a
time and the reducer reports whether each enlarges the span.  Pivot rows are
normalized once on insertion, so the inner elimination loop multiplies but
never divides -- a significant saving when coefficients are rational
functions.  Incoming rows are reduced against pivots in insertion order;
since every pivot row is fully reduced against all earlier pivots, a single
pass suffices.
"""

from __future__ import annotations

from typing import Any, Callable

from .errors import DomainError


class SparseMat:
    """An nrows-by-ncols sparse matrix over an exact field."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int,
                 rows: dict[int, dict[int, Any]] | None = None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: dict[int, dict[int, Any]] = {}
        if rows:
            for i, r in rows.items():
                clean = {j: v for j, v in r.items() if v}
                if clean:
                    self.rows[i] = clean

    @staticmethod
    def identity(n: int, one) -> "SparseMat":
        m = SparseMat(n, n)
        for i in range(n):
            m.rows[i] = {i: one}
        return m

    # -- entry access -------------------------------------------------------

    def entry(self, i: int, j: int):
        row = self.rows.get(i)
        return None if row is None else row.get(j)

    def add_to(self, i: int, j: int, val) -> None:
        if not val:
            return
        row = self.rows.setdefault(i, {})
        cur = row.get(j)
        new = val if cur is None else cur + val
        if new:
            row[j] = new
        else:
            del row[j]
            if not row:
                del self.rows[i]

    def set_entry(self, i: int, j: int, val) -> None:
        row = self.rows.get(i)
        if val:
            if row is None:
                self.rows[i] = {j: val}
            else:
                row[j] = val
        elif row is not None and j in row:
            del row[j]
            if not row:
                del self.rows[i]

    # -- algebra --------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMat):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and self.rows == other.rows

    def is_zero(self) -> bool:
        return not self.rows

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows.values())

    def copy(self) -> "SparseMat":
        return SparseMat(self.nrows, self.ncols,
                         {i: dict(r) for i, r in self.rows.items()})

    def __neg__(self) -> "SparseMat":
        out = SparseMat(self.nrows, self.ncols)
        out.rows = {i: {j: -v for j, v in r.items()} for i, r in self.rows.items()}
        return out

    def __add__(self, other: "SparseMat") -> "SparseMat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DomainError(f"cannot add {self.nrows}x{self.ncols} and "
                              f"{other.nrows}x{other.ncols} matrices")
        out = self.copy()
        for i, r in other.rows.items():
            for j, v in r.items():
                out.add_to(i, j, v)
        return out

    def __sub__(self, other: "SparseMat") -> "SparseMat":
        return self + (-other)

    def scale(self, c) -> "SparseMat":
        if not c:
            return SparseMat(self.nrows, self.ncols)
        out = SparseMat(self.nrows, self.ncols)
        for i, r in self.rows.items():
            row = {j: c * v for j, v in r.items()}
            row = {j: v for j, v in row.items() if v}
            if row:
                out.rows[i] = row
        return out

    def __rmul__(self, other) -> "SparseMat":
        # scalar * matrix (matrix * matrix never reaches here)
        return self.scale(other)

    def __mul__(self, other: "SparseMat") -> "SparseMat":
        if not isinstance(other, SparseMat):
            return NotImplemented
        if self.ncols != other.nrows:
            raise DomainError(f"cannot multiply {self.nrows}x{self.ncols} by "
                              f"{other.nrows}x{other.ncols} matrices")
        out = SparseMat(self.nrows, other.ncols)
        dot = self._dot()
        for i, arow in self.rows.items():
            terms: dict[int, list] = {}
            for k, a in arow.items():
                brow = other.rows.get(k)
                if brow is None:
                    continue
                for j, b in brow.items():
                    pairs = terms.get(j)
                    if pairs is None:
                        terms[j] = [(a, b)]
                    else:
                        pairs.append((a, b))
            acc = {j: v for j, pairs in terms.items() if (v := dot(pairs))}
            if acc:
                out.rows[i] = acc
        return out

    def transpose(self) -> "SparseMat":
        out = SparseMat(self.ncols, self.nrows)
        for i, r in self.rows.items():
            for j, v in r.items():
                out.rows.setdefault(j, {})[i] = v
        return out

    def map_values(self, fn: Callable[[Any], Any]) -> "SparseMat":
        out = SparseMat(self.nrows, self.ncols)
        for i, r in self.rows.items():
            row = {}
            for j, v in r.items():
                w = fn(v)
                if w:
                    row[j] = w
            if row:
                out.rows[i] = row
        return out

    def apply_to(self, vec: dict[int, Any]) -> dict[int, Any]:
        """Matrix times column vector (vector = {index: coeff})."""
        acc: dict[int, Any] = {}
        dot = self._dot()
        for i, r in self.rows.items():
            pairs = [(v, x) for j, v in r.items()
                     if (x := vec.get(j)) is not None]
            if pairs and (total := dot(pairs)):
                acc[i] = total
        return acc

    def _dot(self) -> Callable[[list], Any]:
        """The entry type's one-pass ``dot`` if it has one, else the
        term-by-term sum.  The first stored entry decides; entries of
        another type in the same matrix are left to that ``dot`` to
        coerce."""
        for row in self.rows.values():
            for v in row.values():
                return getattr(type(v), "dot", _sum_of_products)
        return _sum_of_products

    def commutator(self, other: "SparseMat") -> "SparseMat":
        return self * other - other * self

    def __repr__(self) -> str:
        return f"SparseMat({self.nrows}x{self.ncols}, nnz={self.nnz()})"


def _sum_of_products(pairs: list) -> Any:
    """``sum(a * b for a, b in pairs)`` accumulated term by term, for
    coefficient types without a ``dot`` of their own."""
    total = None
    for a, b in pairs:
        p = a * b
        total = p if total is None else total + p
    return total


def vec_sub_scaled(vec: dict[int, Any], factor, other: dict[int, Any]) -> None:
    """In place: vec -= factor * other (dropping keys that cancel)."""
    for j, v in other.items():
        cur = vec.get(j)
        new = (-factor) * v if cur is None else cur - factor * v
        if new:
            vec[j] = new
        elif cur is not None:
            del vec[j]


class RowReducer:
    """Incremental Gaussian elimination over a field.

    ``add_row`` returns True when the row was independent of everything seen
    so far.  ``rank`` is the number of independent rows.  Pivot columns are
    chosen as the minimal column of each incoming (reduced) row, which makes
    the whole computation deterministic.
    """

    __slots__ = ("order",)

    def __init__(self):
        # insertion-ordered (pivot_col, normalized_row) pairs
        self.order: list[tuple[int, dict[int, Any]]] = []

    @property
    def rank(self) -> int:
        return len(self.order)

    def reduce(self, row: dict[int, Any]) -> dict[int, Any]:
        row = {j: v for j, v in row.items() if v}
        for c, prow in self.order:
            f = row.get(c)
            if f is not None:
                vec_sub_scaled(row, f, prow)
        return row

    def add_row(self, row: dict[int, Any]) -> bool:
        row = self.reduce(row)
        if not row:
            return False
        c = min(row)
        inv = 1 / row[c]
        self.order.append((c, {j: v * inv for j, v in row.items()}))
        return True


class SpanSolver:
    """Track a growing span and express new vectors in the original basis.

    :meth:`add` returns whether the vector was accepted, i.e. whether it was
    independent of the vectors accepted before it.  Accepted vectors carry
    integer tags ``0..rank-1``: a tag is the vector's 0-based position among
    the accepted vectors only, so a zero or dependent vector gets no tag.
    :meth:`express` returns the coordinates of a target as ``{tag: coeff}``
    over the accepted vectors, or None when the target lies outside the span.
    """

    __slots__ = ("order",)

    def __init__(self):
        self.order: list[tuple[int, dict[int, Any], dict[int, Any]]] = []

    def add(self, vec: dict[int, Any]) -> bool:
        # Invariant for every stored triple: prow == sum_j ptag[j] * basis_j,
        # with prow normalized to pivot coefficient 1.
        row = {j: v for j, v in vec.items() if v}
        tag: dict[int, Any] = {}
        for c, prow, ptag in self.order:
            f = row.get(c)
            if f is not None:
                vec_sub_scaled(row, f, prow)
                vec_sub_scaled(tag, f, ptag)
        if not row:
            return False
        c = min(row)
        piv = row[c]
        inv = 1 / piv
        tag[len(self.order)] = piv * inv  # the field's one
        self.order.append((c, {j: v * inv for j, v in row.items()},
                           {j: v * inv for j, v in tag.items()}))
        return True

    def express(self, vec: dict[int, Any]) -> dict[int, Any] | None:
        row = {j: v for j, v in vec.items() if v}
        acc: dict[int, Any] = {}
        for c, prow, ptag in self.order:
            f = row.get(c)
            if f is not None:
                vec_sub_scaled(row, f, prow)
                for j, t in ptag.items():
                    cur = acc.get(j)
                    new = f * t if cur is None else cur + f * t
                    if new:
                        acc[j] = new
                    elif cur is not None:
                        del acc[j]
        if row:
            return None
        return acc


def matrix_rank(mat: SparseMat) -> int:
    """The rank of ``mat``, reducing its rows in index order."""
    red = RowReducer()
    for _, row in sorted(mat.rows.items()):
        red.add_row(row)
    return red.rank


def kernel_basis(mat: SparseMat, one) -> list[dict[int, Any]]:
    """A basis of the right null space {x : mat @ x = 0}.

    Returns one vector per free column, deterministically ordered by the free
    column index.  ``one`` must be the multiplicative unit of the field.
    """
    # Forward pass: echelon pivots in insertion order.
    red = RowReducer()
    for _, row in sorted(mat.rows.items()):
        red.add_row(row)
    # Backward pass: full Jordan reduction, so each pivot row involves only
    # its own pivot column plus free columns.  A pivot row can only contain
    # pivot columns inserted after itself, so reducing in reverse insertion
    # order settles everything in one sweep.
    order = red.order
    for i in range(len(order) - 1, -1, -1):
        c_i, row_i = order[i]
        for k in range(i + 1, len(order)):
            c_k, row_k = order[k]
            f = row_i.get(c_k)
            if f is not None:
                vec_sub_scaled(row_i, f, row_k)
    pivot_cols = {c: row for c, row in order}
    free_cols = [j for j in range(mat.ncols) if j not in pivot_cols]
    basis = []
    for fc in free_cols:
        vec = {fc: one}
        for c, row in pivot_cols.items():
            a = row.get(fc)
            if a is not None:
                vec[c] = -a
        basis.append(vec)
    return basis
