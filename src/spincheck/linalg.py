"""Sparse exact linear algebra over an arbitrary coefficient field.

Matrices are dict-of-rows: ``rows[i][j]`` is the (i, j) entry, and absent
keys are zero.  Stored values are always truthy (canonically nonzero), which
the mutation helpers enforce; this makes equality a structural comparison.
Coefficients are duck-typed -- anything with field-like ``+ - * /``, a
truthiness zero test and ``==`` works.  The program uses four: ``int``
(values at an integer point, and residues mod p, which a product leaves
unreduced), :class:`fractions.Fraction`, :class:`spincheck.scalar.Scalar`
and :class:`spincheck.scalar.Ext` (which covers the Gaussian rationals too).

A product (``*`` and :meth:`SparseMat.apply_to`) adds each term a * b into
its output entry as soon as it forms it, in the key order of the operands,
and drops the entries that sum to zero once a row is done.

There is one field eliminator, :class:`RowReducer`, and its F_p twin
:class:`ModRowReducer` for plain ints.  Reduction is incremental: rows
arrive one at a time and the reducer reports whether each enlarges the
span.  Pivot rows are normalized once on insertion, so the inner
elimination loop multiplies but never divides -- a significant saving when
coefficients are rational functions.  Incoming rows are reduced against
pivots in insertion order; since every pivot row is fully reduced against
all earlier pivots, a single pass suffices.  :func:`reduced_kernel` is the
one back-substitution and runs on either reducer, filled by its caller;
:func:`kernel_basis` fills a :class:`RowReducer` with a matrix's rows and
calls it.  Callers that append tag columns to solve for coordinates in a
basis run on the reducer directly.
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
        return self._combine(other, negate=False)

    def __sub__(self, other: "SparseMat") -> "SparseMat":
        return self._combine(other, negate=True)

    def _combine(self, other: "SparseMat", negate: bool) -> "SparseMat":
        """``self - other`` if ``negate`` else ``self + other``, in one pass
        over the union of rows, dropping cancelled entries and empty rows."""
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DomainError(f"cannot {'subtract' if negate else 'add'} "
                              f"{self.nrows}x{self.ncols} and "
                              f"{other.nrows}x{other.ncols} matrices")
        out, mine = SparseMat(self.nrows, self.ncols), self.rows
        for i in [*mine, *(i for i in other.rows if i not in mine)]:
            row = dict(mine.get(i, ()))
            for j, y in other.rows.get(i, {}).items():
                if (x := row.get(j)) is None:
                    row[j] = -y if negate else y
                elif z := x - y if negate else x + y:
                    row[j] = z
                else:
                    del row[j]
            if row:
                out.rows[i] = row
        return out

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
        for i, arow in self.rows.items():
            acc: dict[int, Any] = {}
            for k, a in arow.items():
                brow = other.rows.get(k)
                if brow is None:
                    continue
                for j, b in brow.items():
                    cur = acc.get(j)
                    acc[j] = a * b if cur is None else cur + a * b
            if acc := {j: v for j, v in acc.items() if v}:
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
        for i, r in self.rows.items():
            total = None
            for j, v in r.items():
                x = vec.get(j)
                if x is not None:
                    total = v * x if total is None else total + v * x
            if total:
                acc[i] = total
        return acc

    def commutator(self, other: "SparseMat") -> "SparseMat":
        return self * other - other * self

    def __repr__(self) -> str:
        return f"SparseMat({self.nrows}x{self.ncols}, nnz={self.nnz()})"


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
    p = 0           # the characteristic, as in ModRowReducer

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


class ModRowReducer:
    """:class:`RowReducer` over F_p for plain ``int`` entries.

    Incoming entries are reduced mod p, so any int is accepted; pivot rows
    are stored normalized, with entries in [0, p).
    """

    __slots__ = ("p", "order")

    def __init__(self, p: int):
        self.p = p
        self.order: list[tuple[int, dict[int, int]]] = []

    @property
    def rank(self) -> int:
        return len(self.order)

    def add_row(self, row: dict[int, int]) -> bool:
        p = self.p
        row = {j: x for j, v in row.items() if (x := v % p)}
        for c, prow in self.order:
            f = row.get(c)
            if f is not None:
                for j, v in prow.items():
                    x = (row.get(j, 0) - f * v) % p
                    if x:
                        row[j] = x
                    else:
                        row.pop(j, None)
        if not row:
            return False
        c = min(row)
        inv = pow(row[c], -1, p)
        self.order.append((c, {j: v * inv % p for j, v in row.items()}))
        return True


def kernel_basis(mat: SparseMat, one) -> list[dict[int, Any]]:
    """{x : mat @ x = 0} as :func:`reduced_kernel` gives it, once the rows of
    ``mat`` enter a :class:`RowReducer` in key order."""
    red = RowReducer()
    for _, row in sorted(mat.rows.items()):
        red.add_row(row)
    return reduced_kernel(red, mat.ncols, one)


def reduced_kernel(red, ncols: int, one) -> list[dict[int, Any]]:
    """A basis of the right null space of the ``ncols``-wide rows held by
    ``red``, a :class:`RowReducer` or :class:`ModRowReducer`, over its field
    (reducing ``red`` in place): one vector per free column, in column
    order.  Each vector's first key is its free column, where it is ``one``,
    the unit of the field; it is zero at every other free column."""
    # Backward pass: full Jordan reduction, so each pivot row involves only
    # its own pivot column plus free columns.  A pivot row can only contain
    # pivot columns inserted after itself, so reducing in reverse insertion
    # order settles everything in one sweep.  Over F_p a settled row is
    # reduced mod p; each factor f is then an untouched entry below p.
    order, p = red.order, red.p
    for i in range(len(order) - 1, -1, -1):
        c_i, row_i = order[i]
        for k in range(i + 1, len(order)):
            c_k, row_k = order[k]
            f = row_i.get(c_k)
            if f is not None:
                vec_sub_scaled(row_i, f, row_k)
        if p:
            order[i] = c_i, {j: x for j, v in row_i.items() if (x := v % p)}
    pivot_cols = {c: row for c, row in order}
    free_cols = [j for j in range(ncols) if j not in pivot_cols]
    basis = []
    for fc in free_cols:
        vec = {fc: one}
        for c, row in pivot_cols.items():
            a = row.get(fc)
            if a is not None:
                vec[c] = -a % p if p else -a
        basis.append(vec)
    return basis
