"""Dense exact linear algebra: matrices, tensors, elimination.

Vectors are plain tuples of field values.  All arithmetic goes through one
kernel, ``_combine``: a linear combination of vectors, summed exactly and
reduced mod p once per vector (never per scalar operation), or over Q put
once in the normal form of ``fields``: an ``int`` when integral, else a
``Fraction``.  Products
and scalings of matrices and tensors, ``matvec`` and the row operations
of elimination are all calls to it, and so is ``_transport``, which moves
every bilinear table (products, actions) along linear maps.  Elimination
is exact Gaussian elimination with a deterministic pivot rule (lowest column index
first, then lowest row), so identical inputs always give identical outputs.

Field form and shape are decided in one place.  Public construction
checks: ``_field_table`` coerces every matrix and bilinear table
(structure tensors, bimodule actions) into its field and checks each
level's length against the sizes its container states; a malformed table
raises ``DimensionMismatchError``.  ``_of`` trusts kernel output only:
``Matrix._of``, ``StructureTensor._of`` and ``structures.Bimodule._of``
set the fields as given, and are called only on a table a library kernel
has just made (``_combine``, ``_transport``, a search leaf), which is in
field form and shape by construction; each call says why.  Documents, the
CLI and the catalogue never call them.  Every vector
and scalar argument (of ``matvec``, ``apply``, ``scale``, ``solve`` and
``in_span``) is coerced into the field before any arithmetic, so no float
or other non-scalar reaches ``_combine``; a vector that is not a sequence,
or has the wrong length, raises ``DimensionMismatchError``.
``_check_size`` refuses any dimension, row count or column count that is
not a non-bool ``int`` >= 0, and any worker count or budget below 1, with
``ArgumentError``.  A field, matrix or operand of another class is refused
by ``errors._expect`` before anything reads it.

A matrix keeps one thing besides its fields: its inverse, once ``invert``
has found it, and the inverse keeps the matrix.  Every test of
invertibility (``_require_invertible``) is that one inversion, so no
matrix is eliminated twice to invert it or to refuse it as a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import attrgetter
from typing import Iterable, Sequence

from .errors import (ArgumentError, DimensionMismatchError, NoSolutionError,
                     NotInvertibleError, SingularMatrixError, _expect)
from .fields import FieldSpec, _q, same_field


# -- vectors -----------------------------------------------------------------

def _combine(coeffs: Sequence, vecs: Sequence, p, zero, at=None) -> tuple:
    """Coordinates of sum_s coeffs[s] * vecs[s] (of vecs[s][at] when ``at`` is set).

    The sum is exact and reduced mod ``p`` once at the end when ``p`` is
    set, which equals accumulating it term by term in the field.  Over Q
    the coordinates are put in normal form (``fields._q``) once at the end,
    unless no ``Fraction`` is among them: sums of ints are ints.
    """
    out = None
    for c, v in zip(coeffs, vecs):
        if c:
            if at is not None:
                v = v[at]
            if out is None:
                out = list(v) if c == 1 else [c * a if a else a for a in v]
            else:
                for r, a in enumerate(v):
                    if a:
                        out[r] += a if c == 1 else c * a
    if out is None:
        return (zero,) * len(vecs[0] if at is None else vecs[0][at]) if vecs else ()
    if p:
        return tuple(map(p.__rmod__, out))
    return tuple(map(_q, out)) if Fraction in map(type, out) else tuple(out)


def _transport(field: FieldSpec, table, left, right, post) -> tuple:
    """Nested table of (x, y) -> post(T(left x, right y)), ``table[a][b]`` being T(e_a, e_b).

    Each map is a list of columns, not necessarily square; None is the
    identity.  Each step is one ``_combine`` per entry.
    """
    p, zero = field.p, field.zero
    if right is not None:
        table = tuple(tuple(_combine(v, row, p, zero) for v in right) for row in table)
    if left is not None:
        ys = range(len(table[0]) if table else 0)
        table = tuple(tuple(_combine(u, table, p, zero, y) for y in ys) for u in left)
    if post is not None:
        table = tuple(tuple(_combine(w, post, p, zero) for w in row) for row in table)
    return table


def _check_size(value, what: str = "dimension", least: int = 0) -> None:
    """Refuse ``value`` unless it is a non-bool ``int`` >= ``least`` (``ArgumentError``).

    The one check of every dimension, row count and column count a
    container or an enumerator is given, and of every worker count and
    budget (``least=1``).
    """
    if value.__class__ is not int or value < least:
        raise ArgumentError(f"{what} must be an int >= {least}, got {value!r}")


_INT, _RATIONAL = frozenset((int,)), frozenset((int, Fraction))
_DENOMINATOR = attrgetter("denominator")


def _field_vector(field: FieldSpec, v, n: int | None, what: str) -> tuple:
    """``v`` as a tuple of ``n`` scalars of ``field`` (any length when ``n`` is None).

    The vector arguments of ``matvec``, ``apply``, ``solve`` and ``in_span``
    pass it before any arithmetic.  A ``v`` that is not a sequence, or one
    of another length, raises ``DimensionMismatchError``; an entry that is
    not a scalar of ``field``, ``FieldMismatchError`` (``FieldSpec.coerce``).
    """
    try:
        v = tuple(v)
    except TypeError:
        raise DimensionMismatchError(f"{what} must be a sequence of scalars, got {v!r}") from None
    if n is not None and len(v) != n:
        raise DimensionMismatchError(f"{what} must have {n} entries, got {len(v)}")
    return tuple(map(field.coerce, v))


def _field_table(field: FieldSpec, table, sizes: tuple) -> tuple:
    """``table`` as nested tuples of scalars of ``field``, one level per entry of ``sizes``.

    The one rule for the field form and shape of every matrix (two levels)
    and bilinear table (three).  ``sizes`` gives the length of every
    sequence at each level, outermost first: an int, or None for the
    table's own length n (so ``(None, None, None)`` is an n x n x n table).
    The innermost size may also be ``...``, any one length k, as a matrix's
    rows have.  Lengths are compared at C level, one set per level.  A
    level of another length, or one that is not a sequence, such as a
    ``Matrix`` in place of a plane, raises ``DimensionMismatchError``.
    Entries are then coerced (``FieldSpec.coerce``) unless one check at C
    level finds them all field scalars already.  Over F_p that is every
    class ``int`` with ``0 <= min`` and ``max < p``.  Over Q it is every
    class ``int``, or ``int`` and ``Fraction`` with as many denominators 1
    as ints, so no ``Fraction`` is integral: the normal form ``fields._q``.
    """
    _expect(field, FieldSpec)
    deep = len(sizes) == 3
    try:
        ents = (tuple([tuple(map(tuple, plane)) for plane in table]) if deep
                else tuple(map(tuple, table)))
    except TypeError:
        raise DimensionMismatchError(
            f"expected a table nested {('two', 'three')[deep]} deep") from None
    n = len(ents)
    rows = sum(ents, ()) if deep else ents  # for these small n, cheaper than a chained list
    got, size = set(map(len, rows)), sizes[-1]
    fits = len(got) < 2 if size is ... else got <= {n if size is None else size}
    if not fits or sizes[0] not in (n, None) or deep and not (
            set(map(len, ents)) <= {n if sizes[1] is None else sizes[1]}):
        dims = " x ".join("k" if s is ... else str(n if s is None else s) for s in sizes)
        raise DimensionMismatchError(f"expected a table of shape {dims}")
    leaves = list(chain.from_iterable(rows))
    classes, p = set(map(type, leaves)), field.p
    if not (classes == _INT and min(leaves) >= 0 and max(leaves) < p if p
            else classes == _INT or classes <= _RATIONAL and (
                list(map(_DENOMINATOR, leaves)).count(1) == list(map(type, leaves)).count(int))):
        coerce = field.coerce
        ents = (tuple([tuple([tuple(map(coerce, row)) for row in plane]) for plane in ents])
                if deep else tuple([tuple(map(coerce, row)) for row in ents]))
    return ents


# -- matrices ----------------------------------------------------------------

@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix; ``entries`` is a row-major tuple of tuples.

    Public construction checks: entries are coerced into the field by
    ``_field_table``, and every row has one length.  ``_of`` trusts kernel
    output only.
    """

    _noun = "matrix"
    field: FieldSpec
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", _field_table(self.field, self.entries, (None, ...)))

    @classmethod
    def _of(cls, field: FieldSpec, entries: tuple) -> "Matrix":
        """The matrix of ``entries`` as given: tuple rows of one length of scalars of ``field``."""
        m = object.__new__(cls)
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "entries", entries)
        return m

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        _expect(field, FieldSpec)
        _check_size(n)
        one, zero = field.one, field.zero
        # n rows of n of the field's own one and zero
        return cls._of(field, tuple(tuple(one if i == j else zero for j in range(n))
                                    for i in range(n)))

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "Matrix":
        _expect(field, FieldSpec)
        _check_size(rows, "row count")
        _check_size(cols, "column count")
        if cols and not rows:
            raise DimensionMismatchError(f"a matrix with no rows cannot have {cols} columns")
        # rows rows of cols of the field's own zero
        return cls._of(field, ((field.zero,) * cols,) * rows)

    @classmethod
    def from_columns(cls, field: FieldSpec, columns: Sequence[Sequence]) -> "Matrix":
        """The transpose of the matrix whose rows are ``columns``."""
        t = cls(field, columns)  # k > 0 empty columns are a 0 x k matrix, refused by zeros
        return cls(field, tuple(zip(*t.entries))) if t.cols else cls.zeros(field, 0, t.rows)

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    def columns(self) -> list:
        return [self.col(j) for j in range(self.cols)]

    def matvec(self, v: Sequence) -> tuple:
        f = self.field
        v = _field_vector(f, v, self.cols, "matvec: the vector")
        columns = tuple(zip(*self.entries))
        return _combine(v, columns, f.p, f.zero) if columns else (f.zero,) * self.rows

    def mul(self, other: "Matrix") -> "Matrix":
        _expect(other, Matrix)
        same_field(self.field, other.field)
        if self.cols != other.rows:
            raise DimensionMismatchError(f"mul: {self.cols} vs {other.rows}")
        f = self.field
        # one _combine of other's rows per row of self: rows of other.cols scalars of f
        return Matrix._of(f, tuple(_combine(r, other.entries, f.p, f.zero)
                                   for r in self.entries))

    __mul__ = mul

    def scale(self, c) -> "Matrix":
        f = self.field
        c = f.coerce(c)
        # one _combine per row, of the row's own length: in f and in self's shape
        return Matrix._of(f, tuple(_combine((c,), (row,), f.p, f.zero) for row in self.entries))

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.entries for a in r)

    def is_identity(self) -> bool:
        if not self.is_square:
            return False
        one = self.field.one
        return all(a == (one if i == j else 0)
                   for i, r in enumerate(self.entries) for j, a in enumerate(r))


# -- elimination -------------------------------------------------------------

def _rref(rows: list, field: FieldSpec, col_order: Sequence[int]) -> list:
    """Reduce ``rows`` in place to reduced echelon form along ``col_order``.

    Returns the pivot list [(row, col), ...] in elimination order.  Pivot
    selection is deterministic: first column in ``col_order`` with a nonzero
    entry in the lowest unused row.
    """
    p, zero = field.p, field.zero
    m = len(rows)
    pivots = []
    r = 0
    for c in col_order:
        if r == m:
            break
        pr = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        if inv != field.one:
            rows[r] = _combine((inv,), (rows[r],), p, zero)
        for i in range(m):
            if i != r and rows[i][c] != 0:
                rows[i] = _combine((1, -rows[i][c]), (rows[i], rows[r]), p, zero)
        pivots.append((r, c))
        r += 1
    return pivots


def rank(M: Matrix) -> int:
    _expect(M, Matrix)
    rows = [list(r) for r in M.entries]
    return len(_rref(rows, M.field, range(M.cols)))


def _require_invertible(M: Matrix, field: FieldSpec, n: int, what: str) -> Matrix:
    """M^{-1}, once ``M`` is an invertible n x n matrix over ``field``.

    The one refusal rule for witness and transport matrices, in a fixed
    order: the class (``KindMismatchError``), the field
    (``FieldMismatchError``), then the shape (``DimensionMismatchError``),
    then the rank, read off the elimination that inverts ``M``
    (``NotInvertibleError``).
    """
    _expect(M, Matrix)
    same_field(field, M.field)
    if M.rows != n or M.cols != n:
        raise DimensionMismatchError(f"{what} must be {n} x {n}, got {M.rows} x {M.cols}")
    try:
        return invert(M)
    except SingularMatrixError:
        raise NotInvertibleError(f"{what} is singular") from None


def kernel_basis(M: Matrix) -> list:
    """Canonical basis of the null space {v : Mv = 0}; empty iff injective."""
    _expect(M, Matrix)
    f = M.field
    rows = [list(r) for r in M.entries]
    pivots = _rref(rows, f, range(M.cols))
    pivot_cols = {c: r for r, c in pivots}
    free_cols = [c for c in range(M.cols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = [f.zero] * M.cols
        v[fc] = f.one
        for r, c in pivots:
            v[c] = f.neg(rows[r][fc])
        basis.append(tuple(v))
    return basis


def invert(M: Matrix) -> Matrix:
    """Exact inverse; raises ``SingularMatrixError`` when none exists.

    The inverse is kept on ``M``, and ``M`` on it, outside their fields, so
    no matrix is eliminated twice to invert it; a singular matrix keeps
    nothing.
    """
    _expect(M, Matrix)
    if "_inverse" in vars(M):
        return vars(M)["_inverse"]
    if not M.is_square:
        raise DimensionMismatchError("invert: matrix not square")
    f, n = M.field, M.rows
    one, zero = f.one, f.zero
    rows = [list(r) + [one if i == j else zero for j in range(n)]
            for i, r in enumerate(M.entries)]
    pivots = _rref(rows, f, range(n))
    if len(pivots) < n:
        raise SingularMatrixError("matrix is singular")
    # _rref rows over f, from M's checked entries, one and zero: n rows of n scalars of f
    inverse = Matrix._of(f, tuple(tuple(rows[i][n:]) for i in range(n)))
    vars(M)["_inverse"], vars(inverse)["_inverse"] = inverse, M
    return inverse


def solve(M: Matrix, b: Sequence, pivot_rule: str = "first") -> tuple:
    """Some x with Mx = b, free coordinates set to zero.

    ``pivot_rule`` fixes which coordinates are treated as free: "first"
    eliminates columns left to right (earliest columns become pivots),
    "last" right to left.  Raises ``NoSolutionError`` if b is outside the
    column span.
    """
    _expect(M, Matrix)
    f = M.field
    b = _field_vector(f, b, M.rows, "solve: the right-hand side")
    if pivot_rule == "first":
        order = range(M.cols)
    elif pivot_rule == "last":
        order = range(M.cols - 1, -1, -1)
    else:
        raise ArgumentError(f"unknown pivot rule {pivot_rule!r}")
    rows = [list(r) + [bb] for r, bb in zip(M.entries, b)]
    pivots = _rref(rows, f, order)
    for i in range(len(rows)):
        if rows[i][-1] != 0 and all(a == 0 for a in rows[i][:-1]):
            raise NoSolutionError("rhs not in column span")
    x = [f.zero] * M.cols
    for r, c in pivots:
        x[c] = rows[r][-1]
    return tuple(x)


def in_span(vectors: Sequence[Sequence], v: Sequence, field: FieldSpec) -> bool:
    """Exact membership of v in the linear span of ``vectors``."""
    span = Matrix(field, vectors)
    v = _field_vector(field, v, span.cols if span.rows else None, "in_span: the vector")
    if not span.rows:
        return not any(v)
    return rank(Matrix(field, span.entries + (v,))) == rank(span)


def column_space_basis(M: Matrix) -> list:
    """Canonical (reduced-echelon) basis of the column space of M.

    For invertible M this is the standard basis, which keeps structures
    expressed on an operator's range independent of the operator's own
    column scaling.
    """
    rows = [list(M.col(j)) for j in range(M.cols)]
    pivots = _rref(rows, M.field, range(M.rows))
    return [tuple(rows[r]) for r, _ in pivots]


# -- structure tensors -------------------------------------------------------

@dataclass(frozen=True)
class StructureTensor:
    """Coordinates c[i][j][k] of a bilinear product: b_i * b_j = sum_k c[i][j][k] b_k.

    Public construction checks: entries are coerced into the field by
    ``_field_table``, as an n x n x n table.  ``_of`` trusts kernel output
    only.
    """

    _noun = "structure tensor"
    field: FieldSpec
    entries: tuple

    def __post_init__(self):
        cube = _field_table(self.field, self.entries, (None, None, None))
        object.__setattr__(self, "entries", cube)

    @classmethod
    def _of(cls, field: FieldSpec, entries: tuple) -> "StructureTensor":
        """The tensor of ``entries`` as given: an n x n x n tuple table of scalars of ``field``."""
        t = object.__new__(cls)
        object.__setattr__(t, "field", field)
        object.__setattr__(t, "entries", entries)
        return t

    @property
    def dim(self) -> int:
        return len(self.entries)

    @classmethod
    def zero(cls, field: FieldSpec, dim: int) -> "StructureTensor":
        _expect(field, FieldSpec)
        _check_size(dim)
        # dim x dim x dim of the field's own zero
        return cls._of(field, (((field.zero,) * dim,) * dim,) * dim)

    @classmethod
    def from_triples(cls, field: FieldSpec, dim: int, triples: Iterable) -> "StructureTensor":
        """Build from sparse entries {(i, j, k): c}; unlisted entries are zero.

        ``triples`` that ``dict`` cannot read as such pairs, or a key that is
        not a 3-tuple of non-bool ints, raises ``ArgumentError``, as
        ``_check_size`` does; an index outside ``range(dim)``,
        ``DimensionMismatchError``.
        """
        _expect(field, FieldSpec)
        _check_size(dim)
        grid = [[[field.zero] * dim for _ in range(dim)] for _ in range(dim)]
        try:
            triples = dict(triples)
        except (TypeError, ValueError):
            raise ArgumentError(
                f"triples must map (i, j, k) to a scalar, got {triples!r}") from None
        for key, c in triples.items():
            if key.__class__ is not tuple or len(key) != 3 or set(map(type, key)) != _INT:
                raise ArgumentError(f"tensor index must be a triple of ints, got {key!r}")
            i, j, k = key
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise DimensionMismatchError(
                    f"tensor index ({i},{j},{k}) out of range for dim {dim}")
            grid[i][j][k] = c
        return cls(field, tuple(tuple(tuple(row) for row in plane) for plane in grid))

    def row(self, i: int, j: int) -> tuple:
        """Coordinates of b_i * b_j."""
        return self.entries[i][j]

    def apply(self, u: Sequence, v: Sequence) -> tuple:
        """Bilinear extension: coordinates of u * v."""
        f, n = self.field, self.dim
        u = _field_vector(f, u, n, "apply: the left factor")
        v = _field_vector(f, v, n, "apply: the right factor")
        return _combine([a * b if a and b else 0 for a in u for b in v],
                        sum(self.entries, ()), f.p, f.zero)

    def scale(self, c) -> "StructureTensor":
        f = self.field
        c = f.coerce(c)
        # one _combine per entry, of the entry's own length: in f and in self's shape
        return StructureTensor._of(f, tuple(
            tuple(_combine((c,), (row,), f.p, f.zero) for row in plane)
            for plane in self.entries))

    def is_zero(self) -> bool:
        return all(a == 0 for plane in self.entries for row in plane for a in row)

    def nonzero_triples(self) -> list:
        """Sorted sparse form [((i, j, k), c), ...] of the nonzero entries."""
        out = []
        for i, plane in enumerate(self.entries):
            for j, row in enumerate(plane):
                for k, c in enumerate(row):
                    if c != 0:
                        out.append(((i, j, k), c))
        return out
