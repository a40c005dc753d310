"""Algebraic structures on structure constants, and their exhaustive validators.

Everything is finite dimensional over an exact field.  A product is a
``StructureTensor``; actions are bilinear tables of the same nesting (the
action layout below).  Validators scan every basis instance of every
defining identity (multilinearity makes that equivalent to the identity
holding on all elements) and report the violations found, up to a
configurable cap.

Every identity the package checks has one of two shapes, and each shape has
one walk of its instances here and one scan on that walk; an identity is a
data row for it.  A scan is a generator that yields ``(axiom, indices,
lhs, rhs)`` for each failing instance, in the walk's fixed order.  The F_p
searches (``enumeration``) read the same walks, so they test exactly the
instances the validators scan:

* compositions ``(x a y) b z = x c (y d z)`` of bilinear maps, walked by
  ``_composition_instances`` on basis triples and scanned by
  ``_composition_failures``.  A row is ``(axiom, positions, reported_lhs,
  a, b, c, d)``: which entries of the reported index tuple play x, y and z,
  which side (``OUTER`` or ``INNER``) is reported as lhs, and the four
  products as indices into the validator's tables.  Module actions count as
  bilinear maps ``l: A x M -> M`` and ``r: M x A -> M``, and the star
  product ``prec + succ (+ dot)`` of a dendriform structure is one more
  table, summed once before the scan.  Associativity, the dendriform di-
  and trialgebra axioms and the bimodule(-algebra) laws are such rows.
* homomorphisms ``F(x o y) = F(x) o' F(y)``, walked by
  ``_homomorphism_instances`` on basis pairs and scanned by
  ``_homomorphism_failures``.  A row is ``(axiom, fcols, source_row,
  target, image_is_lhs)``: the columns of F, the coordinates of
  ``b_i o b_j`` as a function of (i, j), the nested table of ``o'``, and
  whether ``F(x o y)`` or ``F(x) o' F(y)`` is reported as lhs.  Besides
  isomorphism and multiplicativity checks this covers the Rota-Baxter and
  O-operator relations: an O-operator is exactly a homomorphism out of the
  star product ``l(alpha x) y + x r(alpha y) + weight x o y`` it induces on
  its source (``operators._induced``).

Both scans read raw nested tuples, not structure objects.  Each checked
object runs its own scan in ``_failures()`` and keeps its verdict
(``_Checked``).  The public validators turn a scan into a
``ValidationReport`` and record its verdict (``_validate``); a caller that
needs only the verdict, such as the F_p isomorphism search, takes
``next(failures, None) is None`` and builds no report and no objects.  A
construction refuses invalid input through ``_require_holds``.

Action layout: a bimodule over an algebra with basis ``b_i`` holds its
actions as the tables of the bilinear maps ``l: A x M -> M`` and
``r: M x A -> M``, each indexed by its arguments in order: ``left[i][j]``
holds the coordinates of ``l(b_i) e_j`` and ``right[j][i]`` those of
``e_j r(b_i)``.  The scans read them as they read a product table.
Documents keep one flat matrix per basis element instead
(``documents``), and convert at that boundary only.  Every structure an
operator moves (its domain and range products, a pulled-back or twisted
domain, both sides of an intertwining law) moves the two action tables
by one rule, ``_moved_actions``: its acting argument along one map, its
module argument along another and its value along a third.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, fields
from functools import cached_property
from itertools import combinations, product
from operator import attrgetter
from typing import Sequence

from .errors import DimensionMismatchError, FieldMismatchError, NotAssociativeError, _expect
from .fields import FieldSpec, same_field
from .linalg import StructureTensor, _check_size, _combine, _field_table, _transport

DEFAULT_MAX_VIOLATIONS = 5


# -- validation reports --------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    """One failed axiom instance: basis indices plus both sides' coordinates."""

    axiom: str
    indices: tuple
    lhs: tuple
    rhs: tuple


@dataclass(frozen=True)
class ValidationReport:
    structure_kind: str
    passed: bool
    violations: tuple
    total_violations: int

    def first(self) -> Violation | None:
        return self.violations[0] if self.violations else None


def _collect(kind: str, failures, max_violations: int = DEFAULT_MAX_VIOLATIONS,
             early_stop: bool = False) -> ValidationReport:
    """Report on the failures a scan yields, keeping the first ``max_violations``.

    With ``early_stop`` the scan is not resumed after its first failure.
    A ``max_violations`` that is not an ``int`` >= 0 raises ``ArgumentError``.
    """
    _check_size(max_violations, "max_violations")
    kept = []
    total = 0
    for axiom, indices, lhs, rhs in failures:
        total += 1
        if total <= max_violations:
            kept.append(Violation(axiom, indices, tuple(lhs), tuple(rhs)))
        if early_stop:
            break
    return ValidationReport(kind, total == 0, tuple(kept), total)


def _require(failures, error, message: str) -> None:
    """Raise ``error`` at the first of ``failures``, ``message`` naming its axiom and indices."""
    first = next(failures, None)
    if first is not None:
        raise error(message.format(axiom=first[0], indices=first[1]))


# -- kept verdicts -----------------------------------------------------------------

class _Checked:
    """Base of every object a validator checks: its scan and its kept verdict.

    ``_failures()`` yields ``(axiom, indices, lhs, rhs)`` for each failing
    instance of the object's own identities, in its validator's order.
    ``_holds`` is the verdict of that scan, early-stopped, computed on first
    use and kept like the data of the ``Algebra`` note.  It is recorded in
    advance where it is already proved: by the object's validator, whose
    report scanned every instance when it passed, by the F_p enumerators,
    whose searches test every instance on every leaf, and by the
    constructions that preserve it (``operators``, ``constructions``).  A
    refusal names each subclass by its ``_noun``.
    """

    @cached_property
    def _holds(self) -> bool:
        return next(self._failures(), None) is None


def _keep(obj, verdict: bool | None):
    """``obj`` carrying ``verdict``, checked or proved, as ``_holds``; None leaves it unknown."""
    if verdict is not None:
        vars(obj)["_holds"] = verdict
    return obj


def _known(obj) -> bool | None:
    """The verdict of ``obj`` if it was computed or recorded, else None; never scans."""
    return vars(obj).get("_holds")


def _validate(obj, cls, kind: str, max_violations: int = DEFAULT_MAX_VIOLATIONS,
              early_stop: bool = False) -> ValidationReport:
    """Report on the failures of ``obj``, once it is a ``cls``, and keep its verdict on it."""
    _expect(obj, cls)
    report = _collect(kind, obj._failures(), max_violations, early_stop)
    _keep(obj, report.passed)
    return report


def _require_holds(obj, error, message: str) -> None:
    """``_require`` on the failures of ``obj``, scanned again only if its verdict is false."""
    if not obj._holds:
        _require(obj._failures(), error, message)


# -- structures ----------------------------------------------------------------

def _square_classes(d) -> dict:
    """Class of each vector w of F_p^n, as a dict keyed by its coordinates.

    For each product o of ``d`` the class records whether ``w o w`` is zero
    and whether it is parallel to w (every 2 x 2 minor of ``[w, w o w]``
    vanishes).  An isomorphism F maps ``w o w`` to ``F(w) o' F(w)``, so
    ``F(w)`` has the class of w; the F_p isomorphism search draws each
    column from the vectors of its basis vector's class.  Kept on the
    instance, like ``Algebra._canonical_bimodule``; prime fields only.
    """
    p, n = d.field.p, d.dim
    flats = [sum(t.entries, ()) for t in d.tensors()]
    classes = {}
    for w in product(range(p), repeat=n):
        pairs = [a * b if a and b else 0 for a in w for b in w]
        key = []
        for flat in flats:
            ww = _combine(pairs, flat, p, 0)
            key += (not any(ww), all((w[i] * ww[j] - w[j] * ww[i]) % p == 0
                                     for i, j in combinations(range(n), 2)))
        classes[w] = tuple(key)
    return classes


class _Tables(_Checked):
    """Base of the structures given by product tables alone.

    ``Algebra``, ``DendriformDi`` and ``DendriformTri`` list their tables in
    ``tensors()``, in field order, and read ``field`` and ``dim`` directly
    off the first one; construction checks that every table is a
    ``StructureTensor`` and that all agree in both.
    """

    def __post_init__(self):
        tensors = self.tensors()
        for t in tensors:
            _expect(t, StructureTensor)
        first, *rest = tensors
        n, field = first.dim, first.field
        for t in rest:
            if t.dim != n:
                names = [f.name for f in fields(self)][:-1]
                raise DimensionMismatchError(f"{'/'.join(names)} dimension mismatch")
        for t in rest:
            # tables built together share one FieldSpec; compare values only otherwise
            if t.field is not field:
                same_field(field, t.field)

    _vector_classes = cached_property(_square_classes)

    def _failures(self):
        """Failures of the structure's axioms, its star product the sum of its tables."""
        n = self.dim
        tables = [t.entries for t in self.tensors()]
        if len(tables) > 1:
            tables.append(_table_sum(self.field, tables))
        return _composition_failures(self.field, tables, (((n, n, n), _AXIOMS[type(self)]),))


@dataclass(frozen=True)
class Algebra(_Tables):
    """Bilinear product on a finite free module; associativity is checked, not assumed.

    Structures are immutable, so data derived from their fields (here the
    canonical bimodule, on an enumerated dialgebra its star ``_star``, on
    every checked object its verdict ``_holds``)
    is computed on first use and kept on the instance.  It takes no part
    in equality, hashing, ``repr`` or documents, which read the fields only.
    """

    _noun = "algebra"
    product: StructureTensor
    name: str | None = dc_field(default=None, compare=False)

    field = property(attrgetter("product.field"))
    dim = property(attrgetter("product.dim"))

    def tensors(self) -> tuple:
        return (self.product,)

    @cached_property
    def _canonical_bimodule(self) -> "BimoduleAlgebra":
        _require_holds(self, NotAssociativeError,
                       "algebra is not associative (first violation at {indices})")
        c = self.product
        # both actions are the checked n x n x n product table, as the action layout reads it
        return BimoduleAlgebra(Bimodule._of(self, c.entries, c.entries), c)


def _moved_actions(field: FieldSpec, left, right, acting, module, value) -> tuple:
    """The action tables (``left``, ``right``) moved along three linear maps.

    Each map is a list of columns, None for the identity (``_transport``).
    The moved tables keep the action layout: the moved left table is
    (x, v) -> value(l(acting x) (module v)) and the moved right table
    (v, x) -> value((module v) r(acting x)).
    """
    return (_transport(field, left, acting, module, value),
            _transport(field, right, module, acting, value))


@dataclass(frozen=True)
class Bimodule(_Checked):
    """Module with compatible left and right actions of ``algebra``.

    ``left[i][j]`` holds the coordinates of ``l(b_i) e_j`` and
    ``right[j][i]`` those of ``e_j r(b_i)``: an n x m x m and an m x n x m
    table, n the algebra's dimension and m the module's, the length of
    ``right``.  Public construction checks: both pass
    ``linalg._field_table`` over the algebra's field.  ``_of`` trusts
    kernel output only.
    """

    _noun = "bimodule"
    algebra: Algebra
    left: tuple
    right: tuple

    def __post_init__(self):
        _expect(self.algebra, Algebra)
        f, n = self.algebra.field, self.algebra.dim
        right = _field_table(f, self.right, (None, n, None))
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "left", _field_table(f, self.left, (n, len(right), len(right))))

    @classmethod
    def _of(cls, algebra: Algebra, left: tuple, right: tuple) -> "Bimodule":
        """The bimodule of ``left`` and ``right`` as given: tuple tables over the
        algebra's field in the action layout."""
        bm = object.__new__(cls)
        object.__setattr__(bm, "algebra", algebra)
        object.__setattr__(bm, "left", left)
        object.__setattr__(bm, "right", right)
        return bm

    @property
    def field(self) -> FieldSpec:
        return self.algebra.field

    @property
    def dim(self) -> int:
        return len(self.right)

    def _failures(self):
        """Failures of the bimodule laws, on (algebra, algebra, module) basis triples."""
        n, m = self.algebra.dim, self.dim
        tables = (self.algebra.product.entries, self.left, self.right)
        return _composition_failures(self.field, tables, (((n, n, m), _BIMODULE),))


@dataclass(frozen=True)
class BimoduleAlgebra(_Checked):
    """A bimodule carrying its own product, compatible with both actions.

    The product is an m x m x m table over the bimodule's field, m the
    module's dimension.
    """

    _noun = "bimodule algebra"
    base: Bimodule
    product: StructureTensor

    def __post_init__(self):
        _expect(self.base, Bimodule)
        _expect(self.product, StructureTensor)
        _field_table(self.product.field, self.product.entries, (self.dim,) * 3)
        same_field(self.product.field, self.base.field)

    @property
    def algebra(self) -> Algebra:
        return self.base.algebra

    @property
    def left(self) -> tuple:
        return self.base.left

    @property
    def right(self) -> tuple:
        return self.base.right

    @property
    def field(self) -> FieldSpec:
        return self.base.field

    @property
    def dim(self) -> int:
        return self.base.dim

    def _failures(self):
        """Failures of the bimodule, compatibility and product associativity laws."""
        n, m = self.algebra.dim, self.dim
        tables = (self.algebra.product.entries, self.left, self.right, self.product.entries)
        groups = (((n, n, m), _BIMODULE), ((n, m, m), _BIMODULE_ALGEBRA),
                  ((m, m, m), _PRODUCT_ASSOCIATIVITY))
        return _composition_failures(self.field, tables, groups)


@dataclass(frozen=True)
class DendriformDi(_Tables):
    """Pair of products (prec, succ) subject to the three dialgebra axioms."""

    _noun = "dialgebra"
    prec: StructureTensor
    succ: StructureTensor
    name: str | None = dc_field(default=None, compare=False)

    field = property(attrgetter("prec.field"))
    dim = property(attrgetter("prec.dim"))

    def tensors(self) -> tuple:
        return (self.prec, self.succ)


@dataclass(frozen=True)
class DendriformTri(_Tables):
    """Triple of products (prec, succ, dot) subject to the seven trialgebra axioms."""

    _noun = "trialgebra"
    prec: StructureTensor
    succ: StructureTensor
    dot: StructureTensor
    name: str | None = dc_field(default=None, compare=False)

    field = property(attrgetter("prec.field"))
    dim = property(attrgetter("prec.dim"))

    def tensors(self) -> tuple:
        return (self.prec, self.succ, self.dot)


# -- convenience constructors ----------------------------------------------------

def make_algebra(field: FieldSpec, dim: int, triples, name: str | None = None) -> Algebra:
    return Algebra(StructureTensor.from_triples(field, dim, triples), name=name)


def make_dendriform_di(field: FieldSpec, dim: int, prec, succ,
                       name: str | None = None) -> DendriformDi:
    return DendriformDi(StructureTensor.from_triples(field, dim, prec),
                        StructureTensor.from_triples(field, dim, succ), name=name)


def make_dendriform_tri(field: FieldSpec, dim: int, prec, succ, dot,
                        name: str | None = None) -> DendriformTri:
    return DendriformTri(StructureTensor.from_triples(field, dim, prec),
                         StructureTensor.from_triples(field, dim, succ),
                         StructureTensor.from_triples(field, dim, dot), name=name)


# -- the identity engine -----------------------------------------------------------

# Positions of x, y, z in the reported index tuple, and which side is reported as lhs.
XYZ = (0, 1, 2)
OUTER, INNER = "(xy)z", "x(yz)"


def _transpose(table) -> tuple:
    return tuple(zip(*table))


def _table_sum(field: FieldSpec, tables: Sequence) -> tuple:
    """Entrywise sum of nested product tables: the table of the star product."""
    p, zero = field.p, field.zero
    ones = (1,) * len(tables)
    return tuple(tuple(_combine(ones, rows, p, zero) for rows in zip(*planes))
                 for planes in zip(*tables))


def _composition_instances(groups):
    """Yield ``(axiom, indices, reported_lhs, a, b, c, d, x, y, z)`` for each instance.

    ``groups`` is a sequence of ``(sizes, rows)``: the index tuples run
    lexicographically over ``range(sizes[0]) x range(sizes[1]) x
    range(sizes[2])``, and every row (module docstring) is taken on each
    tuple in row order, its positions placing x, y and z.  This is the one
    walk of the instances: the scan below and the F_p table search
    (``enumeration._table_leaves``) both read it.
    """
    for sizes, rows in groups:
        for idx in product(*map(range, sizes)):
            for axiom, (px, py, pz), lhs, a, b, c, d in rows:
                yield axiom, idx, lhs, a, b, c, d, idx[px], idx[py], idx[pz]


def _composition_failures(field: FieldSpec, tables: Sequence, groups):
    """Yield ``(axiom, indices, lhs, rhs)`` for each failing instance of ``groups``.

    ``tables[r][u][v]`` holds the coordinates of ``b_u r b_v``, as nested
    tuples; instances come in ``_composition_instances`` order.
    """
    p, zero = field.p, field.zero
    for axiom, idx, lhs, a, b, c, d, x, y, z in _composition_instances(groups):
        outer = _combine(tables[a][x][y], tables[b], p, zero, z)
        inner = _combine(tables[d][y][z], tables[c][x], p, zero)
        if outer != inner:
            yield ((axiom, idx, outer, inner) if lhs == OUTER
                   else (axiom, idx, inner, outer))


def _homomorphism_instances(rows):
    """Yield ``(axiom, fcols, source_row, flat, image_is_lhs, i, j)`` for each instance.

    A row is ``(axiom, fcols, source_row, target, image_is_lhs)``: ``fcols``
    are the columns of F, ``source_row(i, j)`` gives the coordinates of
    ``b_i o b_j`` and ``target`` is the nested table of ``o'``, given
    flattened as ``flat``.  Pairs run lexicographically within each row,
    rows in order.  The scan below and the F_p column search
    (``enumeration._column_leaves``) both read this walk.
    """
    for axiom, fcols, source_row, target, image_is_lhs in rows:
        flat = sum(target, ())
        for i, j in product(range(len(fcols)), repeat=2):
            yield axiom, fcols, source_row, flat, image_is_lhs, i, j


def _homomorphism_failures(field: FieldSpec, rows):
    """Yield ``(axiom, (i, j), lhs, rhs)`` for each failing instance of ``rows``."""
    p, zero = field.p, field.zero
    for axiom, fcols, source_row, flat, image_is_lhs, i, j in _homomorphism_instances(rows):
        image = _combine(source_row(i, j), fcols, p, zero)
        value = _combine([a * b if a and b else 0 for a in fcols[i] for b in fcols[j]],
                         flat, p, zero)
        if image != value:
            yield ((axiom, (i, j), image, value) if image_is_lhs
                   else (axiom, (i, j), value, image))


# -- validators ------------------------------------------------------------------

# Table indices of each validator's products, and its identities as data rows.
# A dendriform validator's last table is its star product, the sum of the others.
PREC, SUCC, DOT = 0, 1, 2
STAR_DI, STAR_TRI = 2, 3
ALG, LEFT, RIGHT, MOD = 0, 1, 2, 3

_ASSOCIATIVITY = (("assoc", XYZ, OUTER, 0, 0, 0, 0),)

_DENDRIFORM_DI = (
    ("di1", XYZ, OUTER, PREC, PREC, PREC, STAR_DI),   # (x<y)<z = x<(y*z)
    ("di2", XYZ, OUTER, SUCC, PREC, SUCC, PREC),      # (x>y)<z = x>(y<z)
    ("di3", XYZ, OUTER, STAR_DI, SUCC, SUCC, SUCC),   # (x*y)>z = x>(y>z)
)

_DENDRIFORM_TRI = (
    ("tri1", XYZ, OUTER, PREC, PREC, PREC, STAR_TRI),  # (x<y)<z = x<(y*z)
    ("tri2", XYZ, OUTER, SUCC, PREC, SUCC, PREC),      # (x>y)<z = x>(y<z)
    ("tri3", XYZ, OUTER, STAR_TRI, SUCC, SUCC, SUCC),  # (x*y)>z = x>(y>z)
    ("tri4", XYZ, OUTER, SUCC, DOT, SUCC, DOT),       # (x>y).z = x>(y.z)
    ("tri5", XYZ, OUTER, PREC, DOT, DOT, SUCC),       # (x<y).z = x.(y>z)
    ("tri6", XYZ, OUTER, DOT, PREC, DOT, PREC),       # (x.y)<z = x.(y<z)
    ("tri7", XYZ, OUTER, DOT, DOT, DOT, DOT),         # (x.y).z = x.(y.z)
)

# Indices (i, j, k) = algebra, algebra, module basis; l = LEFT, r = RIGHT.
_BIMODULE = (
    # l(xy)v = l(x)l(y)v
    ("left_action_mult", XYZ, OUTER, ALG, LEFT, LEFT, LEFT),
    # v r(xy) = (v r(x)) r(y)
    ("right_action_mult", (2, 0, 1), INNER, RIGHT, RIGHT, RIGHT, ALG),
    # (l(x)v) r(y) = l(x)(v r(y))
    ("action_commute", (0, 2, 1), OUTER, LEFT, RIGHT, LEFT, RIGHT),
)

# Indices (i, j, k) = algebra, module, module basis; o = MOD.
_BIMODULE_ALGEBRA = (
    # l(x)(v o w) = (l(x)v) o w
    ("left_mult_compat", XYZ, INNER, LEFT, MOD, LEFT, MOD),
    # (v o w) r(x) = v o (w r(x))
    ("right_mult_compat", (1, 2, 0), OUTER, MOD, RIGHT, MOD, RIGHT),
    # (v r(x)) o w = v o (l(x) w)
    ("swap_mult_compat", (1, 0, 2), OUTER, RIGHT, MOD, MOD, LEFT),
)

_PRODUCT_ASSOCIATIVITY = (("product_assoc", XYZ, OUTER, MOD, MOD, MOD, MOD),)


# The axioms of each structure given by tables.
_AXIOMS = {Algebra: _ASSOCIATIVITY, DendriformDi: _DENDRIFORM_DI, DendriformTri: _DENDRIFORM_TRI}


def validate_associativity(alg: Algebra,
                           max_violations: int = DEFAULT_MAX_VIOLATIONS,
                           early_stop: bool = False) -> ValidationReport:
    """Check (b_i * b_j) * b_k = b_i * (b_j * b_k) over all basis triples."""
    return _validate(alg, Algebra, "algebra", max_violations, early_stop)


def validate_dendriform_di(d: DendriformDi,
                           max_violations: int = DEFAULT_MAX_VIOLATIONS,
                           early_stop: bool = False) -> ValidationReport:
    """Check the three dialgebra axioms (star = prec + succ) on all basis triples."""
    return _validate(d, DendriformDi, "dendriform_di", max_violations, early_stop)


def validate_dendriform_tri(t: DendriformTri,
                            max_violations: int = DEFAULT_MAX_VIOLATIONS,
                            early_stop: bool = False) -> ValidationReport:
    """Check the seven trialgebra axioms (star = prec + succ + dot)."""
    return _validate(t, DendriformTri, "dendriform_tri", max_violations, early_stop)


def validate_bimodule(bm: Bimodule,
                      max_violations: int = DEFAULT_MAX_VIOLATIONS,
                      early_stop: bool = False) -> ValidationReport:
    """Bimodule laws, checked on (algebra, algebra, module) basis triples.

    A bimodule algebra is checked, and its verdict kept, through its base.
    """
    base = bm.base if isinstance(bm, BimoduleAlgebra) else bm
    return _validate(base, Bimodule, "bimodule", max_violations, early_stop)


def validate_bimodule_algebra(ba: BimoduleAlgebra,
                              max_violations: int = DEFAULT_MAX_VIOLATIONS,
                              early_stop: bool = False) -> ValidationReport:
    """Bimodule laws plus action/product compatibility plus associativity of the product.

    The compatibility laws are checked on (algebra, module, module) basis triples.
    """
    return _validate(ba, BimoduleAlgebra, "bimodule_algebra", max_violations, early_stop)


# -- constructions ----------------------------------------------------------------

def star_product(d) -> Algebra:
    """Sum of the dendriform products; associative whenever the axioms hold.

    A dialgebra the F_p enumeration built keeps the star it was built over,
    as derived data (``_star``, like ``_holds``); that one is returned.
    Any other structure's tables are summed.
    """
    _expect(d, DendriformDi, DendriformTri)
    kept = vars(d).get("_star")
    if kept is not None:
        return kept
    tables = [t.entries for t in d.tensors()]
    # _table_sum is one _combine per entry of d's checked n x n x n tables: in field and shape
    return Algebra(StructureTensor._of(d.field, _table_sum(d.field, tables)))


def canonical_bimodule(alg: Algebra) -> BimoduleAlgebra:
    """The algebra acting on itself by left/right multiplication, with its own product.

    Built and checked once per algebra instance; raises ``NotAssociativeError``
    on every call for a non-associative algebra.
    """
    _expect(alg, Algebra)
    return alg._canonical_bimodule


# -- field transport ----------------------------------------------------------------

def tensor_to_field(t: StructureTensor, target: FieldSpec) -> StructureTensor:
    """Reinterpret a rational tensor over ``target`` (reduction mod p when prime).

    A tensor over any other field is only kept on its own field: there is
    no map F_p -> F_q or F_p -> Q, so another target raises
    ``FieldMismatchError``.
    """
    if t.field == target:
        return t
    if t.field.is_finite:
        raise FieldMismatchError(f"field mismatch: no map from {t.field} to {target}")
    conv = target.convert_from_rational
    return StructureTensor(target, tuple(
        tuple(tuple(conv(a) for a in row) for row in plane) for plane in t.entries))


def _to_field(s, target: FieldSpec):
    """``s`` with every table reinterpreted over ``target``; the name is kept."""
    _expect(s, Algebra, DendriformDi, DendriformTri)
    _expect(target, FieldSpec)
    return type(s)(*(tensor_to_field(t, target) for t in s.tensors()), name=s.name)


algebra_to_field = dendriform_di_to_field = dendriform_tri_to_field = _to_field
