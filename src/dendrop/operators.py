"""Rota-Baxter operators and relative (O-) operators, with their validators.

An operator is a linear map, stored as a matrix of column images, from a
bimodule (module kind) or a bimodule algebra (algebra kind, with a weight)
into its base algebra.  Transports along domain isomorphisms and range
automorphisms return fresh operators carrying the transported domain
structure explicitly.  Each moves the domain's action tables by the one
rule ``structures._moved_actions`` (acting argument, module argument,
value): a pulled-back domain along (None, h, h^{-1}), a twisted one along
(f^{-1}, None, None), and the intertwining check compares the source
moved along (None, None, g) with the target moved along (None, g, None).
Every transport matrix is checked by the one inversion of
``linalg._require_invertible``, and keeps the inverse it found.

Each operator keeps the verdict of its defining relation in ``_holds``, as
every checked object does (``structures._Checked``).  A construction that
provably preserves the relation hands a known verdict on to the operator it
returns, and never computes one that is not known:

* ``enumerate_rb_operators`` (in ``enumeration``): its search tests every
  instance of the relation, so each operator it returns holds it;
* ``rb_as_o_operator`` and ``rb_as_module_operator`` (weight zero): both
  actions of the canonical bimodule are the algebra's product, so the O-
  operator scan runs exactly the instances of ``validate_rota_baxter``;
* ``compose_with_domain_iso``, once g has passed its checks: for an
  isomorphism g of domain structures, alpha o g satisfies the relation
  exactly when alpha does (transport of structure);
* the canonical operators of ``constructions``, whose relation holds by
  construction.

The public validators always scan, return full reports and record their verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (DimensionMismatchError, KindMismatchError,
                     NotIntertwiningError, NotMultiplicativeError, _expect, _with_article)
from .fields import same_field
from .linalg import Matrix, StructureTensor, _combine, _require_invertible, _transport
from .structures import (Algebra, Bimodule, BimoduleAlgebra, DEFAULT_MAX_VIOLATIONS,
                         ValidationReport, canonical_bimodule, _Checked,
                         _homomorphism_failures, _keep, _known, _moved_actions, _require,
                         _transpose, _validate)

MODULE = "module"
ALGEBRA = "algebra"


@dataclass(frozen=True)
class RotaBaxterOperator(_Checked):
    """Square matrix P on an algebra, tested against the weight-lambda relation."""

    _noun = "Rota-Baxter operator"
    algebra: Algebra
    matrix: Matrix
    weight: object

    def __post_init__(self):
        _expect(self.algebra, Algebra)
        _expect(self.matrix, Matrix)
        same_field(self.matrix.field, self.algebra.field)
        object.__setattr__(self, "weight", self.algebra.field.coerce(self.weight))
        if self.matrix.rows != self.algebra.dim or not self.matrix.is_square:
            raise DimensionMismatchError("operator matrix must be dim x dim")

    def _failures(self):
        """Failures of the weight-lambda relation (see ``validate_rota_baxter``)."""
        product = self.algebra.product.entries
        return _o_relation_failures(self.algebra.field, "rb", product,
                                    _transpose(self.matrix.entries), product, product,
                                    self.weight, product)


@dataclass(frozen=True)
class OOperator(_Checked):
    """Linear map from a bimodule (module kind) or bimodule algebra (algebra kind).

    ``matrix`` is (dim codomain) x (dim domain); ``weight`` is present
    exactly for the algebra kind.
    """

    _noun = "O-operator"
    domain: object
    codomain: Algebra
    matrix: Matrix
    weight: object = None

    def __post_init__(self):
        _expect(self.domain, Bimodule, BimoduleAlgebra)
        if self.kind == ALGEBRA and self.weight is None:
            raise KindMismatchError("algebra-kind operator requires a weight")
        if self.kind == MODULE and self.weight is not None:
            raise KindMismatchError("module-kind operator carries no weight")
        _expect(self.codomain, Algebra)
        _expect(self.matrix, Matrix)
        if self.domain.algebra != self.codomain:
            raise DimensionMismatchError("domain is not a bimodule over the codomain algebra")
        same_field(self.matrix.field, self.codomain.field)
        if self.weight is not None:
            object.__setattr__(self, "weight", self.codomain.field.coerce(self.weight))
        if self.matrix.rows != self.codomain.dim or self.matrix.cols != self.domain.dim:
            raise DimensionMismatchError("operator matrix shape must be (dim A) x (dim domain)")

    @property
    def kind(self) -> str:
        return ALGEBRA if isinstance(self.domain, BimoduleAlgebra) else MODULE

    @property
    def field(self):
        return self.codomain.field

    def _failures(self):
        """Failures of the defining relation, of either kind."""
        source_product = (self.weight, self.domain.product.entries) if self.kind == ALGEBRA else ()
        return _o_relation_failures(self.field, "o_" + self.kind, self.codomain.product.entries,
                                    _transpose(self.matrix.entries), self.domain.left,
                                    self.domain.right, *source_product)


def _expect_kind(op: OOperator, kind: str) -> None:
    _expect(op, OOperator)
    if op.kind != kind:
        raise KindMismatchError(f"expected {_with_article(kind)}-kind operator")


# -- validators -----------------------------------------------------------------

def _induced(field, acols, left, right, weight=None, product=None):
    """The star product an operator induces on its source, as a function of a basis pair.

    ``acols`` are the operator's columns, ``left``/``right`` action tables
    (``left[t][j] = l(b_t) e_j``, ``right[i][t] = e_i r(b_t)``) and
    ``product`` the source product's table.  The star of (i, j) is
    ``b_i r(alpha b_j) + l(alpha b_i) b_j + weight (b_i o b_j)``, the sum
    of the products ``constructions._moved_products`` moves along
    (None, alpha, None) as tables.
    """
    p, zero = field.p, field.zero
    left_t = _transpose(left)
    if weight:
        def star(i, j):
            return _combine(acols[j] + acols[i] + (weight,),
                            right[i] + left_t[j] + (product[i][j],), p, zero)
    else:
        def star(i, j):
            return _combine(acols[j] + acols[i], right[i] + left_t[j], p, zero)
    return star


def _o_relation_row(field, axiom: str, target, acols, left, right, weight=None, product=None):
    """alpha(x) alpha(y) = alpha(x * y), * the star alpha induces on its source, as a scan row.

    ``target`` is the codomain's product table; the other arguments are
    those of ``_induced``.
    """
    return axiom, acols, _induced(field, acols, left, right, weight, product), target, False


def _o_relation_failures(field, *row):
    """Failures of the relation row ``_o_relation_row(field, *row)``: the one scan of it."""
    return _homomorphism_failures(field, (_o_relation_row(field, *row),))


def validate_rota_baxter(rb: RotaBaxterOperator,
                         max_violations: int = DEFAULT_MAX_VIOLATIONS,
                         early_stop: bool = False) -> ValidationReport:
    """Check P(x)P(y) = P(P(x)y) + P(xP(y)) + weight * P(xy) on basis pairs.

    This is the O-operator relation with both actions and the source
    product equal to the algebra's own product; associativity is not needed.
    """
    return _validate(rb, RotaBaxterOperator, "rota_baxter", max_violations, early_stop)


def validate_o_module(op: OOperator,
                      max_violations: int = DEFAULT_MAX_VIOLATIONS,
                      early_stop: bool = False) -> ValidationReport:
    """Check alpha(u)*alpha(v) = alpha(l(alpha(u))v) + alpha(u r(alpha(v)))."""
    _expect_kind(op, MODULE)
    return _validate(op, OOperator, "o_operator_module", max_violations, early_stop)


def validate_o_algebra(op: OOperator,
                       max_violations: int = DEFAULT_MAX_VIOLATIONS,
                       early_stop: bool = False) -> ValidationReport:
    """Module relation plus the weighted product term on the domain algebra."""
    _expect_kind(op, ALGEBRA)
    return _validate(op, OOperator, "o_operator_algebra", max_violations, early_stop)


def validate_o_operator(op: OOperator, **kw) -> ValidationReport:
    """The relation of ``op``, of whichever kind it is."""
    _expect(op, OOperator)
    return _validate(op, OOperator, "o_operator_" + op.kind, **kw)


# -- bridges ----------------------------------------------------------------------

def rb_as_o_operator(rb: RotaBaxterOperator) -> OOperator:
    """View a Rota-Baxter operator as an algebra-kind operator on the canonical bimodule."""
    _expect(rb, RotaBaxterOperator)
    dom = canonical_bimodule(rb.algebra)  # raises NotAssociativeError
    # the actions and the source product are rb's product: the scans agree instance for instance
    return _keep(OOperator(dom, rb.algebra, rb.matrix, rb.weight), _known(rb))


def rb_as_module_operator(rb: RotaBaxterOperator) -> OOperator:
    """Weight-zero module reading of a Rota-Baxter operator on the canonical bimodule."""
    _expect(rb, RotaBaxterOperator)
    if rb.weight != 0:
        raise KindMismatchError("module reading only exists at weight zero")
    dom = canonical_bimodule(rb.algebra).base
    # the actions are rb's product and the weight term is zero: the scans agree
    return _keep(OOperator(dom, rb.algebra, rb.matrix, None), _known(rb))


def with_zero_product(op: OOperator) -> OOperator:
    """Install the zero multiplication: module-kind operator as weight-zero algebra kind."""
    _expect_kind(op, MODULE)
    f = op.field
    dom = BimoduleAlgebra(op.domain, StructureTensor.zero(f, op.domain.dim))
    return OOperator(dom, op.codomain, op.matrix, f.zero)


def forget_product(op: OOperator) -> OOperator:
    """Underlying module-kind operator of a weight-zero algebra-kind operator."""
    _expect_kind(op, ALGEBRA)
    if op.weight != 0:
        raise KindMismatchError("module reading only exists at weight zero")
    return OOperator(op.domain.base, op.codomain, op.matrix, None)


# -- morphism predicates ------------------------------------------------------------

def multiplicativity_failure(fmat: Matrix, alg: Algebra):
    """First basis pair where f(x*y) != f(x)*f(y), or None if multiplicative."""
    _expect(fmat, Matrix)
    _expect(alg, Algebra)
    same_field(fmat.field, alg.field)
    if not fmat.is_square or fmat.rows != alg.dim:
        raise DimensionMismatchError("f must be square of the algebra's dimension")
    rows = (("mult", _transpose(fmat.entries), alg.product.row, alg.product.entries, True),)
    first = next(_homomorphism_failures(alg.field, rows), None)
    return None if first is None else first[1]


def is_multiplicative(fmat: Matrix, alg: Algebra) -> bool:
    return multiplicativity_failure(fmat, alg) is None


def _domain_morphism_failures(g: Matrix, source, target):
    """Yield the failures of g as a bimodule(-algebra) morphism source -> target.

    Checks, per algebra basis element b_i and module basis element e_k:
      intertwine_left   g(l1(b_i) e_k) = l(b_i) g(e_k)
      intertwine_right  g(e_k r1(b_i)) = g(e_k) r(b_i)
    and for algebra kind, on source basis pairs (j, k):
      intertwine_product  g(u o1 v) = g(u) o g(v)

    Each side of an intertwining law is an action table moved along g
    (``_moved_actions``): the source's on its values, the target's on its
    module argument.  Only the product law is a row of the homomorphism
    scan: the frozen report order interleaves the other two, left then
    right, for each (i, k), while a scan runs one row to the end before
    the next.
    """
    f, gcols = g.field, _transpose(g.entries)
    lg, rg = _moved_actions(f, source.left, source.right, None, None, gcols)
    gl, gr = _moved_actions(f, target.left, target.right, None, gcols, None)
    for i in range(source.algebra.dim):
        for k in range(source.dim):
            if lg[i][k] != gl[i][k]:
                yield "intertwine_left", (i, k), lg[i][k], gl[i][k]
            if rg[k][i] != gr[k][i]:
                yield "intertwine_right", (i, k), rg[k][i], gr[k][i]
    if isinstance(source, BimoduleAlgebra) and isinstance(target, BimoduleAlgebra):
        yield from _homomorphism_failures(f, (
            ("intertwine_product", gcols, source.product.row,
             target.product.entries, True),))


def _comparable_domains(source, target) -> None:
    """Refuse two operator domains of different kind, algebra or dimension."""
    if type(source) is not type(target):
        raise KindMismatchError(f"domain kinds differ: {type(source).__name__} "
                                f"vs {type(target).__name__}")
    if source.algebra != target.algebra:
        raise DimensionMismatchError("domains are over different algebras")
    if source.dim != target.dim:
        raise DimensionMismatchError(f"domain dimensions differ: {source.dim} vs {target.dim}")


# -- transports (new operators from old) ----------------------------------------------

def compose_with_domain_iso(op: OOperator, g: Matrix, source) -> OOperator:
    """Precompose with an isomorphism g : source -> op.domain of domain structures.

    The caller supplies the source structure; g and the intertwining
    identities are verified before composing, unless ``source`` is the
    very result of ``pullback_domain(op.domain, g)``, which checked g and
    made it an isomorphism.  Returns the operator alpha o g on ``source``
    with the same weight, and alpha's relation verdict if that one is known.
    As g intertwines the actions (and the products, for algebra kind), the
    relation of alpha o g at (u, v) is that of alpha at (g u, g v).  Both
    are bilinear and g is bijective, so one holds on all basis pairs
    exactly when the other does.  When alpha is the identity (every
    canonical operator), alpha o g is g, and the composite's matrix is g
    itself, which keeps the inverse its check found (``linalg.invert``).
    """
    _expect(op, OOperator)
    _comparable_domains(source, op.domain)
    domain, h = vars(source).get("_pulled_back", (None, None))
    if domain is not op.domain or h is not g:
        _require_invertible(g, op.field, source.dim, "domain iso candidate g")
        _require(_domain_morphism_failures(g, source, op.domain), NotIntertwiningError,
                 "g fails {axiom} at {indices}")
    matrix = g if op.matrix.is_identity() else op.matrix.mul(g)
    return _keep(OOperator(source, op.codomain, matrix, op.weight), _known(op))


def twist_by_range_automorphism(op: OOperator, fmat: Matrix) -> OOperator:
    """Postcompose with an algebra automorphism f of the codomain.

    Returns f o alpha on the same underlying space, with both actions
    precomposed with f^{-1} (the action of x becomes the action of f^{-1}x).
    """
    _expect(op, OOperator)
    finv = _require_invertible(fmat, op.field, op.codomain.dim, "range automorphism candidate f")
    bad = multiplicativity_failure(fmat, op.codomain)
    if bad is not None:
        raise NotMultiplicativeError(f"f is not multiplicative at basis pair {bad}")
    # the acting argument of each action table moves along f^{-1}; the moved tables are
    # _transport output along an n x n map: the checked tables' shapes, over the same field
    new_domain = Bimodule._of(op.codomain, *_moved_actions(
        op.field, op.domain.left, op.domain.right, _transpose(finv.entries), None, None))
    if op.kind == ALGEBRA:
        new_domain = BimoduleAlgebra(new_domain, op.domain.product)
    return OOperator(new_domain, op.codomain, fmat.mul(op.matrix), op.weight)


def pullback_domain(domain, h: Matrix):
    """Transport a domain structure along an invertible h so that h becomes an iso.

    Returns the structure S' with actions h^{-1} l(x) h, h^{-1} r(x) h (and
    product pulled back through h for algebra kind); h : S' -> domain is then
    an isomorphism of bimodule(-algebra) structures by construction.  S'
    records that it was pulled back from ``domain`` along ``h``, which
    ``compose_with_domain_iso`` reads.
    """
    _expect(domain, Bimodule, BimoduleAlgebra)
    hinv = _require_invertible(h, domain.field, domain.dim, "pullback matrix h")
    f, hcols, back = domain.field, _transpose(h.entries), _transpose(hinv.entries)
    # every module argument moves along h and every module value back along h^{-1}; each
    # table is _transport output along m x m maps: the checked table's shape, over f
    pulled = Bimodule._of(domain.algebra,
                          *_moved_actions(f, domain.left, domain.right, None, hcols, back))
    if isinstance(domain, BimoduleAlgebra):
        product = _transport(f, domain.product.entries, hcols, hcols, back)
        pulled = BimoduleAlgebra(pulled, StructureTensor._of(f, product))
    # the objects themselves, compared by identity (an id() could be reused)
    vars(pulled)["_pulled_back"] = (domain, h)
    return pulled
