import json
import pickle
import random
from dataclasses import fields
from fractions import Fraction

import pytest

import dendrop as dp
from dendrop.errors import (ArgumentError, BadRationalError, DimensionMismatchError,
                            FieldMismatchError, KindMismatchError, NotAssociativeError)
from dendrop.linalg import Matrix, StructureTensor
from dendrop.structures import (Violation, validate_associativity, validate_bimodule,
                                validate_bimodule_algebra,
                                validate_dendriform_di,
                                validate_dendriform_tri)
from helpers import F2, F3, F5, Q, action_tables, kx2, n2, zero_algebra

ONE = Fraction(1)


# -- associativity ---------------------------------------------------------------

def test_n2_is_associative():
    assert validate_associativity(n2()).passed


def test_non_associative_example_reports_first_triple():
    # e1*e1 = e2, e2*e1 = e1: (e1 e1) e1 = e1 while e1 (e1 e1) = e1*e2 = 0
    alg = dp.make_algebra(Q, 2, {(0, 0, 1): ONE, (1, 0, 0): ONE})
    rep = validate_associativity(alg)
    assert not rep.passed
    first = rep.first()
    assert first.axiom == "assoc"
    assert first.indices == (0, 0, 0)
    assert first.lhs == (ONE, Fraction(0))
    assert first.rhs == (Fraction(0), Fraction(0))


def test_truncated_polynomials_associative():
    assert validate_associativity(kx2()).passed


def test_validator_counts_all_violations_but_caps_details():
    alg = dp.make_algebra(Q, 2, {(0, 0, 1): ONE, (1, 0, 0): ONE})
    rep = validate_associativity(alg, max_violations=2)
    assert len(rep.violations) == 2
    assert rep.total_violations >= 2
    full = validate_associativity(alg, max_violations=100)
    assert full.total_violations == rep.total_violations
    early = validate_associativity(alg, max_violations=1, early_stop=True)
    assert not early.passed and len(early.violations) == 1


@pytest.mark.parametrize("bad", [-1, "x", 1.0, True, None])
def test_max_violations_must_be_a_count(bad):
    # -1 used to report total_violations=4 with none listed, "x" to raise a bare TypeError;
    # the count is refused before the scan, so a passing structure refuses it too
    failing = dp.make_algebra(Q, 2, {(0, 0, 1): ONE, (1, 0, 0): ONE})
    star = dp.star_product(dp.catalogue_entry("rb-4").structure)
    for call in (lambda: validate_associativity(failing, max_violations=bad),
                 lambda: validate_associativity(n2(), max_violations=bad),
                 lambda: dp.check_splitting(dp.catalogue_entry("rb-4").structure, star,
                                            max_violations=bad)):
        with pytest.raises(ArgumentError, match="^max_violations must be an int >= 0, got "):
            call()
    none_kept = validate_associativity(failing, max_violations=0)
    assert none_kept.violations == () and none_kept.total_violations == 4


# -- bimodules ---------------------------------------------------------------------

def one_dim_zero_bimodule(alg):
    z = Matrix.zeros(alg.field, 1, 1)
    return dp.Bimodule(alg, *action_tables((z,) * alg.dim, (z,) * alg.dim))


def test_zero_actions_give_a_bimodule():
    assert validate_bimodule(one_dim_zero_bimodule(n2())).passed


@pytest.mark.parametrize("bimodule_first", [True, False])
def test_bimodule_laws_of_a_bimodule_algebra_keep_no_verdict_on_it(bimodule_first):
    # zero actions of the 1-dimensional zero algebra on Q^2: a bimodule, but
    # the product e0 e0 = e1, e1 e0 = e0 is not associative
    z = Matrix.zeros(Q, 2, 2)
    ba = dp.BimoduleAlgebra(dp.Bimodule(zero_algebra(Q, 1), *action_tables((z,), (z,))),
                            StructureTensor.from_triples(Q, 2, {(0, 0, 1): 1, (1, 0, 0): 1}))
    checks = [validate_bimodule, validate_bimodule_algebra]
    if not bimodule_first:
        checks.reverse()
    reports = {}
    for check in checks:
        report = check(ba)
        reports[report.structure_kind] = report
        assert vars(ba).get("_holds") is not True
    assert reports["bimodule"].passed
    first = reports["bimodule_algebra"].first()
    assert (first.axiom, first.indices) == ("product_assoc", (0, 0, 0))
    # the bimodule laws are those of the base, which keeps their verdict
    assert vars(ba.base)["_holds"] is True


def test_canonical_bimodule_of_n2():
    ba = dp.canonical_bimodule(n2())
    assert validate_bimodule(ba.base).passed
    assert validate_bimodule_algebra(ba).passed
    # L(e1) = 0, L(e2): e2 -> e1; R identical by commutativity
    zero, l2 = ((0, 0), (0, 0)), ((0, 0), (1, 0))
    assert ba.left[0] == zero and ba.left[1] == l2
    assert ba.right[0] == zero and ba.right[1] == l2


def test_canonical_bimodule_of_kx2():
    ba = dp.canonical_bimodule(kx2())
    assert ba.left[0] == ((1, 0), (0, 1))   # L(e1) = id
    assert ba.left[1] == ((0, 1), (0, 0))   # L(e2): e1 -> e2, e2 -> 0
    assert validate_bimodule_algebra(ba).passed


def test_canonical_bimodule_of_zero_algebra():
    ba = dp.canonical_bimodule(zero_algebra(Q, 2))
    assert ba.left == ba.right == (((0, 0), (0, 0)),) * 2


def test_canonical_bimodule_requires_associativity():
    bad = dp.make_algebra(Q, 2, {(0, 0, 1): ONE, (1, 0, 0): ONE})
    with pytest.raises(NotAssociativeError):
        dp.canonical_bimodule(bad)


def test_canonical_bimodule_is_built_once_per_algebra():
    alg = kx2()
    assert dp.canonical_bimodule(alg) is dp.canonical_bimodule(alg)
    # an equal algebra is another instance, with its own (equal) canonical bimodule
    assert dp.canonical_bimodule(kx2()) == dp.canonical_bimodule(alg)


def test_non_associative_algebra_is_refused_on_every_call():
    bad = dp.make_algebra(Q, 2, {(0, 0, 1): ONE, (1, 0, 0): ONE})
    for _ in range(3):
        with pytest.raises(NotAssociativeError, match=r"first violation at \(0, 0, 0\)"):
            dp.canonical_bimodule(bad)


def _observed(obj):
    """Everything a caller sees of a structure besides its derived data."""
    copy = pickle.loads(pickle.dumps(obj))
    return obj, hash(obj), repr(obj), dp.emit_document(obj), copy, dp.emit_document(copy)


def test_derived_data_is_invisible_from_outside():
    kept, fresh = kx2(), kx2()
    before = _observed(kept)
    ba = dp.canonical_bimodule(kept)
    after = _observed(kept)
    assert after == before == _observed(fresh)
    assert kept == fresh and hash(kept) == hash(fresh)
    # a copy made after the cache was filled behaves as the original
    assert dp.canonical_bimodule(after[4]) == ba
    for structure, twin in ((ba.base, dp.canonical_bimodule(kx2()).base),
                            (ba, dp.canonical_bimodule(kx2()))):
        assert _observed(structure) == _observed(twin)


@pytest.mark.parametrize("make", [
    lambda: dp.make_dendriform_di(F3, 2, {(1, 1, 0): 1}, {(0, 1, 1): 2}),
    lambda: dp.make_dendriform_tri(F3, 2, {(1, 1, 0): 1}, {}, {(1, 1, 1): 1}),
], ids=["dialgebra", "trialgebra"])
def test_vector_classes_are_invisible_from_outside(make):
    kept, fresh = make(), make()
    before = _observed(kept)
    found = dp.search_dendriform_iso_fp(kept, kept)
    assert "_vector_classes" in vars(kept)
    after = _observed(kept)
    assert after == before == _observed(fresh)
    assert kept == fresh and hash(kept) == hash(fresh)
    # a copy made after the classes were filled searches as the original
    assert dp.search_dendriform_iso_fp(after[4], fresh) == found
    assert after[4]._vector_classes == fresh._vector_classes


HALVES = {(0, 0, 1): Fraction(1, 2), (1, 1, 0): Fraction(-3, 2), (0, 1, 1): Fraction(5, 4)}


def _with_halves(cls):
    """A structure of ``cls`` over Q whose every table has denominators 2 and 4."""
    tables = [StructureTensor.from_triples(Q, 2, {ijk: c * (r + 1) for ijk, c in HALVES.items()})
              for r in range(len(fields(cls)) - 1)]
    return cls(*tables, name=f"halves-{cls.__name__}")


TABLE_CLASSES = [dp.Algebra, dp.DendriformDi, dp.DendriformTri]


def _transport_to(d, field):
    return {dp.Algebra: dp.algebra_to_field, dp.DendriformDi: dp.dendriform_di_to_field,
            dp.DendriformTri: dp.dendriform_tri_to_field}[type(d)](d, field)


@pytest.mark.parametrize("cls", TABLE_CLASSES, ids=lambda c: c.__name__)
def test_derived_data_of_every_table_structure_is_invisible_from_outside(cls):
    kept, fresh = (_transport_to(_with_halves(cls), F3) for _ in range(2))
    before = _observed(kept)
    assert repr(kept).startswith(f"{cls.__name__}(")
    kept._vector_classes
    {dp.Algebra: validate_associativity, dp.DendriformDi: validate_dendriform_di,
     dp.DendriformTri: validate_dendriform_tri}[cls](kept)
    assert "_vector_classes" in vars(kept)
    after = _observed(kept)
    assert after == before == _observed(fresh)
    assert kept == fresh and hash(kept) == hash(fresh)
    assert after[4]._vector_classes == fresh._vector_classes


def test_action_tables_have_one_layout_in_documents_and_scans():
    # left[i][j] = l(b_i) e_j and right[j][i] = e_j r(b_i); a document holds, per
    # b_i, the flat row-major matrix whose column j is b_i acting on e_j
    algebra = dp.make_algebra(Q, 2, {(1, 1, 0): 1})
    left = (((1, 3), (2, 4)), ((5, 7), (6, 8)))
    right = (((9, 11), (13, 15)), ((10, 12), (14, 16)))
    bm = dp.Bimodule(algebra, left, right)
    assert (bm.left, bm.right, bm.dim) == (left, right, 2)
    data = dp.emit_document(bm)
    payload = json.loads(data)["payload"]
    assert payload["left_action"] == [["1", "2", "3", "4"], ["5", "6", "7", "8"]]
    assert payload["right_action"] == [["9", "10", "11", "12"], ["13", "14", "15", "16"]]
    assert dp.parse_document(data).payload == bm
    report = validate_bimodule(bm)
    assert report.total_violations == 24
    # l(b_1 b_1) e_1 = 0, while l(b_1) l(b_1) e_1 = l(b_1)(1, 3) = 1 (1, 3) + 3 (2, 4)
    assert report.first() == Violation("left_action_mult", (0, 0, 0), (0, 0), (7, 15))


def test_broken_left_action_fails_at_named_pair():
    # zero out L(e1) (the unit's action) in the canonical kx2 bimodule:
    # l(e1*e2) = L(e2) is nonzero but l(e1) l(e2) = 0.
    ba = dp.canonical_bimodule(kx2())
    broken = dp.Bimodule(ba.algebra, (((0, 0), (0, 0)), ba.left[1]), ba.right)
    rep = validate_bimodule(broken)
    assert not rep.passed
    assert any(v.axiom == "left_action_mult" and v.indices[:2] == (0, 1)
               for v in rep.violations)


def test_zeroing_l_e2_still_satisfies_the_laws():
    # replacing L(e2) by zero yields the evaluation action, a genuine bimodule
    ba = dp.canonical_bimodule(kx2())
    other = dp.Bimodule(ba.algebra, (ba.left[0], ((0, 0), (0, 0))),
                        tuple((row[0], (0, 0)) for row in ba.right))
    assert validate_bimodule(other).passed


# -- bimodule algebras ----------------------------------------------------------------

def test_zero_multiplication_always_upgrades():
    bm = one_dim_zero_bimodule(n2())
    ba = dp.BimoduleAlgebra(bm, StructureTensor.zero(Q, 1))
    assert validate_bimodule_algebra(ba).passed


def test_canonical_structure_is_bimodule_algebra():
    assert validate_bimodule_algebra(dp.canonical_bimodule(n2())).passed


def test_incompatible_product_fails():
    ba = dp.canonical_bimodule(n2())
    bad = dp.BimoduleAlgebra(ba.base,
                             StructureTensor.from_triples(Q, 2, {(0, 0, 1): ONE}))
    rep = validate_bimodule_algebra(bad, max_violations=50)
    assert not rep.passed
    # (e1 o e1) r(e2) = e2 r(e2) = e1 while e1 o (e1 r(e2)) = e1 o 0 = 0
    assert any(v.axiom == "right_mult_compat" and v.indices == (1, 0, 0)
               and v.lhs == (ONE, Fraction(0)) and v.rhs == (Fraction(0), Fraction(0))
               for v in rep.violations)


# -- dendriform validators ---------------------------------------------------------------

def test_catalogue_members_validate():
    rb2 = dp.catalogue_entry("rb-2").structure
    extra1 = dp.catalogue_entry("extra-1").structure
    assert validate_dendriform_di(rb2).passed
    assert validate_dendriform_di(extra1).passed


def test_dialgebra_axiom_failure_example():
    # e1<e1 = e2 and e1>e1 = e1 break axiom 1 at (e1, e1, e1)
    d = dp.make_dendriform_di(Q, 2, {(0, 0, 1): ONE}, {(0, 0, 0): ONE})
    rep = validate_dendriform_di(d)
    assert not rep.passed
    first = rep.first()
    assert first.axiom == "di1" and first.indices == (0, 0, 0)
    assert first.lhs == (Fraction(0), Fraction(0))
    assert first.rhs == (Fraction(0), ONE)


def test_trialgebra_with_zero_dot_reduces_to_dialgebra():
    rb2 = dp.catalogue_entry("rb-2").structure
    tri = dp.DendriformTri(rb2.prec, rb2.succ, StructureTensor.zero(Q, 2))
    assert validate_dendriform_tri(tri).passed


def test_trialgebra_nilpotent_example():
    tri = dp.make_dendriform_tri(Q, 2, {(1, 1, 0): ONE}, {(1, 1, 0): ONE},
                                 {(1, 1, 0): ONE})
    assert validate_dendriform_tri(tri).passed


def test_trialgebra_dot_axiom_failure_dim1():
    tri = dp.make_dendriform_tri(Q, 1, {(0, 0, 0): ONE}, {}, {(0, 0, 0): ONE})
    rep = validate_dendriform_tri(tri, max_violations=30)
    assert not rep.passed
    assert any(v.axiom == "tri5" and v.lhs == (ONE,) and v.rhs == (Fraction(0),)
               for v in rep.violations)


# -- star products ---------------------------------------------------------------------

TRI = dp.make_dendriform_tri(Q, 1, {}, {}, {(0, 0, 0): 2})


@pytest.mark.parametrize("validate, wrong, message", [
    # it used to pass, reading dot as the star
    (validate_dendriform_di, TRI, "expected a dialgebra, got a DendriformTri"),
    # it used to raise IndexError
    (validate_dendriform_tri, dp.catalogue_entry("rb-4").structure,
     "expected a trialgebra, got a DendriformDi"),
    # it used to scan prec only, and pass
    (validate_associativity, dp.catalogue_entry("rb-4").structure,
     "expected an algebra, got a DendriformDi"),
    # it used to say "got a Algebra"
    (validate_dendriform_di, kx2(), "expected a dialgebra, got an Algebra"),
    # these used to raise AttributeError
    (validate_bimodule, kx2(), "expected a bimodule, got an Algebra"),
    (validate_bimodule_algebra, dp.canonical_bimodule(kx2()).base,
     "expected a bimodule algebra, got a Bimodule"),
    (dp.validate_rota_baxter,
     dp.rb_as_o_operator(dp.RotaBaxterOperator(kx2(), Matrix.identity(Q, 2), 0)),
     "expected a Rota-Baxter operator, got an OOperator"),
    (dp.validate_o_operator, dp.RotaBaxterOperator(kx2(), Matrix.identity(Q, 2), 0),
     "expected an O-operator, got a RotaBaxterOperator"),
    (dp.validate_o_module, dp.RotaBaxterOperator(kx2(), Matrix.identity(Q, 2), 0),
     "expected an O-operator, got a RotaBaxterOperator"),
], ids=["di-of-tri", "tri-of-di", "assoc-of-di", "di-of-algebra", "bimodule-of-algebra",
        "bimodule-algebra-of-bimodule", "rb-of-o-operator", "o-of-rb", "o-module-of-rb"])
def test_validators_refuse_the_wrong_kind(validate, wrong, message):
    with pytest.raises(KindMismatchError, match=f"^{message}$"):
        validate(wrong)
    assert "_holds" not in vars(wrong)


_KX2 = kx2()
_BASE = dp.canonical_bimodule(_KX2).base


@pytest.mark.parametrize("build, message", [
    (lambda: dp.Algebra(_KX2.product.entries), "expected a structure tensor, got a tuple"),
    (lambda: dp.DendriformDi(_KX2.product, _KX2.product.entries),
     "expected a structure tensor, got a tuple"),
    (lambda: dp.DendriformTri(_KX2.product, _KX2.product, None),
     "expected a structure tensor, got a NoneType"),
    (lambda: dp.Bimodule(_KX2.product, _BASE.left, _BASE.right),
     "expected an algebra, got a StructureTensor"),
    (lambda: dp.BimoduleAlgebra(_KX2, _KX2.product), "expected a bimodule, got an Algebra"),
    (lambda: dp.BimoduleAlgebra(_BASE, _KX2.product.entries),
     "expected a structure tensor, got a tuple"),
    (lambda: dp.RotaBaxterOperator(_KX2.product, Matrix.identity(Q, 2), 0),
     "expected an algebra, got a StructureTensor"),
    (lambda: dp.RotaBaxterOperator(_KX2, Matrix.identity(Q, 2).entries, 0),
     "expected a matrix, got a tuple"),
    (lambda: dp.OOperator(dp.canonical_bimodule(_KX2), _KX2, Matrix.identity(Q, 2).entries, 1),
     "expected a matrix, got a tuple"),
    (lambda: dp.OOperator(_BASE, _KX2.product, Matrix.identity(Q, 2)),
     "expected an algebra, got a StructureTensor"),
], ids=["algebra-product", "di-succ", "tri-dot", "bimodule-algebra", "bimodule-algebra-base",
        "bimodule-algebra-product", "rb-algebra", "rb-matrix", "o-matrix", "o-codomain"])
def test_constructors_refuse_an_argument_of_the_wrong_class(build, message):
    # each used to raise a bare AttributeError
    with pytest.raises(KindMismatchError, match=f"^{message}$"):
        build()


def test_star_of_rb2_is_n2():
    star = dp.star_product(dp.catalogue_entry("rb-2").structure)
    assert star.product == n2().product


def test_star_of_zero_dialgebra_is_zero():
    d = dp.make_dendriform_di(Q, 2, {}, {})
    assert dp.star_product(d).product.is_zero()


def test_star_of_trialgebra_sums_three_tensors():
    tri = dp.make_dendriform_tri(Q, 2, {(1, 1, 0): ONE}, {(1, 1, 0): ONE},
                                 {(1, 1, 0): ONE})
    assert dp.star_product(tri).product.row(1, 1) == (Fraction(3), Fraction(0))


def test_star_of_valid_dendriform_is_associative():
    for entry in dp.builtin_catalogue():
        assert validate_associativity(dp.star_product(entry.structure)).passed


# -- multilinearity consistency -----------------------------------------------------------

def test_basis_validation_implies_random_element_identities():
    rng = random.Random(7)
    d = dp.catalogue_entry("rb-3").structure
    assert validate_dendriform_di(d).passed
    prec, succ = d.prec, d.succ

    def star(u, v):
        return tuple(a + b for a, b in zip(prec.apply(u, v), succ.apply(u, v)))

    for _ in range(20):
        x, y, z = (tuple(Fraction(rng.randint(-3, 3)) for _ in range(2))
                   for _ in range(3))
        assert prec.apply(prec.apply(x, y), z) == prec.apply(x, star(y, z))
        assert prec.apply(succ.apply(x, y), z) == succ.apply(x, prec.apply(y, z))
        assert succ.apply(star(x, y), z) == succ.apply(x, succ.apply(y, z))


# -- field transport ------------------------------------------------------------------------

def test_reduction_mod_p():
    rb2 = dp.catalogue_entry("rb-2").structure
    over3 = dp.dendriform_di_to_field(rb2, F3)
    assert over3.prec.row(1, 1) == (2, 0)  # 1/2 = 2 mod 3
    assert validate_dendriform_di(over3).passed
    with pytest.raises(BadRationalError):
        dp.dendriform_di_to_field(rb2, F2)  # 1/2 has no image mod 2


@pytest.mark.parametrize("cls", TABLE_CLASSES, ids=lambda c: c.__name__)
def test_transport_reduces_every_table_and_keeps_the_name(cls):
    d = _with_halves(cls)
    over5 = _transport_to(d, F5)
    assert type(over5) is cls and over5.name == d.name and over5.field == F5
    for t, t5 in zip(d.tensors(), over5.tensors(), strict=True):
        # c = a/b maps to a * b^-1 mod 5
        assert t5.entries == tuple(tuple(tuple(c.numerator * pow(c.denominator, -1, 5) % 5
                                                 for c in row) for row in plane)
                                   for plane in t.entries)
    assert _transport_to(d, Q) == d
    assert _transport_to(over5, F5) == over5
    with pytest.raises(BadRationalError):
        _transport_to(d, F2)  # 1/2 has no image mod 2


@pytest.mark.parametrize("cls, message", [(dp.DendriformDi, "prec/succ dimension mismatch"),
                                            (dp.DendriformTri, "prec/succ/dot dimension mismatch")])
def test_every_table_must_agree_in_dimension_and_field(cls, message):
    k = len(fields(cls)) - 1
    for bad in range(1, k):
        dims = [2] * k
        dims[bad] = 3
        with pytest.raises(DimensionMismatchError, match=f"^{message}$"):
            cls(*(StructureTensor.zero(Q, n) for n in dims))
        with pytest.raises(FieldMismatchError):
            cls(*(StructureTensor.zero(F3 if i == bad else Q, 2) for i in range(k)))


def test_structure_constructor_checks():
    with pytest.raises(DimensionMismatchError):
        dp.DendriformDi(StructureTensor.zero(Q, 2), StructureTensor.zero(Q, 3))
    with pytest.raises(FieldMismatchError):
        dp.DendriformDi(StructureTensor.zero(Q, 2), StructureTensor.zero(F3, 2))
    zero = ((0, 0), (0, 0))
    for left, right in [((((0,),),), (((0,),),)),     # one action for two basis elements
                        ((zero,), (zero, zero)),                  # one left action
                        ((Matrix.zeros(Q, 2, 2),) * 2, (Matrix.zeros(Q, 2, 2),) * 2),
                        ((zero, ((0, 0), (0,))), (zero, zero)),   # a short vector
                        ((zero, ((0, 0),)), (zero, zero)),        # a short plane
                        ((zero, zero), (zero, ((0, 0),))),        # a short right row
                        ((zero, zero), (zero,) * 3)]:             # three module rows
        with pytest.raises(DimensionMismatchError):
            dp.Bimodule(n2(), left, right)
