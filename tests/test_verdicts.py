"""Verdicts: kept on each operator and structure, carried only where a construction proves them.

Every carried or recorded verdict is compared with a fresh validator run on
an equal twin built from scratch (from its tables or through a document
round trip), which carries no verdict.  A structure's axiom verdict is
also checked a second way, by the validator of its canonical domain
structure.
"""

import pickle
import random
import sys
from fractions import Fraction

import pytest

import dendrop as dp
from dendrop import linalg, operators, structures
from dendrop.errors import (BadRationalError, DendropError, InvalidDendriformError,
                            InvalidOperatorError, KindMismatchError, NotAssociativeError,
                            NotIntertwiningError, NotInvertibleError)
from dendrop.linalg import Matrix, StructureTensor
from helpers import F3, Q, action_tables, diag, kx2, n2, random_invertible, split2

VERDICT = "_holds"
TABLES = (dp.Algebra, dp.DendriformDi, dp.DendriformTri)


def _known(obj):
    return vars(obj).get(VERDICT)


def _twin(op):
    """An equal operator or structure built from scratch, with no verdict."""
    if isinstance(op, dp.RotaBaxterOperator):
        f = op.algebra.field
        twin = dp.RotaBaxterOperator(dp.Algebra(StructureTensor(f, op.algebra.product.entries)),
                                     Matrix(f, op.matrix.entries), op.weight)
    else:
        twin = dp.parse_document(dp.emit_document(op)).payload
    assert twin == op and _known(twin) is None
    return twin


def _fresh(op) -> bool:
    if isinstance(op, dp.RotaBaxterOperator):
        return dp.validate_rota_baxter(_twin(op)).passed
    return dp.validate_o_operator(_twin(op)).passed


def _bridged(rb):
    """The O-operator readings of ``rb``: algebra kind, and module kind at weight zero."""
    readings = [dp.rb_as_o_operator(rb)]
    if rb.weight == 0:
        readings.append(dp.rb_as_module_operator(rb))
    else:
        with pytest.raises(KindMismatchError):
            dp.rb_as_module_operator(rb)
    return readings


# -- Rota-Baxter enumeration and the bridges -------------------------------------------

@pytest.fixture(scope="module")
def f3_products():
    return dp.enumerate_associative_products(2, 3)


OUTSIDE = [((1, 0), (0, 1)), ((1, 1), (0, 1)), ((0, 1), (1, 0)), ((2, 0), (0, 1))]


@pytest.mark.parametrize("weight, count", [(0, 681), (1, 929), (2, 929)])
def test_enumerated_verdicts_travel_through_both_bridges(f3_products, weight, count):
    assert len(f3_products) == 121
    checked = broken = 0
    for alg in f3_products:
        found = dp.enumerate_rb_operators(alg, weight)
        for rb in found:
            assert _known(rb) is True and _fresh(rb)
            for op in _bridged(rb):
                assert _known(op) is True and _fresh(op)
            checked += 1
        # matrices outside the enumeration, their false verdicts computed first
        for rows in OUTSIDE:
            rb = dp.RotaBaxterOperator(alg, Matrix(F3, rows), weight)
            if rb in found:
                continue
            assert rb._holds is False and not _fresh(rb)
            for op in _bridged(rb):
                assert _known(op) is False and not _fresh(op)
            broken += 1
    assert checked == count and broken > 121


def test_bridges_leave_an_unknown_verdict_unknown():
    rb = dp.RotaBaxterOperator(n2(), diag(Q, Fraction(1, 4), Fraction(1, 2)), 0)
    assert all(_known(op) is None for op in _bridged(rb))
    assert _known(rb) is None


# -- transports along domain isomorphisms --------------------------------------------------

def _catalogue_dialgebras(field):
    """The catalogue dialgebras that have an image over ``field``."""
    ds = []
    for entry in dp.builtin_catalogue():
        try:
            ds.append(dp.dendriform_di_to_field(entry.structure, field))
        except BadRationalError:
            pass
    assert len(ds) >= 6
    return ds


def _weight_one_sources(field):
    """Weight-one Rota-Baxter readings, their verdicts not yet known.

    -id is one on every algebra, and -pi onto one subalgebra of a direct sum
    of two subalgebras along the other (singular).
    """
    one, zero = field.one, field.zero
    minus = field.coerce(-1)
    return [dp.rb_as_o_operator(dp.RotaBaxterOperator(alg, M, 1)) for alg, M in (
        (kx2(field), diag(field, minus, minus)),
        (n2(field), diag(field, minus, minus)),
        (kx2(field), diag(field, minus, zero)),
        (split2(field), diag(field, zero, minus)),
    )]


def _operators(field):
    """Valid operators of both kinds, with known (canonical) and unknown verdicts."""
    ops = [dp.canonical_operator_from_di(d)[1] for d in _catalogue_dialgebras(field)]
    sources = _weight_one_sources(field)
    ops += [dp.canonical_operator_from_tri(dp.domain_dendriform_tri(op))[1] for op in sources]
    # new sources: building the trialgebras computed the verdicts of the first ones
    return ops + _weight_one_sources(field)


def _broken(op):
    """``op`` with one matrix entry moved so that its relation fails, if one does.

    On a zero codomain with zero actions every map is an O-operator.
    """
    f = op.field
    for i in range(op.matrix.rows):
        for j in range(op.matrix.cols):
            rows = [list(r) for r in op.matrix.entries]
            rows[i][j] = f.add(rows[i][j], f.one)
            bad = dp.OOperator(op.domain, op.codomain, Matrix(f, rows), op.weight)
            if not _fresh(bad):
                return bad
    return None


def _outcome(build, op):
    """What ``build`` makes of ``op``: a structure, or the refusal it raises."""
    try:
        return build(op)
    except DendropError as e:
        return type(e), str(e)


def _constructions(op):
    if op.kind == operators.MODULE:
        return [dp.domain_dendriform_di, dp.range_dendriform_di]
    return [dp.domain_dendriform_tri, dp.range_dendriform_tri, dp.range_dendriform_quotient]


def _moved(op, rng):
    h = random_invertible(rng, op.field, op.domain.dim)
    return dp.compose_with_domain_iso(op, h, dp.pullback_domain(op.domain, h))


@pytest.mark.parametrize("field", [Q, F3], ids=["Q", "F3"])
def test_transported_verdicts_match_fresh_validators(field):
    rng = random.Random(1717)
    ops = _operators(field)
    assert {op.kind for op in ops} == {"module", "algebra"}
    assert any(_known(op) is None for op in ops)
    for op in ops:
        before = _known(op)
        moved = _moved(op, rng)
        # an unknown verdict stays unknown: carrying never scans
        assert _known(moved) == before and _known(op) == before
        assert moved._holds is True and _fresh(moved)
        twin = _twin(moved)
        for build in _constructions(moved):
            made = _outcome(build, moved)
            assert made == _outcome(build, twin)
            assert not isinstance(made, tuple) or made[0] is not InvalidOperatorError


@pytest.mark.parametrize("field", [Q, F3], ids=["Q", "F3"])
def test_transported_false_verdicts_refuse_in_every_construction(field):
    rng = random.Random(1718)
    broken = [bad for bad in map(_broken, _operators(field)) if bad is not None]
    assert {bad.kind for bad in broken} == {"module", "algebra"} and len(broken) >= 12
    for bad in broken:
        assert bad._holds is False
        moved = _moved(bad, rng)
        assert _known(moved) is False and not _fresh(moved)
        first = dp.validate_o_operator(_twin(moved), max_violations=1).first()
        message = f"operator fails its defining relation at basis pair {first.indices}"
        for build in _constructions(moved):
            with pytest.raises(InvalidOperatorError) as err:
                build(moved)
            assert str(err.value) == message


def test_a_known_verdict_does_not_skip_the_intertwining_check():
    op = dp.canonical_operator_from_di(dp.catalogue_entry("rb-4").structure)[1]
    assert _known(op) is True
    # an invertible g under which alpha o g is no O-operator on the same domain
    g = next(g for g in (Matrix(Q, rows) for rows in OUTSIDE[1:])
             if not _fresh(dp.OOperator(op.domain, op.codomain, op.matrix.mul(g))))
    with pytest.raises(NotIntertwiningError):
        dp.compose_with_domain_iso(op, g, op.domain)


def test_a_true_verdict_does_not_skip_the_kind_check():
    module = dp.canonical_operator_from_di(dp.catalogue_entry("rb-4").structure)[1]
    algebra = _operators(Q)[-1]
    assert algebra._holds and module._holds
    for build in (dp.domain_dendriform_tri, dp.range_dendriform_tri,
                  dp.range_dendriform_quotient):
        with pytest.raises(KindMismatchError, match="^expected an algebra-kind operator$"):
            build(module)
    for build in (dp.domain_dendriform_di, dp.range_dendriform_di):
        with pytest.raises(KindMismatchError, match="^expected a module-kind operator$"):
            build(algebra)


def test_a_pullback_source_is_trusted_only_with_its_own_domain_and_matrix(monkeypatch):
    op4 = dp.canonical_operator_from_di(dp.catalogue_entry("rb-4").structure)[1]
    op6 = dp.canonical_operator_from_di(dp.catalogue_entry("rb-6").structure)[1]
    assert op4.codomain == op6.codomain and op4.domain != op6.domain
    h = Matrix(Q, ((1, 1), (0, 1)))
    source = dp.pullback_domain(op4.domain, h)
    checked = []
    real = operators._domain_morphism_failures
    monkeypatch.setattr(operators, "_domain_morphism_failures",
                        lambda *args: checked.append(args) or real(*args))
    dp.compose_with_domain_iso(op4, h, source)
    assert checked == []
    # an equal matrix, or an equal domain, is another object: every check runs
    dp.compose_with_domain_iso(op4, Matrix(Q, h.entries), source)
    twin = dp.OOperator(dp.parse_document(dp.emit_document(op4.domain)).payload,
                        op4.codomain, op4.matrix)
    dp.compose_with_domain_iso(twin, h, source)
    assert len(checked) == 2
    # a different g, or a different operator, is refused as before
    with pytest.raises(NotIntertwiningError, match="^g fails intertwine_right at"):
        dp.compose_with_domain_iso(op4, Matrix(Q, ((1, 0), (1, 1))), source)
    with pytest.raises(NotInvertibleError, match="^domain iso candidate g is singular$"):
        dp.compose_with_domain_iso(op4, Matrix(Q, ((1, 1), (1, 1))), source)
    with pytest.raises(NotIntertwiningError, match="^g fails intertwine_left at"):
        dp.compose_with_domain_iso(op6, h, source)


# -- axiom verdicts of structures ----------------------------------------------------------

_VALIDATE = {dp.Algebra: dp.validate_associativity, dp.DendriformDi: dp.validate_dendriform_di,
             dp.DendriformTri: dp.validate_dendriform_tri}


def _table_twin(s):
    """An equal structure built from scratch, with no verdict."""
    twin = type(s)(*(StructureTensor(t.field, t.entries) for t in s.tensors()))
    assert twin == s and VERDICT not in vars(twin)
    return twin


def _fresh_axioms(s) -> bool:
    return _VALIDATE[type(s)](_table_twin(s)).passed


def _canonical_domain_passes(s) -> bool:
    """The second method: the validator of the canonical domain structure of ``s``."""
    if isinstance(s, dp.Algebra):
        return dp.validate_bimodule_algebra(dp.canonical_bimodule(s)).passed
    if isinstance(s, dp.DendriformDi):
        return dp.validate_bimodule(dp.canonical_operator_from_di(s)[0]).passed
    return dp.validate_bimodule_algebra(dp.canonical_operator_from_tri(s)[0]).passed


@pytest.mark.parametrize("p, count", [(2, 130), (3, 657)])
def test_enumerated_dialgebras_carry_true_axiom_verdicts(p, count):
    found = dp.enumerate_dendriform_di(2, p)
    assert len(found) == count
    for d in found:
        assert vars(d)[VERDICT] is True and _fresh_axioms(d)
        assert _canonical_domain_passes(d)


def test_enumerated_products_carry_true_axiom_verdicts(f3_products):
    for alg in f3_products:
        assert vars(alg)[VERDICT] is True and _fresh_axioms(alg)
        assert _canonical_domain_passes(alg)


FAILING = [
    lambda: dp.make_algebra(Q, 2, {(0, 0, 1): 1, (1, 0, 0): 1}),
    lambda: dp.make_dendriform_di(Q, 2, {(0, 0, 1): 1}, {(0, 0, 0): 1}),
    lambda: dp.make_dendriform_di(F3, 1, {(0, 0, 0): 1}, {(0, 0, 0): 1}),
    lambda: dp.make_dendriform_tri(Q, 2, {(0, 1, 1): 1}, {(1, 0, 1): 1}, {(1, 1, 0): 1}),
    lambda: dp.make_dendriform_tri(Q, 2, {}, {}, {(0, 0, 1): 1, (1, 1, 1): 1}),
]


def _validated_stock():
    """Catalogue entries, weight-one trialgebras, star products and failing structures,
    none of them validated yet."""
    stock = [entry.structure for entry in dp.builtin_catalogue()]
    for op in _weight_one_sources(Q) + _weight_one_sources(F3):
        stock.append(dp.domain_dendriform_tri(op))
    stock += [dp.star_product(d) for d in stock]
    return stock + [make() for make in FAILING]


def _checked_stock():
    """Bimodules, bimodule algebras, Rota-Baxter and O-operators of both kinds, passing and
    failing, none of them checked yet."""
    z = Matrix.zeros(Q, 2, 2)
    canonical = dp.canonical_bimodule(kx2())
    # identity left actions of n2: l(b0 b0) = 0 but l(b0) l(b0) = id
    identities = dp.Bimodule(n2(), *action_tables((Matrix.identity(Q, 2),) * 2, (z, z)))
    # zero actions, with the product e0 e0 = e1, e1 e0 = e0, which is not associative
    not_associative = dp.BimoduleAlgebra(
        dp.Bimodule(dp.Algebra(StructureTensor.zero(Q, 1)), *action_tables((z,), (z,))),
        StructureTensor.from_triples(Q, 2, {(0, 0, 1): 1, (1, 0, 0): 1}))
    module = _twin(dp.canonical_operator_from_di(dp.catalogue_entry("rb-4").structure)[1])
    algebra = _weight_one_sources(Q)[0]
    return [
        _twin(canonical.base), identities, _twin(canonical), not_associative,
        dp.RotaBaxterOperator(n2(F3), diag(F3, 2, 2), 1),
        dp.RotaBaxterOperator(n2(F3), Matrix.identity(F3, 2), 0),
        module, _broken(module), algebra, _broken(algebra),
    ]


def _validator(obj):
    """The public validator of ``obj``'s own kind."""
    if isinstance(obj, dp.OOperator):
        return dp.validate_o_algebra if obj.kind == operators.ALGEBRA else dp.validate_o_module
    return {**_VALIDATE, dp.Bimodule: dp.validate_bimodule,
            dp.BimoduleAlgebra: dp.validate_bimodule_algebra,
            dp.RotaBaxterOperator: dp.validate_rota_baxter}[type(obj)]


def test_validators_record_the_verdicts_of_their_reports():
    outcomes = set()
    for s in _validated_stock() + _checked_stock():
        # built by domain_* or star_product, or by hand: no verdict yet
        assert _known(s) is None
        validate = _validator(s)
        for cap, early in ((1, True), (0, False), (5, False)):
            report = validate(s, max_violations=cap, early_stop=early)
            assert vars(s)[VERDICT] is report.passed is validate(_twin(s)).passed
        if report.passed and isinstance(s, TABLES):
            assert _canonical_domain_passes(s)
        outcomes.add((validate, report.passed))
    # pass and fail for each of the eight validators
    assert len(outcomes) == 16


OLD_REFUSALS = [
    (NotAssociativeError, "algebra is not associative (first violation at (0, 0, 0))"),
    (InvalidDendriformError,
     "dialgebra axioms fail: canonical domain structure fails right_action_mult at (0, 0, 0)"),
    (InvalidDendriformError,
     "dialgebra axioms fail: canonical domain structure fails left_action_mult at (0, 0, 0)"),
    (InvalidDendriformError,
     "trialgebra axioms fail: canonical domain structure fails left_action_mult at (0, 1, 0)"),
    (InvalidDendriformError,
     "trialgebra axioms fail: canonical domain structure fails product_assoc at (0, 0, 1)"),
]


@pytest.mark.parametrize("make, refusal", list(zip(FAILING, OLD_REFUSALS)),
                         ids=["algebra", "di-right", "di-left", "tri-left", "tri-product"])
@pytest.mark.parametrize("record", ["validator", "verdict", "unknown"])
def test_a_false_axiom_verdict_still_refuses_with_the_old_message(make, refusal, record):
    s = make()
    if record == "validator":
        assert not _VALIDATE[type(s)](s).passed
    elif record == "verdict":
        assert s._holds is False
    build = {dp.Algebra: dp.canonical_bimodule, dp.DendriformDi: dp.canonical_operator_from_di,
             dp.DendriformTri: dp.canonical_operator_from_tri}[type(s)]
    error, message = refusal
    for _ in range(2):
        with pytest.raises(error) as err:
            build(s)
        assert str(err.value) == message
        assert vars(s)[VERDICT] is False


# -- invisibility and scan counts ------------------------------------------------------------

def _seen(obj):
    """Everything a caller sees of an operator or structure: equality, hash, repr, pickle,
    documents."""
    copy = pickle.loads(pickle.dumps(obj))
    seen = (obj, hash(obj), repr(obj), copy, hash(copy), repr(copy))
    if not isinstance(obj, dp.RotaBaxterOperator):
        seen += (dp.emit_document(obj), dp.emit_document(copy))
    return seen


@pytest.mark.parametrize("make", [
    lambda: dp.RotaBaxterOperator(n2(F3), diag(F3, 2, 2), 1),
    lambda: dp.RotaBaxterOperator(n2(F3), Matrix.identity(F3, 2), 0),
    lambda: _weight_one_sources(Q)[0],
    lambda: dp.rb_as_module_operator(dp.RotaBaxterOperator(n2(), Matrix.identity(Q, 2), 0)),
    lambda: dp.catalogue_entry("rb-5").structure,
    lambda: dp.make_dendriform_di(Q, 2, {(0, 0, 1): 1}, {(0, 0, 0): 1}),
    lambda: dp.make_dendriform_tri(F3, 2, {(1, 1, 0): 1}, {}, {(1, 1, 1): 1}),
    lambda: kx2(F3),
    lambda: dp.make_algebra(Q, 2, {(0, 0, 1): 1, (1, 0, 0): 1}),
], ids=["rb", "rb-failing", "algebra-kind", "module-kind-failing", "dialgebra",
        "dialgebra-failing", "trialgebra", "algebra", "algebra-failing"])
def test_relation_verdicts_are_invisible_from_outside(make):
    kept, fresh = make(), make()
    name = VERDICT
    before = _seen(kept)
    verdict = getattr(kept, name)
    assert vars(kept)[name] is verdict
    after = _seen(kept)
    assert after == before == _seen(fresh)
    assert kept == fresh and hash(kept) == hash(fresh)
    # a copy made after the verdict was kept holds the same one
    assert vars(after[3]).get(name) is verdict
    if not isinstance(kept, dp.RotaBaxterOperator):
        # a parsed document starts with no verdict
        parsed = dp.parse_document(after[6]).payload
        assert parsed == kept and name not in vars(parsed)


@pytest.fixture
def scans(monkeypatch):
    """The relation scans run while the test runs, by axiom name."""
    seen = []
    real = operators._o_relation_failures

    def counting(field, axiom, *args):
        seen.append(axiom)
        return real(field, axiom, *args)

    monkeypatch.setattr(operators, "_o_relation_failures", counting)
    return seen


@pytest.mark.parametrize("kind", ["di", "tri"])
def test_the_construction_chain_scans_the_relation_once(scans, kind):
    rng = random.Random(7)
    if kind == "di":
        d = dp.catalogue_entry("rb-4").structure
        canonical, domain, rng_of = (dp.canonical_operator_from_di, dp.domain_dendriform_di,
                                     dp.range_dendriform_di)
    else:
        d = dp.domain_dendriform_tri(_weight_one_sources(Q)[0])
        canonical, domain, rng_of = (dp.canonical_operator_from_tri, dp.domain_dendriform_tri,
                                     dp.range_dendriform_tri)
    scans.clear()
    _, op = canonical(d)
    moved = _moved(op, rng)
    assert rng_of(moved) == d and rng_of(op) == d
    domain(moved)
    domain(op)
    # the canonical operator's relation holds by construction
    assert scans == []
    # the public validators always scan
    assert dp.validate_o_operator(moved).passed
    assert len(scans) == 1


def test_rota_baxter_images_are_not_rescanned(scans, f3_products):
    images = {dp.domain_dendriform_di(dp.rb_as_module_operator(rb))
              for alg in f3_products for rb in dp.enumerate_rb_operators(alg, 0)}
    assert len(images) == 73 and scans == []


def test_the_image_experiment_scans_only_its_round_trips(scans):
    res = dp.phi_image_experiment(2, 2)
    # its 130 round trips start from enumerated dialgebras, whose canonical relation holds
    assert scans == [] and len(res.all_structures) == 130


@pytest.fixture
def axiom_scans(monkeypatch):
    """The composition scans (structure axioms and bimodule laws) run while the test runs."""
    seen = []
    real = structures._composition_failures

    def counting(field, tables, groups):
        seen.append([rows[0][0] for _, rows in groups])
        return real(field, tables, groups)

    monkeypatch.setattr(structures, "_composition_failures", counting)
    return seen


def test_a_validated_structure_is_scanned_once(axiom_scans, scans):
    d = dp.catalogue_entry("rb-5").structure
    assert dp.validate_dendriform_di(d).passed
    dp.canonical_operator_from_di(d)
    dp.canonical_operator_from_di(d)
    assert axiom_scans == [["di1"]] and scans == []
    # an unknown verdict is found by one early-stop scan, then kept
    dp.canonical_operator_from_tri(dp.DendriformTri(d.prec, d.succ, StructureTensor.zero(Q, 2)))
    alg = kx2()
    dp.canonical_bimodule(alg)
    assert dp.validate_associativity(alg).passed
    assert axiom_scans == [["di1"], ["tri1"], ["assoc"], ["assoc"]] and scans == []


def test_the_image_experiment_scans_no_axiom(axiom_scans):
    res = dp.phi_image_experiment(2, 2)
    assert axiom_scans == [] and not res.round_trip_failures


@pytest.fixture
def eliminations(monkeypatch):
    """The matrices ``linalg._rref`` eliminates while the test runs, one entry per elimination.

    Each is the argument ``M`` of the ``linalg`` function that eliminates.
    """
    seen = []
    real = linalg._rref

    def counting(*args):
        seen.append(sys._getframe(1).f_locals["M"])
        return real(*args)

    monkeypatch.setattr(linalg, "_rref", counting)
    return seen


def test_a_matrix_is_ranked_once(eliminations):
    d = dp.catalogue_entry("rb-3").structure
    h = Matrix(Q, ((1, 2), (0, 1)))
    _, op = dp.canonical_operator_from_di(d)
    moved = dp.compose_with_domain_iso(op, h, dp.pullback_domain(op.domain, h))
    # pullback_domain inverted h, and h and h^-1 keep each other: the witness checks
    # eliminate nothing more
    transported = dp.domain_dendriform_di(moved)
    hinv = linalg.invert(h)
    assert linalg.invert(hinv) is h
    assert dp.verify_dendriform_iso(transported, d, h).passed
    assert dp.verify_dendriform_iso(d, transported, hinv).passed
    assert [id(M) for M in eliminations] == [id(h)]
    g, report = dp.induced_intertwiner(moved, op)
    assert report.passed
    w = Matrix.identity(Q, 2)
    for _ in range(2):
        assert dp.verify_dendriform_iso(d, d, w).passed
    # alpha2 = id and g = alpha2^-1 alpha1 once each, then w once for both checks
    assert [id(M) for M in eliminations] == [id(h), id(op.matrix), id(g), id(w)]
