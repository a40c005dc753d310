"""Relation verdicts: kept on each operator, carried only where a construction proves them.

Every carried verdict is compared with a fresh validator run on an equal
twin built from scratch (a document round trip for O-operators), which
carries no verdict.
"""

import pickle
import random
from fractions import Fraction

import pytest

import dendrop as dp
from dendrop import operators
from dendrop.errors import (BadRationalError, DendropError, InvalidOperatorError,
                            KindMismatchError, NotIntertwiningError)
from dendrop.linalg import Matrix, StructureTensor
from helpers import F3, Q, diag, kx2, n2, random_invertible, split2

VERDICT = "_relation_holds"


def _known(op):
    return vars(op).get(VERDICT)


def _twin(op):
    """An equal operator built from scratch, with no verdict."""
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
            assert rb._relation_holds is False and not _fresh(rb)
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
        assert moved._relation_holds is True and _fresh(moved)
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
        assert bad._relation_holds is False
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
    assert algebra._relation_holds and module._relation_holds
    for build in (dp.domain_dendriform_tri, dp.range_dendriform_tri,
                  dp.range_dendriform_quotient):
        with pytest.raises(KindMismatchError, match="^expected an algebra-kind operator$"):
            build(module)
    for build in (dp.domain_dendriform_di, dp.range_dendriform_di):
        with pytest.raises(KindMismatchError, match="^expected a module-kind operator$"):
            build(algebra)


# -- invisibility and scan counts ------------------------------------------------------------

def _seen(op):
    """Everything a caller sees of an operator: equality, hash, repr, pickle, documents."""
    copy = pickle.loads(pickle.dumps(op))
    seen = (op, hash(op), repr(op), copy, hash(copy), repr(copy))
    if isinstance(op, dp.OOperator):
        seen += (dp.emit_document(op), dp.emit_document(copy))
    return seen


@pytest.mark.parametrize("make", [
    lambda: dp.RotaBaxterOperator(n2(F3), diag(F3, 2, 2), 1),
    lambda: dp.RotaBaxterOperator(n2(F3), Matrix.identity(F3, 2), 0),
    lambda: _weight_one_sources(Q)[0],
    lambda: dp.rb_as_module_operator(dp.RotaBaxterOperator(n2(), Matrix.identity(Q, 2), 0)),
], ids=["rb", "rb-failing", "algebra-kind", "module-kind-failing"])
def test_relation_verdicts_are_invisible_from_outside(make):
    kept, fresh = make(), make()
    before = _seen(kept)
    verdict = kept._relation_holds
    assert vars(kept)[VERDICT] is verdict
    after = _seen(kept)
    assert after == before == _seen(fresh)
    assert kept == fresh and hash(kept) == hash(fresh)
    # a copy made after the verdict was kept holds the same one
    assert _known(after[3]) is verdict


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
    assert len(scans) == 1
    # the public validators always scan
    assert dp.validate_o_operator(moved).passed
    assert len(scans) == 2


def test_rota_baxter_images_are_not_rescanned(scans, f3_products):
    images = {dp.domain_dendriform_di(dp.rb_as_module_operator(rb))
              for alg in f3_products for rb in dp.enumerate_rb_operators(alg, 0)}
    assert len(images) == 73 and scans == []


def test_the_image_experiment_scans_only_its_round_trips(scans):
    res = dp.phi_image_experiment(2, 2)
    assert len(scans) == len(res.all_structures) == 130
