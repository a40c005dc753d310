"""The trusted constructors ``_of``: kernel output only, never at a boundary.

``Matrix._of``, ``StructureTensor._of`` and ``Bimodule._of`` set their
fields without ``_field_table``.  A second method rebuilds every table they
are given through the checked constructor and asserts that nothing changes,
class for class; a second run with them refusing shows that documents, the
CLI and the public constructors never call them.  Dialgebras the F_p
enumeration builds keep their star, which ``star_product`` returns.
"""

import re
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import dendrop as dp
from dendrop.cli import main
from dendrop.documents import emit_document, parse_document
from dendrop.errors import DimensionMismatchError, FieldMismatchError
from dendrop.linalg import Matrix, StructureTensor
from dendrop.structures import Bimodule, _known, _table_sum
from helpers import F3, F5, Q

README = Path(__file__).resolve().parent.parent / "README.md"
BOUNDARIES = ("dendrop.documents", "dendrop.cli", "dendrop.catalogue")
TRUSTED = ((Matrix, ("field", "entries")), (StructureTensor, ("field", "entries")),
           (Bimodule, ("algebra", "left", "right")))


def _classes(value):
    """``value`` with every leaf replaced by its class; tuples kept as the nesting."""
    return tuple(map(_classes, value)) if type(value) is tuple else type(value)


def _checking(monkeypatch):
    """Every ``_of`` builds through its checked constructor and asserts that
    the checked fields equal the given ones, with the same class leaf for leaf.

    Returns the count of calls per class.
    """
    calls = Counter()

    def checked(names):
        def of(cls, *given):
            built = cls(*given)
            for name, value in zip(names, given):
                kept = getattr(built, name)
                assert kept == value and _classes(kept) == _classes(value), (cls, name)
            calls[cls] += 1
            return built
        return classmethod(of)

    for cls, names in TRUSTED:
        monkeypatch.setattr(cls, "_of", checked(names))
    return calls


def _refusing(monkeypatch, only_from=None):
    """Make every ``_of`` raise: on each call, or on calls made directly from the
    modules ``only_from``.  Returns the count of calls let through."""
    calls = Counter()

    def refuse(cls, *given):
        caller = sys._getframe(1).f_globals["__name__"]
        if only_from is None or caller in only_from:
            raise AssertionError(f"{cls.__name__}._of called from {caller}")
        calls[cls] += 1
        return original[cls].__func__(cls, *given)

    original = {cls: vars(cls)["_of"] for cls, _ in TRUSTED}
    for cls, _ in TRUSTED:
        monkeypatch.setattr(cls, "_of", classmethod(refuse))
    return calls


def _same(plain, checked):
    assert plain == checked
    assert repr(plain) == repr(checked)


# -- a second method for the trusted path ---------------------------------------------

def _enumerations(dim, p):
    algebras = dp.enumerate_associative_products(dim, p)
    operators = [dp.enumerate_rb_operators(alg, w) for alg in algebras for w in (0, 1)]
    return (algebras, operators, dp.enumerate_dendriform_di(dim, p),
            dp.phi_image_experiment(dim, p))


@pytest.mark.parametrize("dim, p", [(2, 2), (2, 3)])
def test_enumerations_equal_their_checked_rebuild(dim, p, monkeypatch):
    plain = _enumerations(dim, p)
    calls = _checking(monkeypatch)
    _same(plain, _enumerations(dim, p))
    assert calls[Matrix] and calls[StructureTensor] and calls[Bimodule]


def _singular_operator():
    """A singular algebra-kind operator on k x k, with a 1-dimensional image."""
    alg = dp.make_algebra(Q, 2, {(0, 0, 0): 1, (1, 1, 1): 1})
    return dp.rb_as_o_operator(dp.RotaBaxterOperator(alg, Matrix(Q, ((0, 0), (0, -1))), 1))


def _constructions():
    h = Matrix(Q, ((1, 2), (0, 1)))
    out = []
    for entry in dp.builtin_catalogue():
        d = entry.structure
        _, op = dp.canonical_operator_from_di(d)
        tri_op = dp.with_zero_product(op)
        twist = Matrix(Q, ((4, 1), (0, 2))) if entry.name == "rb-4" else Matrix.identity(Q, 2)
        for o in (op, tri_op, dp.twist_by_range_automorphism(op, twist),
                  dp.twist_by_range_automorphism(tri_op, twist)):
            moved = dp.compose_with_domain_iso(o, h, dp.pullback_domain(o.domain, h))
            for x in (o, moved):
                if x.kind == dp.operators.MODULE:
                    out += [dp.domain_dendriform_di(x), dp.range_dendriform_di(x)]
                else:
                    out += [dp.domain_dendriform_tri(x), dp.range_dendriform_tri(x),
                            dp.range_dendriform_quotient(x)]
                out.append(x)
        out.append(dp.star_product(d))
    out.append(dp.range_dendriform_quotient(_singular_operator()))
    return out


def test_constructions_equal_their_checked_rebuild(monkeypatch):
    plain = _constructions()
    calls = _checking(monkeypatch)
    _same(plain, _constructions())
    assert calls[Matrix] and calls[StructureTensor] and calls[Bimodule]


def _f3_domains():
    return [dp.domain_dendriform_di(dp.rb_as_module_operator(rb))
            for alg in dp.enumerate_associative_products(2, 3)
            for rb in dp.enumerate_rb_operators(alg, 0)]


def test_f3_weight_zero_domains_equal_their_checked_rebuild(monkeypatch):
    plain = _f3_domains()
    assert len(plain) == 681
    calls = _checking(monkeypatch)
    _same(plain, _f3_domains())
    assert calls[StructureTensor] >= 2 * 681


# -- the boundaries never trust ------------------------------------------------------

def _catalogue_document(tmp_path):
    path = tmp_path / "rb-4.json"
    path.write_bytes(emit_document(dp.catalogue_entry("rb-4").structure))
    return str(path)


def test_the_boundaries_check_with_every_trusted_constructor_refusing(monkeypatch, tmp_path,
                                                                     capsys):
    path = _catalogue_document(tmp_path)
    _refusing(monkeypatch)
    block = re.search(r"## Document format\n.*?```json\n(.*?)```", README.read_text(), re.S)
    doc = parse_document(block.group(1).encode())
    assert dp.validate_associativity(doc.payload).passed
    assert main(["validate", path]) == 0
    assert "PASS" in capsys.readouterr().out
    d = dp.make_dendriform_di(F3, 2, {(0, 0, 1): 4}, {(1, 1, 0): -2})
    assert d.prec.entries[0][0] == (0, 1) and d.succ.entries[1][1] == (1, 0)
    assert StructureTensor(F3, (((3,),),)).entries == (((0,),),)
    with pytest.raises(DimensionMismatchError):
        Matrix(Q, ((1, 2), (3,)))


def test_the_cli_canonical_command_trusts_only_past_its_boundary(monkeypatch, tmp_path):
    path = _catalogue_document(tmp_path)
    out = tmp_path / "op.json"
    assert main(["canonical", path, "-o", str(out)]) == 0
    expected = out.read_bytes()
    out.unlink()
    # a call of ``_of`` straight from documents, cli or catalogue raises
    calls = _refusing(monkeypatch, BOUNDARIES)
    assert main(["canonical", path, "-o", str(out)]) == 0
    assert out.read_bytes() == expected
    assert calls[Matrix] and calls[Bimodule]


# -- the kept star ---------------------------------------------------------------------

@pytest.mark.parametrize("p, count", [(2, 130), (3, 657)])
def test_enumerated_dialgebras_keep_the_star_they_were_built_over(p, count):
    found = dp.enumerate_dendriform_di(2, p)
    assert len(found) == count
    for d in found:
        kept = vars(d)["_star"]
        assert kept.product.entries == _table_sum(d.field, [d.prec.entries, d.succ.entries])
        assert dp.star_product(d) is kept
        assert _known(kept) is True


def test_a_user_built_dialgebra_sums_its_star():
    d = dp.make_dendriform_di(F3, 2, {(0, 0, 1): 1, (1, 1, 0): 2}, {(0, 0, 1): 1})
    assert "_star" not in vars(d)
    star = dp.star_product(d)
    assert star.product.nonzero_triples() == [((0, 0, 1), 2), ((1, 1, 0), 2)]
    assert star.product.entries == _table_sum(F3, [d.prec.entries, d.succ.entries])
    assert dp.star_product(d) == star
    assert "_star" not in vars(d)


# -- field transport ---------------------------------------------------------------------

@pytest.mark.parametrize("target", [Q, F5], ids=["Q", "F5"])
def test_a_prime_field_source_has_no_map_to_another_field(target):
    a = dp.make_algebra(F3, 1, {(0, 0, 0): 2})
    with pytest.raises(FieldMismatchError, match="no map from F_3"):
        dp.algebra_to_field(a, target)
    with pytest.raises(FieldMismatchError, match="no map from F_3"):
        dp.structures.tensor_to_field(a.product, target)
    assert dp.algebra_to_field(a, F3) == a


def test_a_rational_source_still_maps_to_every_field():
    a = dp.make_algebra(Q, 1, {(0, 0, 0): Fraction(1, 2)})
    assert dp.algebra_to_field(a, F5).product.entries == (((3,),),)
    assert dp.algebra_to_field(a, Q) == a
