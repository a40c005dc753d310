"""Acceptance suite: one test (and one printed line) per criterion.

All checks are exact; tolerances are zero everywhere.  Regression constants
for the enumeration criteria were computed by the independent naive oracle
in oracle_enumeration.py and frozen into tests/fixtures before the library
was pointed at them.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import json
import os
import random
import time
from fractions import Fraction

import pytest

import dendrop as dp
from helpers import (F3, Q, automorphisms_of, diag, n2,
                     invertible_operator_suite, operator_suite,
                     random_invertible)
from test_constructions import projection_operator_with_ideal_kernel
from test_documents import assert_no_floats, sample_objects

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures",
                        "enumeration_counts.json")

ONE = Fraction(1)
ZERO = Fraction(0)


def report(number, limit, started, detail):
    elapsed = time.perf_counter() - started
    print(f"criterion {number}: PASS in {elapsed:.2f}s (limit {limit:.0f}s) - {detail}")
    assert elapsed < limit, f"criterion {number} exceeded its runtime limit"


@pytest.fixture(scope="module")
def suite():
    return operator_suite(min_cases=1000)


@pytest.fixture(scope="module")
def oracle():
    with open(FIXTURES) as fh:
        return json.load(fh)


def test_criterion_1_catalogue_validation():
    started = time.perf_counter()
    entries = dp.builtin_catalogue()
    assert len(entries) == 11
    for entry in entries:
        rep = dp.validate_dendriform_di(entry.structure)
        assert rep.passed and rep.total_violations == 0, entry.name
    report(1, 1.0, started, "all 11 dimension-2 dialgebras validate exactly")


def test_criterion_2_weight_zero_reproduction():
    started = time.perf_counter()

    # independent basis-pair substitution oracle for diagonal maps on e2*e2 = e1:
    # the only nonzero instance of the defining relation is at (e2, e2), where
    # P(e2)P(e2) = b^2 e1 and P(P(e2)e2) + P(e2 P(e2)) = 2ab e1.
    def diagonal_passes(a, b):
        return b * b == 2 * a * b

    assert not diagonal_passes(Fraction(1, 8), Fraction(1, 2))
    b = Fraction(1, 2)                    # forced by the target products (1/2) e1
    a = b * b / (2 * b)                   # unique nonzero-b solution: a = b/2
    assert a == Fraction(1, 4) and diagonal_passes(a, b)

    rb = dp.RotaBaxterOperator(n2(), diag(Q, a, b), ZERO)
    assert dp.validate_rota_baxter(rb).passed
    built = dp.domain_dendriform_di(dp.rb_as_module_operator(rb))
    rb2 = dp.catalogue_entry("rb-2").structure
    assert built.prec == rb2.prec and built.succ == rb2.succ
    report(2, 1.0, started,
           "weight-0 diagonal operator reproduces catalogue rb-2 exactly")


def test_criterion_3_domain_constructions_validate(suite):
    started = time.perf_counter()
    assert len(suite) >= 1000
    fields = {case.codomain.field.p for _, case in suite}
    assert fields == {3, 5}
    failures = 0
    for label, op in suite:
        assert dp.validate_o_operator(op, max_violations=1, early_stop=True).passed, label
        if op.kind == "algebra":
            built = dp.domain_dendriform_tri(op)
            ok = dp.validate_dendriform_tri(built, max_violations=1,
                                            early_stop=True).passed
        else:
            built = dp.domain_dendriform_di(op)
            ok = dp.validate_dendriform_di(built, max_violations=1,
                                           early_stop=True).passed
        ok = ok and dp.check_operator_homomorphism(op, built).passed
        if not ok:
            failures += 1
    assert failures == 0
    report(3, 60.0, started,
           f"{len(suite)} validated operators over F_3/F_5, zero failures")


def test_criterion_4_surjectivity_round_trip(oracle):
    started = time.perf_counter()
    everything = dp.enumerate_dendriform_di(2, 2)
    assert len(everything) == oracle["dendriform_di"]["2,2"]
    structures = list(everything) + [e.structure for e in dp.builtin_catalogue()]
    for d in structures:
        _, op = dp.canonical_operator_from_di(d)
        assert dp.domain_dendriform_di(op) == d
    report(4, 120.0, started,
           f"{len(structures)} canonical-operator round trips, all exact")


def test_criterion_5_non_surjectivity_analogue(oracle):
    started = time.perf_counter()
    res = dp.phi_image_experiment(2, 2)
    expect = oracle["phi_image"]["2,2"]
    assert res.counts == expect
    assert len(res.missing) > 0
    assert res.image_subset_of_all
    assert not res.round_trip_failures
    report(5, 600.0, started,
           f"counts {res.counts} match the frozen oracle; missing is non-empty")


def test_criterion_6_range_splitting(suite):
    started = time.perf_counter()
    invertible = quotient_checked = 0
    for label, op in suite:
        if dp.rank(op.matrix) == op.codomain.dim and \
                op.matrix.rows == op.matrix.cols:
            invertible += 1
            if op.kind == "algebra":
                built = dp.range_dendriform_tri(op)
                assert dp.validate_dendriform_tri(built, max_violations=1,
                                                  early_stop=True).passed, label
            else:
                built = dp.range_dendriform_di(op)
                assert dp.validate_dendriform_di(built, max_violations=1,
                                                 early_stop=True).passed, label
            assert dp.check_splitting(built, op.codomain).passed, label
        if op.kind == "algebra" and dp.kernel_ideal_check(op):
            first = dp.range_dendriform_quotient(op, section_rule="first")
            last = dp.range_dendriform_quotient(op, section_rule="last")
            assert first.structure == last.structure, label
            assert dp.check_splitting(first.structure, first.image_algebra).passed
            quotient_checked += 1
    # skewed-kernel family: sections genuinely differ, tensors must not
    rng = random.Random(99)
    proj = projection_operator_with_ideal_kernel(F3)
    for _ in range(25):
        h = random_invertible(rng, F3, 3)
        moved = dp.compose_with_domain_iso(proj, h, dp.pullback_domain(proj.domain, h))
        first = dp.range_dendriform_quotient(moved, section_rule="first")
        last = dp.range_dendriform_quotient(moved, section_rule="last")
        assert first.structure == last.structure
        quotient_checked += 1
    assert invertible >= 100 and quotient_checked >= 100
    report(6, 60.0, started,
           f"{invertible} invertible range splittings, "
           f"{quotient_checked} section-independent quotients")


def product_by_matvec(field, table, u, v):
    """Coordinates of u o v, ``table`` the product's: column i is b_i o v, row by row."""
    left = [dp.Matrix.from_columns(field, plane).matvec(v) for plane in table]
    return dp.Matrix.from_columns(field, left).matvec(u)


def test_quotient_products_are_alpha_of_the_domain_products(suite):
    # a second method for the quotient: embedding(w_s o' w_t) = alpha(u_s o u_t)
    # for each product o, u_s a preimage of the image basis vector w_s and o
    # read off domain_dendriform_tri, by matvec alone
    ops = [op for _, op in suite if op.kind == "algebra" and dp.kernel_ideal_check(op)]
    rng = random.Random(99)
    proj = projection_operator_with_ideal_kernel(F3)
    for _ in range(25):
        h = random_invertible(rng, F3, 3)
        ops.append(dp.compose_with_domain_iso(proj, h, dp.pullback_domain(proj.domain, h)))
    singular = 0
    for op in ops:
        f, alpha = op.field, op.matrix
        quot = dp.range_dendriform_quotient(op)
        ws = quot.embedding.columns()
        us = [dp.solve(alpha, w) for w in ws]
        assert [alpha.matvec(u) for u in us] == ws
        singular += len(ws) < op.domain.dim
        for got, table in zip(quot.structure.tensors(), dp.domain_dendriform_tri(op).tensors()):
            for s, t in itertools.product(range(len(ws)), repeat=2):
                assert quot.embedding.matvec(got.row(s, t)) == alpha.matvec(
                    product_by_matvec(f, table.entries, us[s], us[t]))
    assert len(ops) > 100 and singular >= 25


def test_criterion_7_equivalence_machinery():
    started = time.perf_counter()
    ops, rng = invertible_operator_suite(count=200)

    # (a) equal ranges from isomorphic operators: induced intertwiner passes
    for op in ops:
        g0 = random_invertible(rng, F3, op.domain.dim)
        src = dp.pullback_domain(op.domain, g0)
        composed = dp.compose_with_domain_iso(op, g0, src)
        assert dp.range_dendriform_tri(composed) == dp.range_dendriform_tri(op)
        g, verdict = dp.induced_intertwiner(composed, op)
        assert g == g0 and verdict.passed

    # (b) equivalent operators have ranges isomorphic through f
    for op in ops:
        f = automorphisms_of(op.codomain, rng)
        h = random_invertible(rng, F3, op.domain.dim)
        op2, g = dp.transported_pair(op, f, h)
        assert dp.verify_operator_equiv(op, op2, f, g).passed
        r1 = dp.range_dendriform_tri(op)
        r2 = dp.range_dendriform_tri(op2)
        assert dp.verify_dendriform_iso(r1, r2, f).passed

    # (c) exhaustive search distinguishes the prec-only and succ-only structures
    four = dp.dendriform_di_to_field(dp.catalogue_entry("rb-4").structure, F3)
    six = dp.dendriform_di_to_field(dp.catalogue_entry("rb-6").structure, F3)
    res = dp.search_dendriform_iso_fp(four, six)
    assert not res.found
    assert res.candidates_tried == 48
    report(7, 60.0, started,
           "200+200 transport checks and a 48-candidate exhaustive search")


def test_criterion_8_exact_round_trips():
    started = time.perf_counter()
    rng = random.Random(808)
    for _ in range(1000):
        obj = sample_objects(rng)
        field = getattr(obj, "field", Q)
        data = dp.emit_document(obj, field=field)
        doc = dp.parse_document(data)
        assert doc.payload == obj
        assert dp.emit_document(doc) == data
        assert_no_floats(doc.payload)
    # construction-level audit: no floating point enters the arithmetic modules
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "dendrop")
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py"):
            with open(os.path.join(src, fname)) as fh:
                text = fh.read()
            assert "float(" not in text, fname
            assert "math.sqrt" not in text, fname
    report(8, 60.0, started,
           "1000 randomized documents round-trip; scalar types audited")
