import itertools
import random
import sys
from fractions import Fraction

import pytest

import dendrop as dp
from dendrop import linalg
from dendrop.errors import (DendropError, DimensionMismatchError, FieldMismatchError,
                            InvalidDendriformError, InvalidOperatorError, KernelNotIdealError,
                            KindMismatchError, SingularMatrixError)
from dendrop.linalg import Matrix, StructureTensor
from helpers import (F2, F3, Q, action_tables, diag, invertible_operator_suite, kx2, kx3, n2,
                     operator_suite, random_invertible, rb_operator_stock, split2,
                     zero_algebra)

ONE = Fraction(1)
ZERO = Fraction(0)
HALF = Fraction(1, 2)


def weight1_op():
    return dp.rb_as_o_operator(
        dp.RotaBaxterOperator(n2(), diag(Q, Fraction(1, 3), ONE), ONE))


def weight0_module_op():
    return dp.rb_as_module_operator(
        dp.RotaBaxterOperator(n2(), diag(Q, Fraction(1, 4), HALF), ZERO))


# -- domain constructions ------------------------------------------------------------

def test_domain_tri_of_weight1_diagonal():
    tri = dp.domain_dendriform_tri(weight1_op())
    expect = dp.make_dendriform_tri(Q, 2, {(1, 1, 0): ONE}, {(1, 1, 0): ONE},
                                    {(1, 1, 0): ONE})
    assert tri == expect
    assert dp.validate_dendriform_tri(tri).passed


def test_domain_tri_of_zero_map():
    # prec and succ vanish with the map; the dot term is weight * domain product
    # regardless of the map, so it only vanishes at weight zero or zero product
    op = dp.rb_as_o_operator(dp.RotaBaxterOperator(n2(), Matrix.zeros(Q, 2, 2), ZERO))
    tri = dp.domain_dendriform_tri(op)
    assert tri.prec.is_zero() and tri.succ.is_zero() and tri.dot.is_zero()
    op1 = dp.rb_as_o_operator(dp.RotaBaxterOperator(n2(), Matrix.zeros(Q, 2, 2), ONE))
    tri1 = dp.domain_dendriform_tri(op1)
    assert tri1.prec.is_zero() and tri1.succ.is_zero()
    assert tri1.dot == op1.domain.product
    assert dp.validate_dendriform_tri(tri1).passed


def test_domain_of_weight0_diagonal_operator_is_rb2_with_zero_dot():
    op = dp.rb_as_o_operator(
        dp.RotaBaxterOperator(n2(), diag(Q, Fraction(1, 4), HALF), ZERO))
    tri = dp.domain_dendriform_tri(op)
    rb2 = dp.catalogue_entry("rb-2").structure
    assert (tri.prec, tri.succ) == (rb2.prec, rb2.succ)
    assert tri.dot.is_zero()


def test_domain_di_module_reading_gives_rb2():
    d = dp.domain_dendriform_di(weight0_module_op())
    assert d == dp.catalogue_entry("rb-2").structure


def test_domain_di_zero_action_module():
    z = Matrix.zeros(Q, 1, 1)
    V = dp.Bimodule(n2(), *action_tables((z, z), (z, z)))
    op = dp.OOperator(V, n2(), Matrix(Q, ((ONE,), (ZERO,))), None)
    d = dp.domain_dendriform_di(op)
    assert d.prec.is_zero() and d.succ.is_zero()


def test_construction_refuses_invalid_operator():
    bad = dp.rb_as_o_operator(dp.RotaBaxterOperator(n2(), Matrix.identity(Q, 2), ZERO))
    with pytest.raises(InvalidOperatorError):
        dp.domain_dendriform_tri(bad)
    with pytest.raises(KindMismatchError):
        dp.domain_dendriform_di(bad)


def test_weight_scaling_only_moves_the_dot():
    base = dp.RotaBaxterOperator(zero_algebra(Q, 2), Matrix.zeros(Q, 2, 2), ZERO)
    dom = dp.canonical_bimodule(n2())
    tensors = {}
    for w in (ZERO, ONE, Fraction(3)):
        op = dp.OOperator(dom, n2(), Matrix.zeros(Q, 2, 2), w)
        tri = dp.domain_dendriform_tri(op)
        tensors[w] = tri
        assert tri.dot == dom.product.scale(w)
    assert tensors[ZERO].prec == tensors[ONE].prec == tensors[Fraction(3)].prec
    assert tensors[Fraction(3)].dot == tensors[ONE].dot.scale(Fraction(3))


@pytest.mark.parametrize("wrong", [n2(), Matrix.identity(Q, 2)], ids=["Algebra", "Matrix"])
def test_star_checks_refuse_what_is_not_a_dendriform_structure(wrong):
    # an algebra's one product would be read as the star, and the check would pass
    _, op = dp.canonical_operator_from_di(dp.catalogue_entry("rb-2").structure)
    message = f"^expected a dialgebra or a trialgebra, got an? {type(wrong).__name__}$"
    with pytest.raises(KindMismatchError, match=message):
        dp.check_splitting(wrong, n2())
    with pytest.raises(KindMismatchError, match=message):
        dp.check_operator_homomorphism(op, wrong)


# -- homomorphism check -------------------------------------------------------------------

def test_homomorphism_law_for_constructed_structures():
    for op in (weight1_op(),):
        tri = dp.domain_dendriform_tri(op)
        assert dp.check_operator_homomorphism(op, tri).passed
    mod = weight0_module_op()
    d = dp.domain_dendriform_di(mod)
    assert dp.check_operator_homomorphism(mod, d).passed


def test_homomorphism_holds_for_zero_map():
    op = dp.rb_as_o_operator(dp.RotaBaxterOperator(n2(), Matrix.zeros(Q, 2, 2), ONE))
    assert dp.check_operator_homomorphism(op, dp.domain_dendriform_tri(op)).passed


def test_homomorphism_check_rejects_a_structure_of_another_dimension():
    op = weight1_op()
    tri = dp.make_dendriform_tri(Q, 3, {}, {}, {})
    with pytest.raises(DimensionMismatchError):
        dp.check_operator_homomorphism(op, tri)


def test_homomorphism_fails_on_corrupted_structure():
    op = weight1_op()
    tri = dp.domain_dendriform_tri(op)
    corrupt = dp.DendriformTri(tri.prec, StructureTensor.zero(Q, 2), tri.dot)
    rep = dp.check_operator_homomorphism(op, corrupt)
    assert not rep.passed
    v = rep.first()
    assert v.indices == (1, 1)
    assert v.lhs == (Fraction(2, 3), ZERO)
    assert v.rhs == (ONE, ZERO)


# -- canonical operators ---------------------------------------------------------------------

def test_canonical_from_tri_example():
    tri = dp.make_dendriform_tri(Q, 2, {(1, 1, 0): ONE}, {(1, 1, 0): ONE},
                                 {(1, 1, 0): ONE})
    structure, op = dp.canonical_operator_from_tri(tri)
    assert dp.star_product(tri).product.row(1, 1) == (Fraction(3), ZERO)
    assert structure.left[1][1] == (ONE, ZERO)  # L(e2) e2 = e1
    assert op.matrix.is_identity() and op.weight == ONE
    assert dp.domain_dendriform_tri(op) == tri


def test_canonical_from_tri_zero():
    tri = dp.make_dendriform_tri(Q, 2, {}, {}, {})
    structure, op = dp.canonical_operator_from_tri(tri)
    flat = itertools.chain.from_iterable
    assert not any(flat(flat(structure.left + structure.right)))
    assert dp.domain_dendriform_tri(op) == tri


def test_canonical_from_tri_rb3_actions():
    rb3 = dp.catalogue_entry("rb-3").structure
    tri = dp.DendriformTri(rb3.prec, rb3.succ, StructureTensor.zero(Q, 2))
    structure, op = dp.canonical_operator_from_tri(tri)
    star = dp.star_product(tri).product
    assert star.row(0, 0) == (ONE, ZERO)
    assert star.row(0, 1) == (ZERO, ONE)
    assert star.row(1, 0) == (ZERO, ONE)
    assert structure.left[0] == ((ONE, ZERO), (ZERO, ONE))     # L(e1) = id
    assert tuple(row[0] for row in structure.right) == ((ZERO, ZERO), (ZERO, ONE))  # R(e1)
    assert dp.domain_dendriform_tri(op) == tri


def test_canonical_from_di_round_trips_catalogue():
    for entry in dp.builtin_catalogue():
        _, op = dp.canonical_operator_from_di(entry.structure)
        assert op.kind == "module"
        assert dp.domain_dendriform_di(op) == entry.structure


def test_canonical_refuses_invalid_dendriform():
    bad = dp.make_dendriform_di(Q, 2, {(0, 0, 1): ONE}, {(0, 0, 0): ONE})
    with pytest.raises(InvalidDendriformError,
                       match=r"^dialgebra axioms fail: canonical domain structure fails "
                             r"(left_action_mult|right_action_mult|action_commute) at \(\d, \d, \d\)$"):
        dp.canonical_operator_from_di(bad)
    # a dot that is not associative breaks only the bimodule-algebra laws (tri7)
    tri = dp.make_dendriform_tri(Q, 1, {}, {}, {(0, 0, 0): ONE})
    assert dp.canonical_operator_from_tri(tri)
    bad_tri = dp.make_dendriform_tri(F3, 2, {}, {}, {(0, 0, 1): 1, (1, 0, 0): 1})
    with pytest.raises(InvalidDendriformError,
                       match=r"^trialgebra axioms fail: canonical domain structure fails "):
        dp.canonical_operator_from_tri(bad_tri)


def test_canonical_refuses_the_other_dendriform_kind():
    d = dp.catalogue_entry("rb-5").structure
    tri = dp.DendriformTri(d.prec, d.succ, StructureTensor.zero(Q, 2))
    with pytest.raises(KindMismatchError, match="expected a dialgebra, got a DendriformTri"):
        dp.canonical_operator_from_di(tri)
    with pytest.raises(KindMismatchError, match="expected a trialgebra, got a DendriformDi"):
        dp.canonical_operator_from_tri(d)


def _tensor(field, n, flat):
    """The structure tensor whose entries, in (i, j, k) order, are ``flat``."""
    return StructureTensor(field, tuple(
        tuple(tuple(flat[(i * n + j) * n:(i * n + j + 1) * n]) for j in range(n))
        for i in range(n)))


def _refusal_matches_validator(kind, field, n, flat) -> bool:
    """Whether the canonical operator refuses the candidate; asserts the validator agrees."""
    size = n ** 3
    tensors = [_tensor(field, n, flat[k:k + size]) for k in range(0, len(flat), size)]
    if kind == "di":
        d = dp.DendriformDi(*tensors)
        canonical, validate = dp.canonical_operator_from_di, dp.validate_dendriform_di
    else:
        d = dp.DendriformTri(*tensors)
        canonical, validate = dp.canonical_operator_from_tri, dp.validate_dendriform_tri
    try:
        canonical(d)
        refused = False
    except InvalidDendriformError:
        refused = True
    assert refused == (not validate(d, 1, True).passed)
    return refused


@pytest.mark.parametrize("kind,tables", [("di", 2), ("tri", 3)])
@pytest.mark.parametrize("p", [2, 3])
def test_canonical_refuses_exactly_what_the_validator_fails_dim1(kind, tables, p):
    field = dp.prime_field(p)
    verdicts = [_refusal_matches_validator(kind, field, 1, flat)
                for flat in itertools.product(range(p), repeat=tables)]
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("kind,tables", [("di", 2), ("tri", 3)])
def test_canonical_refuses_exactly_what_the_validator_fails_dim2(kind, tables):
    """2,000 candidates over F_2: uniform ones, the 130 dialgebras (with zero
    dot for trialgebras), and those with one entry flipped."""
    rng = random.Random(2202 + tables)
    valid = [[a for t in d.tensors() for plane in t.entries for row in plane for a in row]
             + [0] * 8 * (tables - 2) for d in dp.enumerate_dendriform_di(2, 2)]
    sample = [[rng.randrange(2) for _ in range(8 * tables)] for _ in range(1000)] + valid
    while len(sample) < 2000:
        flat = list(rng.choice(valid))
        flat[rng.randrange(len(flat))] ^= 1
        sample.append(flat)
    verdicts = [_refusal_matches_validator(kind, F2, 2, flat) for flat in sample]
    assert verdicts.count(False) > len(valid) and verdicts.count(True) > 1000


# -- kernel ideal check -----------------------------------------------------------------------

def test_invertible_operator_kernel_vacuous():
    assert dp.kernel_ideal_check(weight1_op())


def test_zero_multiplication_kernel_always_ideal():
    z = Matrix.zeros(Q, 2, 2)
    base = dp.Bimodule(n2(), *action_tables((z, z), (z, z)))
    dom = dp.BimoduleAlgebra(base, StructureTensor.zero(Q, 2))
    op = dp.OOperator(dom, n2(), Matrix(Q, ((ONE, ZERO), (ZERO, ZERO))), ZERO)
    assert dp.kernel_ideal_check(op)


def kernel_not_ideal_op():
    # domain: u2 o u2 = u1 with zero actions over the 1-dim zero algebra;
    # alpha(u1) = e, alpha(u2) = 0 puts u2 in the kernel but u2 o u2 = u1 outside
    A1 = zero_algebra(Q, 1)
    z = Matrix.zeros(Q, 2, 2)
    base = dp.Bimodule(A1, *action_tables((z,), (z,)))
    dom = dp.BimoduleAlgebra(base, StructureTensor.from_triples(Q, 2, {(1, 1, 0): ONE}))
    return dp.OOperator(dom, A1, Matrix(Q, ((ONE, ZERO),)), ZERO)


def test_kernel_not_ideal_example():
    op = kernel_not_ideal_op()
    assert dp.validate_o_algebra(op).passed
    assert not dp.kernel_ideal_check(op)
    # swapping which generator maps to zero makes the kernel an ideal
    A1 = op.codomain
    dom = op.domain
    other = dp.OOperator(dom, A1, Matrix(Q, ((ZERO, ONE),)), ZERO)
    assert dp.kernel_ideal_check(other)


def test_kernel_ideal_check_matches_the_definition():
    # zero actions over a zero algebra, random domain products over F_3: the
    # check must agree with testing u o b_v and b_v o u one by one with in_span
    rng = random.Random(9)
    seen = set()
    for _ in range(400):
        m, n = rng.randint(1, 3), rng.randint(1, 2)
        A0 = zero_algebra(F3, n)
        z = Matrix.zeros(F3, m, m)
        prod = StructureTensor(F3, tuple(tuple(tuple(rng.choice((0, 0, 1, 2)) for _ in range(m))
                                               for _ in range(m)) for _ in range(m)))
        dom = dp.BimoduleAlgebra(dp.Bimodule(A0, *action_tables((z,) * n, (z,) * n)), prod)
        mat = Matrix(F3, tuple(tuple(rng.randrange(3) for _ in range(m)) for _ in range(n)))
        op = dp.OOperator(dom, A0, mat, 0)
        ker = dp.kernel_basis(mat)
        basis = [tuple(int(i == v) for i in range(m)) for v in range(m)]
        want = all(dp.in_span(ker, w, F3) for u in ker for e_v in basis
                   for w in (prod.apply(u, e_v), prod.apply(e_v, u)))
        assert dp.kernel_ideal_check(op) == want
        seen.add(want)
    assert seen == {True, False}


# -- range constructions -----------------------------------------------------------------------

def test_range_tri_of_weight1_diagonal():
    op = weight1_op()
    tri = dp.range_dendriform_tri(op)
    third = Fraction(1, 3)
    expect = dp.make_dendriform_tri(Q, 2, {(1, 1, 0): third}, {(1, 1, 0): third},
                                    {(1, 1, 0): third})
    assert tri == expect
    assert dp.validate_dendriform_tri(tri).passed
    assert dp.check_splitting(tri, op.codomain).passed


def test_range_tri_of_canonical_operator_recovers_input():
    tri = dp.make_dendriform_tri(Q, 2, {(1, 1, 0): ONE}, {(1, 1, 0): ONE},
                                 {(1, 1, 0): ONE})
    _, op = dp.canonical_operator_from_tri(tri)
    assert dp.range_dendriform_tri(op) == tri


def test_alpha_is_an_isomorphism_from_the_domain_onto_the_range_structure():
    # checked by the homomorphism scan of verify_dendriform_iso, not by the transport
    ops = invertible_operator_suite(count=40)[0]
    ops += [op for _, op in operator_suite(min_cases=200)
            if op.matrix.is_square and dp.rank(op.matrix) == op.codomain.dim]
    assert len(ops) == 40 + 134
    for op in ops:
        domain, rng = dp.domain_dendriform_tri(op), dp.range_dendriform_tri(op)
        assert dp.verify_dendriform_iso(domain, rng, op.matrix).passed


def test_range_tri_zero_map_is_singular():
    op = dp.rb_as_o_operator(dp.RotaBaxterOperator(n2(), Matrix.zeros(Q, 2, 2), ONE))
    with pytest.raises(SingularMatrixError):
        dp.range_dendriform_tri(op)


def test_range_di_module_reading_splits_n2():
    op = weight0_module_op()
    d = dp.range_dendriform_di(op)
    assert d.prec.row(1, 1) == (HALF, ZERO)
    assert d.succ.row(1, 1) == (HALF, ZERO)
    assert dp.check_splitting(d, op.codomain).passed


def test_range_di_identity_from_canonical():
    d = dp.catalogue_entry("rb-5").structure
    _, op = dp.canonical_operator_from_di(d)
    assert dp.range_dendriform_di(op) == d


def count_eliminations(monkeypatch) -> list:
    """The matrices ``linalg._rref`` eliminates while the test runs, one entry per elimination.

    Each is the argument ``M`` of the ``linalg`` function that eliminates
    (``invert``, ``rank``, ``kernel_basis``, ``solve``).
    """
    calls, real = [], linalg._rref

    def counting(*args):
        calls.append(sys._getframe(1).f_locals["M"])
        return real(*args)

    monkeypatch.setattr(linalg, "_rref", counting)
    return calls


def minus_identity_operator(field):
    """-id on k x k, a weight-one Rota-Baxter operator over any field, as an O-operator."""
    return dp.rb_as_o_operator(dp.RotaBaxterOperator(split2(field), diag(field, -1, -1), 1))


@pytest.mark.parametrize("field", [Q, F3], ids=["Q", "F3"])
@pytest.mark.parametrize("kind", ["di", "tri"])
def test_a_pulled_back_identity_operator_keeps_its_inverse(monkeypatch, field, kind):
    if kind == "di":
        d = dp.dendriform_di_to_field(dp.catalogue_entry("rb-3").structure, field)
        _, op = dp.canonical_operator_from_di(d)
        range_of = dp.range_dendriform_di
    else:
        d = dp.domain_dendriform_tri(minus_identity_operator(field))
        _, op = dp.canonical_operator_from_tri(d)
        range_of = dp.range_dendriform_tri
    assert op.matrix.is_identity()
    rng = random.Random(30)
    calls = count_eliminations(monkeypatch)
    for _ in range(5):
        h = random_invertible(rng, field, d.dim)
        moved = dp.compose_with_domain_iso(op, h, dp.pullback_domain(op.domain, h))
        # alpha o h is h itself, whose inverse pullback_domain found and h keeps
        assert moved.matrix is h
        rebuilt = dp.OOperator(moved.domain, moved.codomain, Matrix(field, h.entries),
                               moved.weight)
        calls.clear()
        kept = range_of(moved)
        assert calls == []
        # a second method: the same range from a matrix with nothing kept, eliminated once
        assert kept == range_of(rebuilt) == range_of(rebuilt)
        assert len(calls) == 1 and calls[0] is rebuilt.matrix


def test_a_singular_matrix_keeps_no_inverse(monkeypatch):
    rng = random.Random(31)
    invertible = minus_identity_operator(F3)
    singular = dp.rb_as_o_operator(
        dp.RotaBaxterOperator(split2(F3), diag(F3, -1, 0), 1))
    h, g = (random_invertible(rng, F3, 2) for _ in range(2))
    moved = dp.compose_with_domain_iso(invertible, h, dp.pullback_domain(invertible.domain, h))
    moved_singular = dp.compose_with_domain_iso(singular, g,
                                                dp.pullback_domain(singular.domain, g))
    # alpha o g is a new matrix, which keeps nothing until it is inverted
    assert "_inverse" not in vars(moved.matrix)
    assert "_inverse" not in vars(moved_singular.matrix)
    calls = count_eliminations(monkeypatch)
    for _ in range(2):
        assert dp.check_splitting(dp.range_dendriform_tri(moved), moved.codomain).passed
        with pytest.raises(SingularMatrixError):
            dp.range_dendriform_tri(moved_singular)
    # the invertible matrix is eliminated once and keeps its inverse, which keeps it;
    # the singular one keeps nothing, so each try eliminates it again
    assert [id(M) for M in calls] == [id(moved.matrix), id(moved_singular.matrix),
                                      id(moved_singular.matrix)]
    assert linalg.invert(linalg.invert(moved.matrix)) is moved.matrix
    assert "_inverse" not in vars(moved_singular.matrix)


# -- quotient path ------------------------------------------------------------------------------

def invertible_weight1_ops():
    """Invertible weight-one operators in dims 2-3 over Q and F_3.

    -id on each fixture algebra, its transport along a seeded domain iso,
    and the canonical operator of its domain trialgebra; over F_3 also the
    enumerated invertible weight-one Rota-Baxter operators in dim 2.
    """
    rng = random.Random(17)
    ops = [weight1_op()]
    for field in (Q, F3):
        for alg in (n2(field), kx2(field), split2(field), kx3(field)):
            minus_id = Matrix.identity(field, alg.dim).scale(-1)
            op = dp.rb_as_o_operator(dp.RotaBaxterOperator(alg, minus_id, field.one))
            h = random_invertible(rng, field, alg.dim)
            ops += [op,
                    dp.compose_with_domain_iso(op, h, dp.pullback_domain(op.domain, h)),
                    dp.canonical_operator_from_tri(dp.domain_dendriform_tri(op))[1]]
    ops += [dp.rb_as_o_operator(rb) for rb in rb_operator_stock(F3)
            if rb.weight == 1 and dp.rank(rb.matrix) == rb.algebra.dim]
    return ops


def test_quotient_agrees_with_invertible_mode():
    ops = invertible_weight1_ops()
    assert {(op.field, op.codomain.dim) for op in ops} == {(f, n) for f in (Q, F3)
                                                           for n in (2, 3)}
    for op in ops:
        quot = dp.range_dendriform_quotient(op)
        assert quot.structure == dp.range_dendriform_tri(op)
        assert quot.embedding.is_identity()
        assert quot.image_algebra.product == op.codomain.product


def test_quotient_of_rank_one_operator():
    z = Matrix.zeros(Q, 2, 2)
    base = dp.Bimodule(n2(), *action_tables((z, z), (z, z)))
    dom = dp.BimoduleAlgebra(base, StructureTensor.zero(Q, 2))
    op = dp.OOperator(dom, n2(), Matrix(Q, ((ONE, ZERO), (ZERO, ZERO))), ZERO)
    quot = dp.range_dendriform_quotient(op)
    assert quot.structure.dim == 1
    assert quot.structure.prec.is_zero()
    assert quot.structure.succ.is_zero()
    assert quot.structure.dot.is_zero()
    assert quot.embedding.col(0) == (ONE, ZERO)
    assert dp.check_splitting(quot.structure, quot.image_algebra).passed


def test_quotient_reads_coordinates_at_the_image_pivots():
    # -pi on k^3 (three orthogonal idempotents), pi the projection onto the
    # subalgebra span(e1, e3) along the ideal span(e2): the image basis has
    # pivots 0 and 2, and the quotient is the range of -id on k x k
    split3 = dp.make_algebra(Q, 3, {(i, i, i): ONE for i in range(3)})
    op = dp.rb_as_o_operator(dp.RotaBaxterOperator(split3, diag(Q, -ONE, ZERO, -ONE), ONE))
    quot = dp.range_dendriform_quotient(op)
    assert quot.embedding.columns() == [(ONE, ZERO, ZERO), (ZERO, ZERO, ONE)]
    assert quot.image_algebra == split2()
    minus_id = dp.rb_as_o_operator(dp.RotaBaxterOperator(split2(), diag(Q, -ONE, -ONE), ONE))
    assert quot.structure == dp.range_dendriform_tri(minus_id)


def test_quotient_requires_ideal_kernel():
    with pytest.raises(KernelNotIdealError):
        dp.range_dendriform_quotient(kernel_not_ideal_op())


def test_unknown_section_rule_is_a_library_error_raised_first():
    # the rule is refused before the operator is validated or its kernel checked
    bad_op = dp.rb_as_o_operator(dp.RotaBaxterOperator(n2(), diag(Q, ONE, ONE), ONE))
    for op in (weight1_op(), kernel_not_ideal_op(), bad_op):
        with pytest.raises(DendropError, match="section rule") as err:
            dp.range_dendriform_quotient(op, section_rule="middle")
        assert isinstance(err.value, ValueError)


def test_quotient_section_rules_agree_when_kernel_ideal():
    # zero-action, zero-product 3-dim domains over a zero codomain algebra:
    # every map validates and every kernel is an ideal
    rng = random.Random(5)
    A0 = zero_algebra(F3, 2)
    z = Matrix.zeros(F3, 3, 3)
    dom = dp.BimoduleAlgebra(dp.Bimodule(A0, *action_tables((z, z), (z, z))),
                             StructureTensor.zero(F3, 3))
    seen_nontrivial = 0
    for _ in range(25):
        mat = Matrix(F3, tuple(tuple(rng.randrange(3) for _ in range(3))
                               for _ in range(2)))
        op = dp.OOperator(dom, A0, mat, 0)
        assert dp.validate_o_algebra(op, max_violations=1, early_stop=True).passed
        first = dp.range_dendriform_quotient(op, section_rule="first")
        last = dp.range_dendriform_quotient(op, section_rule="last")
        assert first.structure == last.structure
        assert first.embedding == last.embedding
        if 0 < dp.rank(mat):
            seen_nontrivial += 1
    assert seen_nontrivial > 0


def projection_operator_with_ideal_kernel(field):
    """Project A + k onto A for A = kx2; an operator of weight -1.

    The extra line acts and multiplies by zero, so the kernel is an ideal
    while the image products stay nonzero.
    """
    from helpers import kx2

    A = kx2(field)
    ba = dp.canonical_bimodule(A)
    zero, one = field.zero, field.one

    def extend(v):
        return v + (zero,)

    line = (zero,) * 3  # the extra line's action vectors, and its row of right actions
    left = tuple(tuple(map(extend, plane)) + (line,) for plane in ba.left)
    right = tuple(tuple(map(extend, row)) for row in ba.right) + ((line,) * A.dim,)
    prod = StructureTensor.from_triples(
        field, 3, {(i, j, k): c for (i, j, k), c in A.product.nonzero_triples()})
    dom = dp.BimoduleAlgebra(dp.Bimodule(A, left, right), prod)
    mat = Matrix(field, ((one, zero, zero), (zero, one, zero)))
    return dp.OOperator(dom, A, mat, field.coerce(-1))


def test_quotient_sections_differ_but_tensors_agree_on_skewed_kernels():
    rng = random.Random(9)
    op = projection_operator_with_ideal_kernel(F3)
    assert dp.validate_o_algebra(op).passed
    assert dp.kernel_ideal_check(op)
    nonzero_products = 0
    section_divergences = 0
    for _ in range(15):
        h = random_invertible(rng, F3, 3)
        moved = dp.compose_with_domain_iso(op, h, dp.pullback_domain(op.domain, h))
        assert dp.kernel_ideal_check(moved)
        first = dp.range_dendriform_quotient(moved, section_rule="first")
        last = dp.range_dendriform_quotient(moved, section_rule="last")
        assert first.structure == last.structure
        assert first.embedding == last.embedding
        assert dp.check_splitting(first.structure, first.image_algebra).passed
        if not first.structure.prec.is_zero():
            nonzero_products += 1
        if any(dp.solve(moved.matrix, w, pivot_rule="first") !=
               dp.solve(moved.matrix, w, pivot_rule="last")
               for w in first.embedding.columns()):
            section_divergences += 1
    assert nonzero_products > 0
    assert section_divergences > 0


# -- splitting check ----------------------------------------------------------------------------

def test_splitting_fail_example():
    six4 = dp.catalogue_entry("rb-4").structure
    rep = dp.check_splitting(six4, zero_algebra(Q, 2))
    assert not rep.passed
    assert rep.first().indices == (1, 1)


def test_splitting_zero_vs_zero():
    d = dp.make_dendriform_di(Q, 2, {}, {})
    assert dp.check_splitting(d, zero_algebra(Q, 2)).passed


def test_splitting_rb2_sums_to_n2():
    assert dp.check_splitting(dp.catalogue_entry("rb-2").structure, n2()).passed


def test_star_checks_refuse_structures_over_different_fields():
    rb4 = dp.catalogue_entry("rb-4").structure
    star = dp.star_product(rb4)
    F2, F5 = dp.prime_field(2), dp.prime_field(5)
    with pytest.raises(FieldMismatchError):
        dp.check_splitting(rb4, dp.algebra_to_field(star, F2))
    with pytest.raises(FieldMismatchError):
        dp.check_splitting(dp.dendriform_di_to_field(rb4, F5), dp.algebra_to_field(star, F3))
    _, op = dp.canonical_operator_from_di(rb4)
    with pytest.raises(FieldMismatchError):
        dp.check_operator_homomorphism(op, dp.dendriform_di_to_field(rb4, F3))
