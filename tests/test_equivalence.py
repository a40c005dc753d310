import itertools
import math
import random
from fractions import Fraction

import pytest

import dendrop as dp
from dendrop.errors import (DimensionCapError, DimensionMismatchError, FieldMismatchError,
                            FieldNotFiniteError, KindMismatchError, NotInvertibleError,
                            NotMultiplicativeError, SingularMatrixError)
from dendrop.enumeration import _column_leaves
from dendrop.equivalence import _completions, _gl_choices, _gl_position, _iso_rows
from dendrop.linalg import Matrix, rank
from helpers import (F2, F3, F5, Q, action_tables, automorphisms_of, diag, kx2, kx3, n2,
                     random_invertible, random_vector)

ONE = Fraction(1)
ZERO = Fraction(0)


def over3(name):
    return dp.dendriform_di_to_field(dp.catalogue_entry(name).structure, F3)


def _same_class_counts(d1, d2):
    return sorted(d1._vector_classes.values()) == sorted(d2._vector_classes.values())


# -- dendriform isomorphism witnesses ------------------------------------------------

def test_identity_is_always_a_witness():
    d = dp.catalogue_entry("rb-3").structure
    assert dp.verify_dendriform_iso(d, d, Matrix.identity(Q, 2)).passed


def test_rescaled_copy_witnessed_by_diagonal():
    six4 = dp.catalogue_entry("rb-4").structure
    scaled = dp.make_dendriform_di(Q, 2, {(1, 1, 0): Fraction(4)}, {})
    F = diag(Q, Fraction(4), ONE)
    assert dp.verify_dendriform_iso(six4, scaled, F).passed


def test_prec_only_vs_succ_only_never_isomorphic():
    six4, six6 = dp.catalogue_entry("rb-4").structure, dp.catalogue_entry("rb-6").structure
    F = Matrix(Q, ((ZERO, ONE), (ONE, ZERO)))
    rep = dp.verify_dendriform_iso(six4, six6, F)
    assert not rep.passed
    assert rep.first().axiom == "iso_prec"


def test_witness_must_be_invertible():
    d = dp.catalogue_entry("rb-4").structure
    with pytest.raises(NotInvertibleError):
        dp.verify_dendriform_iso(d, d, Matrix.zeros(Q, 2, 2))


def test_witness_over_another_field_rejected():
    # the identity over Q is no witness for structures over F_3
    d = over3("rb-4")
    with pytest.raises(FieldMismatchError):
        dp.verify_dendriform_iso(d, d, Matrix.identity(Q, 2))


def test_kind_mismatch_rejected():
    d = dp.catalogue_entry("rb-4").structure
    tri = dp.DendriformTri(d.prec, d.succ, d.prec.scale(ZERO))
    with pytest.raises(KindMismatchError):
        dp.verify_dendriform_iso(d, tri, Matrix.identity(Q, 2))


@pytest.mark.parametrize("other", [n2(F3), Matrix.identity(F3, 2)])
def test_non_dendriform_inputs_rejected(other):
    d = over3("rb-4")
    for d1, d2 in ((other, other), (d, other), (other, d)):
        with pytest.raises(KindMismatchError):
            dp.verify_dendriform_iso(d1, d2, Matrix.identity(F3, 2))
        with pytest.raises(KindMismatchError):
            dp.search_dendriform_iso_fp(d1, d2)


def test_non_dendriform_refusals_name_the_class_with_its_article():
    alg = n2(F3)
    for other, got in ((alg, "an Algebra"), (Matrix.identity(F3, 2), "a Matrix")):
        with pytest.raises(KindMismatchError) as err:
            dp.search_dendriform_iso_fp(other, other)
        assert str(err.value) == f"expected a dialgebra or a trialgebra, got {got}"


def test_witness_symmetry_forward_implies_inverse_backward():
    rng = random.Random(21)
    d1 = over3("rb-4")
    for _ in range(25):
        F = random_invertible(rng, F3, 2)
        # transport d1 through F to make an isomorphic copy
        Finv = dp.invert(F)
        prec = tuple(tuple(F.matvec(d1.prec.apply(Finv.col(i), Finv.col(j)))
                           for j in range(2)) for i in range(2))
        succ = tuple(tuple(F.matvec(d1.succ.apply(Finv.col(i), Finv.col(j)))
                           for j in range(2)) for i in range(2))
        d2 = dp.DendriformDi(dp.StructureTensor(F3, prec), dp.StructureTensor(F3, succ))
        assert dp.verify_dendriform_iso(d1, d2, F).passed
        assert dp.verify_dendriform_iso(d2, d1, Finv).passed


def test_splitting_compatible_witnesses_are_algebra_automorphisms():
    # on structures that split the same product, a dendriform witness is
    # automatically multiplicative for the summed product
    rng = random.Random(33)
    d1 = over3("rb-2")
    star = dp.star_product(d1)
    for _ in range(40):
        F = random_invertible(rng, F3, 2)
        rep = dp.verify_dendriform_iso(d1, d1, F)
        if rep.passed:
            assert dp.is_multiplicative(F, star)


# -- operator isomorphism and equivalence -----------------------------------------------

def invertible_op():
    alg = n2(F3)
    rbs = [rb for rb in dp.enumerate_rb_operators(alg, 0)
           if dp.rank(rb.matrix) == 2]
    assert rbs
    return dp.rb_as_o_operator(rbs[0])


def test_operator_iso_identity():
    op = invertible_op()
    assert dp.verify_operator_iso(op, op, Matrix.identity(F3, 2)).passed


def test_operator_iso_via_domain_transport():
    rng = random.Random(2)
    op = invertible_op()
    g = random_invertible(rng, F3, 2)
    src = dp.pullback_domain(op.domain, g)
    composed = dp.compose_with_domain_iso(op, g, src)
    assert dp.verify_operator_iso(composed, op, g).passed


def test_operator_iso_detects_map_mismatch():
    op = invertible_op()
    doubled = dp.OOperator(op.domain, op.codomain, op.matrix.scale(2), op.weight)
    rep = dp.verify_operator_iso(doubled, op, Matrix.identity(F3, 2))
    assert not rep.passed
    assert any(v.axiom == "map_eq" for v in rep.violations)


def test_operator_equiv_identity_witnesses():
    op = invertible_op()
    eye = Matrix.identity(F3, 2)
    assert dp.verify_operator_equiv(op, op, eye, eye).passed


def test_operator_equiv_via_twist():
    rng = random.Random(6)
    op = invertible_op()
    f = automorphisms_of(op.codomain, rng)
    twisted = dp.twist_by_range_automorphism(op, f)
    assert dp.verify_operator_equiv(op, twisted, f, Matrix.identity(F3, 2)).passed


def test_operator_equiv_full_transport():
    rng = random.Random(7)
    op = invertible_op()
    for _ in range(10):
        f = automorphisms_of(op.codomain, rng)
        h = random_invertible(rng, F3, 2)
        op2, g = dp.transported_pair(op, f, h)
        assert dp.verify_operator_equiv(op, op2, f, g).passed


def test_operator_equiv_rejects_bad_witnesses():
    op = invertible_op()
    eye = Matrix.identity(F3, 2)
    with pytest.raises(NotInvertibleError):
        dp.verify_operator_equiv(op, op, eye, Matrix.zeros(F3, 2, 2))
    # diag(2, 1) on e2*e2 = e1 sends the product to 2 e1 but the factors to e1
    with pytest.raises(NotMultiplicativeError):
        dp.verify_operator_equiv(op, op, Matrix(F3, ((2, 0), (0, 1))), eye)


# -- induced intertwiner -------------------------------------------------------------------

def test_induced_intertwiner_same_operator():
    op = invertible_op()
    g, rep = dp.induced_intertwiner(op, op)
    assert g.is_identity()
    assert rep.passed


def test_induced_intertwiner_recovers_transport():
    rng = random.Random(13)
    op = invertible_op()
    g0 = random_invertible(rng, F3, 2)
    src = dp.pullback_domain(op.domain, g0)
    composed = dp.compose_with_domain_iso(op, g0, src)
    # equal range structures by construction
    assert dp.range_dendriform_tri(composed) == dp.range_dendriform_tri(op)
    g, rep = dp.induced_intertwiner(composed, op)
    assert g == g0
    assert rep.passed


def test_induced_intertwiner_fails_for_different_ranges():
    rng = random.Random(14)
    op = invertible_op()
    f = None
    # find a non-identity automorphism so the ranges genuinely differ
    while f is None or f.is_identity():
        f = automorphisms_of(op.codomain, rng)
    twisted = dp.twist_by_range_automorphism(op, f)
    if dp.range_dendriform_tri(twisted) != dp.range_dendriform_tri(op):
        g, rep = dp.induced_intertwiner(twisted, op)
        assert not rep.passed


def test_induced_intertwiner_requires_invertible():
    op = invertible_op()
    singular = dp.rb_as_o_operator(
        dp.RotaBaxterOperator(op.codomain, Matrix.zeros(F3, 2, 2), 0))
    with pytest.raises(SingularMatrixError):
        dp.induced_intertwiner(op, singular)


# -- one refusal rule for witness and transport matrices -------------------------------

def _refusal_entries():
    """Each entry point as (call with a 2 x 2 candidate, call with a bad shape).

    The rational operator is the canonical one of rb-4; the bad shape is a
    3 x 3 candidate, or a full-rank 2 x 3 one between domains of dimension
    3 and 2.
    """
    d = dp.catalogue_entry("rb-4").structure
    _, op = dp.canonical_operator_from_di(d)
    zero3 = (Matrix.zeros(Q, 3, 3),) * 2
    wide = dp.Bimodule(op.codomain, *action_tables(zero3, zero3))
    op3 = dp.OOperator(wide, op.codomain, Matrix.zeros(Q, 2, 3))
    eye, eye3 = Matrix.identity(Q, 2), Matrix.identity(Q, 3)
    g23 = Matrix(Q, ((1, 0, 0), (0, 1, 0)))
    return {
        "verify_dendriform_iso": (lambda M: dp.verify_dendriform_iso(d, d, M),
                                  lambda: dp.verify_dendriform_iso(d, d, eye3)),
        "verify_operator_iso": (lambda M: dp.verify_operator_iso(op, op, M),
                                lambda: dp.verify_operator_iso(op3, op, g23)),
        "verify_operator_equiv f": (lambda M: dp.verify_operator_equiv(op, op, M, eye),
                                    lambda: dp.verify_operator_equiv(op, op, eye3, eye)),
        "verify_operator_equiv g": (lambda M: dp.verify_operator_equiv(op, op, eye, M),
                                    lambda: dp.verify_operator_equiv(op3, op, eye, g23)),
        "compose_with_domain_iso": (lambda M: dp.compose_with_domain_iso(op, M, op.domain),
                                    lambda: dp.compose_with_domain_iso(op, g23, wide)),
        "twist_by_range_automorphism": (lambda M: dp.twist_by_range_automorphism(op, M),
                                        lambda: dp.twist_by_range_automorphism(op, eye3)),
        "pullback_domain": (lambda M: dp.pullback_domain(op.domain, M),
                            lambda: dp.pullback_domain(op.domain, eye3)),
    }


@pytest.mark.parametrize("entry", list(_refusal_entries()))
@pytest.mark.parametrize("case, error", [
    ("singular over F_3", FieldMismatchError),
    ("invertible over F_3", FieldMismatchError),
    ("wrong shape", DimensionMismatchError),
    ("singular over Q", NotInvertibleError),
])
def test_witness_refused_by_field_then_shape_then_rank(entry, case, error):
    call, call_with_bad_shape = _refusal_entries()[entry]
    candidates = {"singular over F_3": Matrix(F3, ((0, 0), (0, 1))),
                  "invertible over F_3": Matrix.identity(F3, 2),
                  "singular over Q": Matrix(Q, ((0, 0), (0, 1)))}
    with pytest.raises(error):
        call_with_bad_shape() if case == "wrong shape" else call(candidates[case])


# -- exhaustive search ------------------------------------------------------------------------

def test_search_identity_first_for_equal_structures():
    d = over3("rb-4")
    res = dp.search_dendriform_iso_fp(d, d)
    assert res.found
    # lexicographically the first invertible 2x2 matrix over F_3 is [[0,1],[1,0]],
    # which happens to swap the basis; for rb-4 it is not a witness, the identity
    # region is reached later, so just re-verify whatever was returned
    assert dp.verify_dendriform_iso(d, d, res.witness.matrix).passed


def test_search_four_vs_six_exhausts_gl2_f3():
    four, six = over3("rb-4"), over3("rb-6")
    res = dp.search_dendriform_iso_fp(four, six)
    assert not res.found
    assert res.candidates_tried == 48  # order of GL_2(F_3)
    # their class counts differ: refused before any column is walked
    assert not _same_class_counts(four, six)
    assert res.nodes == 0


def test_search_finds_basis_swap_for_relabeled_copy():
    six4 = over3("rb-4")
    relabeled = dp.make_dendriform_di(F3, 2, {(0, 0, 1): 1}, {})
    res = dp.search_dendriform_iso_fp(six4, relabeled)
    assert res.found
    assert res.witness.matrix == Matrix(F3, ((0, 1), (1, 0)))
    assert res.witness.role == "dendriform-iso"
    assert dp.verify_dendriform_iso(six4, relabeled, res.witness.matrix).passed


def test_search_requires_finite_field_and_small_dim():
    d = dp.catalogue_entry("rb-4").structure
    with pytest.raises(FieldNotFiniteError):
        dp.search_dendriform_iso_fp(d, d)
    big = dp.make_dendriform_di(F3, 4, {}, {})
    with pytest.raises(DimensionCapError):
        dp.search_dendriform_iso_fp(big, big)


def test_gl_enumeration_order_and_size():
    mats = list(dp.gl_matrices(F3, 2))
    assert len(mats) == 48
    assert mats[0] == Matrix(F3, ((0, 1), (1, 0)))
    flats = [tuple(a for row in M.entries for a in row) for M in mats]
    assert flats == sorted(flats)


def test_not_found_confirmed_by_independent_reenumeration():
    # determinant-based scan of all 81 matrices, independent of the search path
    four, six = over3("rb-4"), over3("rb-6")
    invertible = 0
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    if (a * d - b * c) % 3 == 0:
                        continue
                    invertible += 1
                    F = Matrix(F3, ((a, b), (c, d)))
                    assert not dp.verify_dendriform_iso(four, six, F).passed
    assert invertible == 48


@pytest.mark.parametrize("p, n, order", [(2, 1, 1), (3, 1, 2), (2, 2, 6), (3, 2, 48),
                                         (5, 2, 480), (2, 3, 168), (3, 3, 11232)])
def test_gl_walk_is_the_rank_filtered_lexicographic_order(p, n, order):
    field = dp.prime_field(p)
    naive = [flat for flat in itertools.product(range(p), repeat=n * n)
             if rank(Matrix(field, [flat[r * n:(r + 1) * n] for r in range(n)])) == n]
    walked = [sum(M.entries, ()) for M in dp.gl_matrices(field, n)]
    assert walked == naive
    assert len(walked) == order == math.prod(p ** n - p ** k for k in range(n))


def test_gl_matrices_is_lazy():
    # |GL_4(F_5)| is about 1.2e11: only a lazy walk returns its first member
    first = next(dp.gl_matrices(F5, 4))
    assert first == Matrix(F5, tuple(tuple(int(r + c == 3) for c in range(4)) for r in range(4)))


def _naive_search(d1, d2):
    tried = 0
    for F in dp.gl_matrices(d1.field, d1.dim):
        tried += 1
        if dp.verify_dendriform_iso(d1, d2, F).passed:
            return F, tried
    return None, tried


def _rb_images(algebras, weight, to_structure, count):
    """The first ``count`` distinct structures of Rota-Baxter operators on ``algebras``."""
    out = []
    for alg in algebras:
        for rb in dp.enumerate_rb_operators(alg, weight):
            d = to_structure(rb)
            if d not in out:
                out.append(d)
            if len(out) == count:
                return out
    return out


def _di_image(rb):
    return dp.domain_dendriform_di(dp.rb_as_module_operator(rb))


def _tri_image(rb):
    return dp.domain_dendriform_tri(dp.rb_as_o_operator(rb))


@pytest.mark.parametrize("algebras, weight, to_structure, count", [
    (lambda: dp.enumerate_associative_products(2, 3), 0, _di_image, 8),
    (lambda: dp.enumerate_associative_products(2, 3), 1, _tri_image, 4),
    (lambda: [kx3(F2)], 0, _di_image, 4),
    (lambda: [n2(F5), kx2(F5)], 0, _di_image, 6),
], ids=["dialgebras", "trialgebras", "f2-dim3-dialgebras", "f5-dialgebras"])
def test_search_agrees_with_a_naive_verify_loop(algebras, weight, to_structure, count):
    ds = _rb_images(algebras(), weight, to_structure, count)
    assert len(ds) == count
    outcomes = set()
    for d1 in ds:
        for d2 in ds:
            res = dp.search_dendriform_iso_fp(d1, d2)
            witness, tried = _naive_search(d1, d2)
            assert res.candidates_tried == tried
            assert (res.witness.matrix if res.found else None) == witness
            outcomes.add(res.found)
    assert outcomes == {True, False}


@pytest.mark.parametrize("p, n", [(2, 1), (3, 2), (2, 3)])
def test_closed_form_position_is_the_gl_matrices_index(p, n):
    for index, M in enumerate(dp.gl_matrices(dp.prime_field(p), n), start=1):
        assert _gl_position(p, M.entries) == index


# Every invertible matrix is an automorphism of the zero dialgebra over F_3.  Before any
# leaf the walk offers the 8 nonzero first columns.  Under (0, 1) it offers the 6 vectors
# outside their span, and the first, (1, 0), gives the leaf [[0, 1], [1, 0]]: row 0 is
# (0, 1).  Under (0, 2) only the 3 second columns with first coordinate 1 keep row 0 at or
# below (0, 1); under the 5 first columns from (1, 0) on, row 0 already starts above 0.
ZERO_F3_NODES = 8 + 6 + 3


def test_search_counts_the_columns_it_assigns():
    # rb-2 against extra-4 over F_3, both ways: equal class counts, so the walk runs, and
    # cuts every branch before a leaf
    for d1, d2 in ((over3("rb-2"), over3("extra-4")), (over3("extra-4"), over3("rb-2"))):
        assert _same_class_counts(d1, d2)
        res = dp.search_dendriform_iso_fp(d1, d2)
        assert not res.found
        assert 0 < res.nodes < res.candidates_tried
    zero = dp.make_dendriform_di(F3, 2, {}, {})
    assert dp.search_dendriform_iso_fp(zero, zero).nodes == ZERO_F3_NODES


@pytest.mark.parametrize("field", [F2, F3])
def test_row_0_bound_keeps_the_least_witness_in_dimension_3(field):
    # the zero dialgebra: every invertible matrix is a leaf of the unbounded walk
    zero = dp.make_dendriform_di(field, 3, {}, {})
    res = dp.search_dendriform_iso_fp(zero, zero)
    witness, tried, nodes = _unrefined_search(zero, zero)
    assert (res.witness.matrix, res.candidates_tried) == (witness, tried) == (
        next(dp.gl_matrices(field, 3)), 1)
    assert res.nodes < nodes


# -- vertex refinement ------------------------------------------------------------------------

def _transport(d, g):
    """``d`` carried along g, x o' y = g((g^-1 x) o (g^-1 y)), checked as an isomorphism."""
    ginv, n = dp.invert(g), d.dim
    moved = type(d)(*(dp.StructureTensor(d.field, tuple(
        tuple(g.matvec(t.apply(ginv.col(i), ginv.col(j))) for j in range(n)) for i in range(n)))
        for t in d.tensors()))
    assert dp.verify_dendriform_iso(d, moved, g).passed
    return moved


@pytest.mark.parametrize("field, algebras, sample", [
    (F2, lambda: [kx3(F2)], 40),
    (F3, lambda: dp.enumerate_associative_products(2, 3), None),
    (F5, lambda: [n2(F5), kx2(F5)], 60),
], ids=["f2-dim3", "f3-dim2", "f5-dim2"])
def test_vector_classes_are_gl_invariant(field, algebras, sample):
    rng = random.Random(1300 + field.p)
    algs = algebras()
    ds = (rng.sample(_rb_images(algs, 0, _di_image, 12), 3)
          + rng.sample(_rb_images(algs, 1, _tri_image, 12), 3))
    n = ds[0].dim
    # seeded products that satisfy no axiom: the classes are invariants of any products
    for kind in (dp.DendriformDi, dp.DendriformTri):
        tables = [dp.StructureTensor(field, tuple(tuple(random_vector(rng, field, n)
                                                        for _ in range(n)) for _ in range(n)))
                  for _ in range(2 if kind is dp.DendriformDi else 3)]
        ds.append(kind(*tables))
    gl = list(dp.gl_matrices(field, n))
    if sample:
        gl = rng.sample(gl, sample)
    assert any(len(set(d._vector_classes.values())) > 2 for d in ds)
    for d in ds:
        classes = d._vector_classes
        assert sorted(classes) == sorted(itertools.product(range(field.p), repeat=n))
        for g in gl:
            moved = _transport(d, g)._vector_classes
            for w, cls in classes.items():
                assert moved[g.matvec(w)] == cls


def _unrefined_search(d1, d2):
    """The column walk over GL_n(F_p) without the class filter: witness, position, columns."""
    p, n = d1.field.p, d1.dim
    cols = [(0,) * n] * n
    gl = _gl_choices(p, cols)
    nodes = 0

    def choices(t, among):
        nonlocal nodes
        values = gl(t, among)
        nodes += len(values)
        return values

    rows = _iso_rows(d1, d2, cols)
    leaves = sorted(tuple(zip(*c)) for c in _column_leaves(p, cols, rows, choices))
    if not leaves:
        return None, _completions(p, n, 0), nodes
    return Matrix(d1.field, leaves[0]), _gl_position(p, leaves[0]), nodes


def test_refinement_removes_only_non_isomorphisms():
    # rb-2 and extra-4 share their class counts but are not isomorphic
    ds = (_rb_images(dp.enumerate_associative_products(2, 3), 0, _di_image, 8)
          + [over3("rb-2"), over3("extra-4")])
    refined = unrefined = 0
    for d1 in ds:
        for d2 in ds:
            res = dp.search_dendriform_iso_fp(d1, d2)
            witness, tried, nodes = _unrefined_search(d1, d2)
            assert (res.witness.matrix if res.found else None) == witness
            assert res.candidates_tried == tried
            assert res.nodes <= nodes
            refined, unrefined = refined + res.nodes, unrefined + nodes
    assert refined < unrefined
    # every vector of the zero dialgebra has one class: nothing to refine, and the unrefined
    # walk visits all 8 first columns and 6 second ones under each; the row-0 bound cuts it
    zero = dp.make_dendriform_di(F3, 2, {}, {})
    res = dp.search_dendriform_iso_fp(zero, zero)
    witness, tried, nodes = _unrefined_search(zero, zero)
    assert (witness, tried) == (res.witness.matrix, res.candidates_tried)
    assert nodes == 8 + 8 * 6
    assert res.nodes == ZERO_F3_NODES


# -- propagation ----------------------------------------------------------------------------

def _class_filtered_draws(d1, d2):
    """Columns the class-filtered walk draws when no instance narrows a column, and its leaves."""
    p, n = d1.field.p, d1.dim
    cols = [(0,) * n] * n
    gl = _gl_choices(p, cols)
    vectors = [(v,) for v in itertools.product(range(p), repeat=n)]
    classes = d2._vector_classes
    wanted = [d1._vector_classes[tuple(int(k == t) for k in range(n))] for t in range(n)]
    draws = 0

    def choices(t, among):
        nonlocal draws
        values = [v for v in gl(t, vectors) if classes[v[0]] == wanted[t]]
        draws += len(values)
        return values

    rows = _iso_rows(d1, d2, cols)
    leaves = sorted(tuple(zip(*c)) for c in _column_leaves(p, cols, rows, choices))
    return draws, leaves


def test_determined_columns_are_the_only_ones_tried():
    # every b_i < b_j is 2 b_0 + b_1 (rb-4 moved by a change of basis): b_0 < b_0 ends at
    # b_1, so that instance fixes column 1 of F from column 0
    moved = dp.make_dendriform_di(F3, 2, {(i, j, k): 2 - k for i in range(2) for j in range(2)
                                          for k in range(2)}, {})
    rb4 = over3("rb-4")
    res = dp.search_dendriform_iso_fp(moved, rb4)
    draws, leaves = _class_filtered_draws(moved, rb4)
    assert res.witness.matrix == Matrix(F3, leaves[0])
    assert res.candidates_tried == _naive_search(moved, rb4)[1] == 2
    assert res.nodes < draws
    # rb-4's products end at b_0: no instance determines a column, so nothing changes
    res = dp.search_dendriform_iso_fp(rb4, moved)
    assert res.nodes == _class_filtered_draws(rb4, moved)[0]
    assert res.found and res.candidates_tried == 33
