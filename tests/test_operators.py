import random
from fractions import Fraction

import pytest

import dendrop as dp
from dendrop.errors import (DimensionMismatchError, FieldMismatchError, KindMismatchError,
                            NotIntertwiningError, NotInvertibleError,
                            NotMultiplicativeError)
from dendrop.linalg import Matrix
from dendrop.operators import multiplicativity_failure
from helpers import (F3, Q, action_tables, automorphisms_of, diag, kx2, n2,
                     random_invertible, zero_algebra)

ONE = Fraction(1)
ZERO = Fraction(0)


# -- Rota-Baxter validation ---------------------------------------------------------

def test_zero_map_is_rota_baxter_for_any_weight():
    for w in (ZERO, ONE, Fraction(-2)):
        rb = dp.RotaBaxterOperator(n2(), Matrix.zeros(Q, 2, 2), w)
        assert dp.validate_rota_baxter(rb).passed


def test_scaled_diagonal_on_n2():
    # on e2*e2 = e1 a diagonal diag(a, b) of weight 0 works iff b^2 = 2ab
    good = dp.RotaBaxterOperator(n2(), diag(Q, Fraction(1, 4), Fraction(1, 2)), ZERO)
    assert dp.validate_rota_baxter(good).passed
    bad = dp.RotaBaxterOperator(n2(), diag(Q, Fraction(1, 8), Fraction(1, 2)), ZERO)
    rep = dp.validate_rota_baxter(bad)
    assert not rep.passed
    assert rep.first().indices == (1, 1)


def test_identity_fails_on_n2():
    rb = dp.RotaBaxterOperator(n2(), Matrix.identity(Q, 2), ZERO)
    rep = dp.validate_rota_baxter(rb)
    assert not rep.passed
    v = rep.first()
    assert v.indices == (1, 1)
    assert v.lhs == (ONE, ZERO)       # e1
    assert v.rhs == (Fraction(2), ZERO)  # 2 e1


def test_weight_one_diagonal_on_n2():
    rb = dp.RotaBaxterOperator(n2(), diag(Q, Fraction(1, 3), ONE), ONE)
    assert dp.validate_rota_baxter(rb).passed


# -- O-operator validation -------------------------------------------------------------

def one_dim_module(alg):
    z = Matrix.zeros(alg.field, 1, 1)
    return dp.Bimodule(alg, *action_tables((z,) * alg.dim, (z,) * alg.dim))


def test_zero_action_module_operator():
    V = one_dim_module(n2())
    into_e1 = dp.OOperator(V, n2(), Matrix(Q, ((ONE,), (ZERO,))), None)
    assert dp.validate_o_module(into_e1).passed
    into_e2 = dp.OOperator(V, n2(), Matrix(Q, ((ZERO,), (ONE,))), None)
    rep = dp.validate_o_module(into_e2)
    assert not rep.passed
    assert rep.first().lhs == (ONE, ZERO) and rep.first().rhs == (ZERO, ZERO)


def test_everything_vanishes_on_zero_algebra():
    A0 = zero_algebra(Q, 2)
    V = one_dim_module(A0)
    op = dp.OOperator(V, A0, Matrix(Q, ((Fraction(5),), (Fraction(-1),))), None)
    assert dp.validate_o_module(op).passed


def test_algebra_kind_weight_one_example():
    op = dp.rb_as_o_operator(
        dp.RotaBaxterOperator(n2(), diag(Q, Fraction(1, 3), ONE), ONE))
    assert dp.validate_o_algebra(op).passed
    bad = dp.rb_as_o_operator(
        dp.RotaBaxterOperator(n2(), Matrix.identity(Q, 2), ONE))
    rep = dp.validate_o_algebra(bad)
    assert not rep.passed
    assert rep.first().indices == (1, 1)
    assert rep.first().rhs == (Fraction(3), ZERO)


def test_kind_dispatch_errors():
    op = dp.rb_as_o_operator(dp.RotaBaxterOperator(n2(), Matrix.zeros(Q, 2, 2), ZERO))
    with pytest.raises(KindMismatchError):
        dp.validate_o_module(op)
    mod = dp.rb_as_module_operator(dp.RotaBaxterOperator(n2(), Matrix.zeros(Q, 2, 2), ZERO))
    with pytest.raises(KindMismatchError):
        dp.validate_o_algebra(mod)
    with pytest.raises(KindMismatchError):
        dp.rb_as_module_operator(dp.RotaBaxterOperator(n2(), Matrix.zeros(Q, 2, 2), ONE))


def test_operator_shape_and_weight_invariants():
    dom = dp.canonical_bimodule(n2())
    with pytest.raises(KindMismatchError):
        dp.OOperator(dom, n2(), Matrix.identity(Q, 2), None)  # missing weight
    with pytest.raises(KindMismatchError):
        dp.OOperator(dom.base, n2(), Matrix.identity(Q, 2), ONE)  # stray weight
    with pytest.raises(DimensionMismatchError):
        dp.OOperator(dom, n2(), Matrix.zeros(Q, 3, 2), ZERO)
    with pytest.raises(DimensionMismatchError):
        dp.OOperator(dom, kx2(), Matrix.identity(Q, 2), ZERO)  # wrong base algebra


# -- bridging laws -----------------------------------------------------------------------

def test_bridging_law_rb_equals_o_algebra():
    rng = random.Random(3)
    for _ in range(40):
        flat = [rng.randrange(3) for _ in range(4)]
        P = Matrix(F3, ((flat[0], flat[1]), (flat[2], flat[3])))
        for alg in (n2(F3), kx2(F3)):
            for w in (0, 1, 2):
                rb = dp.RotaBaxterOperator(alg, P, w)
                op = dp.rb_as_o_operator(rb)
                assert dp.validate_rota_baxter(rb).passed == \
                    dp.validate_o_algebra(op).passed


def test_module_and_weight_zero_algebra_readings_agree():
    rng = random.Random(4)
    for _ in range(40):
        flat = [rng.randrange(3) for _ in range(4)]
        P = Matrix(F3, ((flat[0], flat[1]), (flat[2], flat[3])))
        rb = dp.RotaBaxterOperator(n2(F3), P, 0)
        alg_read = dp.validate_o_algebra(dp.rb_as_o_operator(rb)).passed
        mod_read = dp.validate_o_module(dp.rb_as_module_operator(rb)).passed
        assert alg_read == mod_read


def test_zero_product_upgrade_and_forget():
    V = one_dim_module(n2())
    op = dp.OOperator(V, n2(), Matrix(Q, ((ONE,), (ZERO,))), None)
    up = dp.with_zero_product(op)
    assert up.kind == "algebra" and up.weight == ZERO
    assert dp.validate_o_algebra(up).passed
    down = dp.forget_product(up)
    assert down == op


def test_forget_product_refuses_a_nonzero_weight():
    # the module reading drops the weight term: -id is weight-one on kx2, not weight-zero
    op = dp.rb_as_o_operator(dp.RotaBaxterOperator(kx2(), diag(Q, -1, -1), 1))
    assert dp.validate_o_algebra(op).passed
    with pytest.raises(KindMismatchError, match="weight zero"):
        dp.forget_product(op)


# -- transports ------------------------------------------------------------------------------

def base_operator():
    return dp.rb_as_o_operator(
        dp.RotaBaxterOperator(n2(), diag(Q, Fraction(1, 4), Fraction(1, 2)), ZERO))


def test_compose_with_identity_is_identity():
    op = base_operator()
    g = Matrix.identity(Q, 2)
    out = dp.compose_with_domain_iso(op, g, op.domain)
    assert out == op


def test_compose_with_basis_swap():
    op = base_operator()
    g = Matrix(Q, ((ZERO, ONE), (ONE, ZERO)))
    src = dp.pullback_domain(op.domain, g)
    out = dp.compose_with_domain_iso(op, g, src)
    assert out.matrix == op.matrix.mul(g)  # columns swapped
    assert dp.validate_o_algebra(out).passed


def test_compose_rejects_singular_and_non_intertwining():
    op = base_operator()
    with pytest.raises(NotInvertibleError):
        dp.compose_with_domain_iso(op, Matrix.zeros(Q, 2, 2), op.domain)
    g = Matrix(Q, ((ZERO, ONE), (ONE, ZERO)))
    with pytest.raises(NotIntertwiningError):
        # swap is not an endo-isomorphism of the canonical n2 structure
        dp.compose_with_domain_iso(op, g, op.domain)


def test_twist_by_identity_is_identity():
    op = base_operator()
    assert dp.twist_by_range_automorphism(op, Matrix.identity(Q, 2)) == op


def test_multiplicativity_rejects_a_wrong_shape():
    for fmat in (Matrix.identity(Q, 3), Matrix.zeros(Q, 2, 3), Matrix.zeros(Q, 3, 2)):
        with pytest.raises(DimensionMismatchError):
            dp.is_multiplicative(fmat, n2())


def test_multiplicativity_refuses_a_map_over_another_field():
    # over F_3, diag(1, 2) is multiplicative on n2 (2 * 2 = 1); over Q, diag(1, 1/2) is not
    for fmat, alg in ((diag(F3, 1, 2), n2()), (diag(Q, 1, Fraction(1, 2)), n2(F3))):
        with pytest.raises(FieldMismatchError):
            dp.is_multiplicative(fmat, alg)


def test_twist_by_diag_4_2():
    op = base_operator()
    f = diag(Q, Fraction(4), Fraction(2))
    assert dp.is_multiplicative(f, n2())
    out = dp.twist_by_range_automorphism(op, f)
    assert out.matrix == f.mul(op.matrix)
    assert dp.validate_o_algebra(out).passed


def test_twist_rejects_non_multiplicative():
    op = base_operator()
    with pytest.raises(NotMultiplicativeError):
        dp.twist_by_range_automorphism(op, diag(Q, ONE, Fraction(2)))
    with pytest.raises(NotInvertibleError):
        dp.twist_by_range_automorphism(op, Matrix.zeros(Q, 2, 2))


def _wrong_class_calls():
    rb = dp.RotaBaxterOperator(n2(), diag(Q, Fraction(1, 4), Fraction(1, 2)), ZERO)
    op = dp.rb_as_o_operator(rb)
    d, one = dp.catalogue_entry("rb-4").structure, Matrix.identity(Q, 2)
    operator = "expected an O-operator, got a RotaBaxterOperator"
    matrix = "expected a matrix, got an Algebra"
    rows, tuple_matrix = ((1, 0), (0, 1)), "expected a matrix, got a tuple"
    field = "expected a field, got a str"
    return {
        "kernel-ideal-of-algebra": (lambda: dp.kernel_ideal_check(n2()),
                                    "expected an O-operator, got an Algebra"),
        "twist-rb": (lambda: dp.twist_by_range_automorphism(rb, one), operator),
        "compose-rb": (lambda: dp.compose_with_domain_iso(rb, one, op.domain), operator),
        "operator-iso-rb": (lambda: dp.verify_operator_iso(rb, op, one), operator),
        "operator-iso-rb-second": (lambda: dp.verify_operator_iso(op, rb, one), operator),
        "homomorphism-rb": (lambda: dp.check_operator_homomorphism(rb, d), operator),
        "pullback-along-algebra": (lambda: dp.pullback_domain(op.domain, n2()), matrix),
        "dendriform-iso-along-algebra": (lambda: dp.verify_dendriform_iso(d, d, n2()), matrix),
        "star-of-algebra": (lambda: dp.star_product(n2()),
                            "expected a dialgebra or a trialgebra, got an Algebra"),
        "star-of-tuple": (lambda: dp.star_product(d.tensors()),
                          "expected a dialgebra or a trialgebra, got a tuple"),
        "rb-search-on-tuple": (lambda: dp.enumerate_rb_operators(n2(F3).product.entries, 0),
                               "expected an algebra, got a tuple"),
        "rb-as-o-of-tuple": (lambda: dp.rb_as_o_operator((n2(), one, ZERO)),
                             "expected a Rota-Baxter operator, got a tuple"),
        "canonical-bimodule-of-tuple": (lambda: dp.canonical_bimodule(n2().product.entries),
                                        "expected an algebra, got a tuple"),
        # each of these used to raise a bare AttributeError or TypeError
        "splitting-against-tuple": (lambda: dp.check_splitting(d, (1, 2)),
                                    "expected an algebra, got a tuple"),
        "di-to-field-of-tuple": (lambda: dp.dendriform_di_to_field((1,), F3),
                                 "expected an algebra, a dialgebra or a trialgebra, got a tuple"),
        "algebra-to-str-field": (lambda: dp.algebra_to_field(n2(), "F3"), field),
        "gl-over-str-field": (lambda: dp.gl_matrices("F3", 2), field),
        "invert-tuple": (lambda: dp.invert(rows), tuple_matrix),
        "rank-of-tuple": (lambda: dp.rank(rows), tuple_matrix),
        "kernel-of-tuple": (lambda: dp.kernel_basis(rows), tuple_matrix),
        "solve-tuple": (lambda: dp.solve(rows, (1, 0)), tuple_matrix),
        "mul-by-tuple": (lambda: one.mul(rows), tuple_matrix),
        "multiplicative-tuple": (lambda: dp.is_multiplicative(rows, n2()), tuple_matrix),
        "multiplicative-on-tuple": (lambda: dp.is_multiplicative(one, n2().product),
                                    "expected an algebra, got a StructureTensor"),
        "multiplicativity-failure-tuple": (lambda: multiplicativity_failure(rows, n2()),
                                           tuple_matrix),
        "multiplicativity-failure-on-tuple": (lambda: multiplicativity_failure(one, rows),
                                              "expected an algebra, got a tuple"),
        "intertwiner-to-tuple": (lambda: dp.induced_intertwiner(op, (1,)),
                                 "expected an O-operator, got a tuple"),
        "intertwiner-from-tuple": (lambda: dp.induced_intertwiner((1,), op),
                                   "expected an O-operator, got a tuple"),
        "matrix-over-str": (lambda: Matrix("F3", rows), field),
        "identity-over-str": (lambda: Matrix.identity("F3", 2), field),
        "zeros-over-str": (lambda: Matrix.zeros("F3", 2, 2), field),
        "tensor-over-str": (lambda: dp.StructureTensor("F3", n2().product.entries), field),
        "zero-tensor-over-str": (lambda: dp.StructureTensor.zero("F3", 2), field),
        "algebra-over-str": (lambda: dp.make_algebra("F3", 2, {}), field),
        "o-operator-on-algebra": (lambda: dp.OOperator(n2(), n2(), one),
                                  "expected a bimodule or a bimodule algebra, got an Algebra"),
    }


@pytest.mark.parametrize("case", list(_wrong_class_calls()))
def test_operator_functions_refuse_an_argument_of_another_class(case):
    call, message = _wrong_class_calls()[case]
    with pytest.raises(KindMismatchError) as err:
        call()
    assert str(err.value) == message


def test_pullback_refuses_a_structure_that_is_not_a_bimodule():
    d = dp.catalogue_entry("rb-4").structure
    for domain, got in ((n2(), "an Algebra"), (d, "a DendriformDi")):
        with pytest.raises(KindMismatchError) as err:
            dp.pullback_domain(domain, Matrix.identity(Q, 2))
        assert str(err.value) == f"expected a bimodule or a bimodule algebra, got {got}"


def test_transport_closure_randomized():
    # transported operators stay valid for random witnesses over F_3
    rng = random.Random(11)
    stock = dp.enumerate_rb_operators(n2(F3), 0) + dp.enumerate_rb_operators(kx2(F3), 1)
    assert stock
    for _ in range(60):
        rb = rng.choice(stock)
        op = dp.rb_as_o_operator(rb)
        h = random_invertible(rng, F3, 2)
        moved = dp.compose_with_domain_iso(op, h, dp.pullback_domain(op.domain, h))
        assert dp.validate_o_algebra(moved).passed
        f = automorphisms_of(rb.algebra, rng)
        twisted = dp.twist_by_range_automorphism(op, f)
        assert dp.validate_o_algebra(twisted).passed
        assert dp.validate_bimodule_algebra(twisted.domain).passed


def test_operator_weights_are_coerced_into_the_field():
    rb = dp.RotaBaxterOperator(n2(F3), Matrix.zeros(F3, 2, 2), 4)
    assert rb.weight == 1 and rb == dp.RotaBaxterOperator(n2(F3), Matrix.zeros(F3, 2, 2), 1)
    # over Q the weight takes the normal form: an int when integral, else a Fraction
    weights = [dp.RotaBaxterOperator(n2(), Matrix.zeros(Q, 2, 2), w).weight
               for w in (1, Fraction(2, 2), Fraction(-1, 2))]
    assert weights == [1, 1, Fraction(-1, 2)]
    assert [type(w) for w in weights] == [int, int, Fraction]
    with pytest.raises(FieldMismatchError):
        dp.RotaBaxterOperator(n2(), Matrix.zeros(Q, 2, 2), 0.5)
    with pytest.raises(FieldMismatchError):
        dp.enumerate_rb_operators(n2(F3), Fraction(1, 2))
