from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

import dendrop as dp
from dendrop.errors import (ArgumentError, DendropError, DimensionMismatchError,
                            FieldMismatchError, NoSolutionError, SingularMatrixError)
from dendrop.linalg import (Matrix, StructureTensor, _transport, column_space_basis,
                            in_span, invert, kernel_basis, rank, solve)
from helpers import F2, F3, F5, Q, diag, is_field_scalar, n2


def m(field, rows):
    return Matrix(field, rows)


# -- kernel ------------------------------------------------------------------

def test_kernel_of_identity_is_empty():
    assert kernel_basis(Matrix.identity(Q, 2)) == []


def test_kernel_rank_one_projector():
    M = m(Q, [[1, 0], [0, 0]])
    assert kernel_basis(M) == [(Fraction(0), Fraction(1))]


def test_kernel_mod2_all_ones():
    M = m(F2, [[1, 1], [1, 1]])
    assert kernel_basis(M) == [(1, 1)]


# -- invert ------------------------------------------------------------------

def test_invert_identity():
    assert invert(Matrix.identity(Q, 3)) == Matrix.identity(Q, 3)


def test_invert_diagonal_rationals():
    M = diag(Q, Fraction(1, 2), Fraction(1, 8))
    assert invert(M) == diag(Q, Fraction(2), Fraction(8))


def test_invert_unipotent_self_inverse_char2():
    M = m(F2, [[1, 1], [0, 1]])
    assert invert(M) == M


def test_invert_singular_raises():
    with pytest.raises(SingularMatrixError):
        invert(m(Q, [[1, 2], [2, 4]]))
    with pytest.raises(DimensionMismatchError):
        invert(m(Q, [[1, 2]]))


# -- solve ------------------------------------------------------------------

def test_solve_identity():
    M = Matrix.identity(Q, 2)
    assert solve(M, (Fraction(3), Fraction(4))) == (Fraction(3), Fraction(4))


def test_solve_free_variable_set_to_zero():
    M = m(Q, [[1, 0], [0, 0]])
    assert solve(M, (Fraction(5), Fraction(0))) == (Fraction(5), Fraction(0))


def test_solve_no_solution():
    M = m(Q, [[1, 0], [0, 0]])
    with pytest.raises(NoSolutionError):
        solve(M, (Fraction(0), Fraction(1)))


def test_solve_pivot_rules_differ_on_deficient_systems():
    M = m(Q, [[1, 1]])
    first = solve(M, (Fraction(5),), pivot_rule="first")
    last = solve(M, (Fraction(5),), pivot_rule="last")
    assert first == (Fraction(5), Fraction(0))
    assert last == (Fraction(0), Fraction(5))
    with pytest.raises(ValueError):
        solve(M, (Fraction(5),), pivot_rule="middle")


def test_solve_coerces_right_hand_side():
    assert solve(Matrix(F3, ((1,),)), (5,)) == (2,)
    x = solve(m(Q, [[1, 0], [0, 2]]), (Fraction(4, 2), 3))
    assert x == (Fraction(2), Fraction(3, 2))
    assert [type(c) for c in x] == [int, Fraction]


# -- span -------------------------------------------------------------------

def test_in_span_examples():
    assert in_span([(Fraction(0), Fraction(1))], (Fraction(0), Fraction(7)), Q)
    assert not in_span([(Fraction(0), Fraction(1))], (Fraction(1), Fraction(0)), Q)
    assert in_span([], (Fraction(0), Fraction(0)), Q)
    assert not in_span([], (Fraction(1), Fraction(0)), Q)


# -- column space -------------------------------------------------------------

def test_column_space_basis_of_invertible_is_standard():
    M = m(Q, [[2, 0], [0, 3]])
    assert column_space_basis(M) == [(Fraction(1), Fraction(0)),
                                     (Fraction(0), Fraction(1))]


def test_column_space_basis_rank_one():
    M = m(Q, [[1, 2], [2, 4]])
    assert column_space_basis(M) == [(Fraction(1), Fraction(2))]


# -- randomized properties ------------------------------------------------------

def entries(p, n):
    return st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.sampled_from([2, 3, 5]), st.data())
def test_rank_nullity(n, p, data):
    field = dp.prime_field(p)
    flat = data.draw(entries(p, n))
    M = Matrix(field, tuple(tuple(flat[r * n:(r + 1) * n]) for r in range(n)))
    assert len(kernel_basis(M)) + rank(M) == n
    for v in kernel_basis(M):
        assert all(x == 0 for x in M.matvec(v))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.data())
def test_invert_two_sided_when_it_succeeds(n, data):
    field = F3
    flat = data.draw(entries(3, n))
    M = Matrix(field, tuple(tuple(flat[r * n:(r + 1) * n]) for r in range(n)))
    try:
        Minv = invert(M)
    except SingularMatrixError:
        assert rank(M) < n
        return
    assert M.mul(Minv).is_identity()
    assert Minv.mul(M).is_identity()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.data())
def test_solve_returns_exact_solution(n, data):
    field = F3
    flatM = data.draw(entries(3, n))
    x = tuple(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    M = Matrix(field, tuple(tuple(flatM[r * n:(r + 1) * n]) for r in range(n)))
    b = M.matvec(x)
    for rule in ("first", "last"):
        got = solve(M, b, pivot_rule=rule)
        assert M.matvec(got) == b


def test_operations_are_deterministic():
    M = m(F3, [[1, 2, 0], [2, 1, 1], [0, 0, 0]])
    b = (1, 2, 0)
    assert solve(M, b) == solve(M, b)
    assert kernel_basis(M) == kernel_basis(M)
    assert column_space_basis(M) == column_space_basis(M)


# -- matrices and tensors --------------------------------------------------------

def test_matrix_shape_errors():
    with pytest.raises(DimensionMismatchError):
        Matrix(Q, ((Fraction(1),), (Fraction(1), Fraction(2))))
    with pytest.raises(DimensionMismatchError):
        Matrix.identity(Q, 2).matvec((Fraction(1),))
    with pytest.raises(DimensionMismatchError):
        m(Q, [[1, 2]]).mul(m(Q, [[1, 2]]))


def test_zeros_refuses_columns_without_rows():
    # a Matrix with no rows has no column count, so 0 x 3 cannot be held
    with pytest.raises(DimensionMismatchError):
        Matrix.zeros(F3, 0, 3)
    for rows, cols in ((0, 0), (3, 0)):
        M = Matrix.zeros(F3, rows, cols)
        assert (M.rows, M.cols) == (rows, cols)


def test_from_columns_refuses_empty_columns():
    # k empty columns would be a 0 x k matrix, which ``zeros`` refuses too
    with pytest.raises(DimensionMismatchError):
        Matrix.from_columns(F3, [(), (), ()])
    M = Matrix.from_columns(F3, [])
    assert (M.rows, M.cols) == (0, 0)


def test_matrix_algebra():
    A = m(Q, [[1, 2], [3, 4]])
    B = m(Q, [[0, 1], [1, 0]])
    assert A.mul(B) == m(Q, [[2, 1], [4, 3]])
    assert A.col(1) == (2, 4)
    assert Matrix.from_columns(Q, [A.col(0), A.col(1)]) == A


def test_structure_tensor_apply():
    t = StructureTensor.from_triples(Q, 2, {(1, 1, 0): Fraction(1)})
    assert t.apply((Fraction(0), Fraction(2)), (Fraction(0), Fraction(3))) == \
        (Fraction(6), Fraction(0))
    assert t.nonzero_triples() == [((1, 1, 0), Fraction(1))]
    assert t.scale(Fraction(0)).is_zero()


def test_structure_tensor_shape_checks():
    with pytest.raises(DimensionMismatchError):
        StructureTensor(Q, (((Fraction(0),),),) * 2)
    # planes of scalars, planes given as matrices, no table at all
    for entries in (((1, 0), (0, 1)), (Matrix.identity(Q, 2),) * 2, None):
        with pytest.raises(DimensionMismatchError, match="nested three deep"):
            StructureTensor(Q, entries)


# -- one refusal rule at every container's boundary ----------------------------

Z2 = ((0, 0), (0, 0))
Z222 = (Z2, Z2)
F3_PLANE = Matrix.identity(F3, 2)

# Each case names the container and the flaw: a non-sequence, the wrong nesting
# depth, a ragged level, a negative size or a non-int size.  Shapes are refused
# with DimensionMismatchError, sizes with ArgumentError, a leaf that is not a
# scalar of the field with FieldMismatchError.
BOUNDARY = {
    "Matrix/non-sequence": (lambda: Matrix(F3, 5), DimensionMismatchError),
    "Matrix/None": (lambda: Matrix(F3, None), DimensionMismatchError),
    "Matrix/depth one": (lambda: Matrix(F3, [1, 2]), DimensionMismatchError),
    "Matrix/depth three": (lambda: Matrix(F3, [[[1]]]), FieldMismatchError),
    "Matrix/ragged": (lambda: Matrix(F3, [[1], [1, 2]]), DimensionMismatchError),
    "from_columns/non-sequence": (lambda: Matrix.from_columns(F3, 5), DimensionMismatchError),
    "from_columns/depth one": (lambda: Matrix.from_columns(F3, [1, 2]), DimensionMismatchError),
    "from_columns/long column": (lambda: Matrix.from_columns(F3, [[1], [1, 2]]),
                                 DimensionMismatchError),
    "from_columns/short column": (lambda: Matrix.from_columns(F3, [[1, 2], [1]]),
                                  DimensionMismatchError),
    "from_columns/empty columns": (lambda: Matrix.from_columns(F3, [(), ()]),
                                   DimensionMismatchError),
    "zeros/negative rows": (lambda: Matrix.zeros(F3, -1, 2), ArgumentError),
    "zeros/negative cols": (lambda: Matrix.zeros(F3, 2, -1), ArgumentError),
    "zeros/float rows": (lambda: Matrix.zeros(F3, 2.0, 2), ArgumentError),
    "zeros/str cols": (lambda: Matrix.zeros(F3, 2, "2"), ArgumentError),
    "zeros/columns without rows": (lambda: Matrix.zeros(F3, 0, 3), DimensionMismatchError),
    "identity/negative": (lambda: Matrix.identity(F3, -1), ArgumentError),
    "identity/str": (lambda: Matrix.identity(F3, "2"), ArgumentError),
    "identity/bool": (lambda: Matrix.identity(F3, True), ArgumentError),
    "StructureTensor/non-sequence": (lambda: StructureTensor(F3, 5), DimensionMismatchError),
    "StructureTensor/depth two": (lambda: StructureTensor(F3, Z2), DimensionMismatchError),
    "StructureTensor/matrix planes": (lambda: StructureTensor(F3, (F3_PLANE,) * 2),
                                      DimensionMismatchError),
    "StructureTensor/ragged plane": (lambda: StructureTensor(F3, (Z2, ((0, 0),))),
                                     DimensionMismatchError),
    "StructureTensor/ragged row": (lambda: StructureTensor(F3, (Z2, ((0, 0), (0,)))),
                                   DimensionMismatchError),
    "StructureTensor/not cubical": (lambda: StructureTensor(F3, (((0,),),) * 2),
                                    DimensionMismatchError),
    "zero/negative": (lambda: StructureTensor.zero(F3, -2), ArgumentError),
    "zero/float": (lambda: StructureTensor.zero(F3, 2.0), ArgumentError),
    "from_triples/negative": (lambda: StructureTensor.from_triples(F3, -2, {}), ArgumentError),
    "from_triples/str": (lambda: StructureTensor.from_triples(F3, "2", {}), ArgumentError),
    "from_triples/index out of range": (
        lambda: StructureTensor.from_triples(F3, 2, {(0, 0, 2): 1}), DimensionMismatchError),
    # these keys used to raise a bare TypeError, a bare ValueError, or (True) read index 1
    "from_triples/float key": (lambda: StructureTensor.from_triples(F3, 2, {(0.0, 0, 0): 1}),
                               ArgumentError),
    "from_triples/str key": (lambda: StructureTensor.from_triples(F3, 2, {("0", 0, 0): 1}),
                             ArgumentError),
    "from_triples/pair key": (lambda: StructureTensor.from_triples(F3, 2, {(0, 0): 1}),
                              ArgumentError),
    "from_triples/bool key": (lambda: StructureTensor.from_triples(F3, 2, {(True, 0, 0): 1}),
                              ArgumentError),
    # these arguments used to raise a bare TypeError, or (a short factor) give a wrong product
    "from_triples/non-mapping": (lambda: StructureTensor.from_triples(Q, 2, 5), ArgumentError),
    "from_triples/not pairs": (lambda: StructureTensor.from_triples(F3, 2, [(0, 0, 0)]),
                               ArgumentError),
    "in_span/non-sequence vector": (lambda: in_span([(1, 0)], 5, Q), DimensionMismatchError),
    "in_span/non-sequence vectors": (lambda: in_span(5, (1, 0), Q), DimensionMismatchError),
    "matvec/non-sequence": (lambda: Matrix.identity(Q, 2).matvec(5), DimensionMismatchError),
    "solve/non-sequence": (lambda: solve(Matrix.identity(Q, 2), 5), DimensionMismatchError),
    "apply/non-sequence": (lambda: StructureTensor.zero(Q, 2).apply(5, (1, 0)),
                           DimensionMismatchError),
    "apply/short factor": (lambda: StructureTensor.zero(F3, 2).apply((1, 0), (1,)),
                           DimensionMismatchError),
    "make_algebra/pair key": (lambda: dp.make_algebra(F3, 2, {(0, 0): 1}), ArgumentError),
    "make_algebra/negative": (lambda: dp.make_algebra(F3, -1, {}), ArgumentError),
    "make_dendriform_di/float": (lambda: dp.make_dendriform_di(F3, 1.0, {}, {}), ArgumentError),
    "make_dendriform_tri/negative": (lambda: dp.make_dendriform_tri(F3, -1, {}, {}, {}),
                                     ArgumentError),
    "Bimodule/non-sequence": (lambda: dp.Bimodule(n2(F3), 5, Z222), DimensionMismatchError),
    "Bimodule/None": (lambda: dp.Bimodule(n2(F3), Z222, None), DimensionMismatchError),
    "Bimodule/depth two": (lambda: dp.Bimodule(n2(F3), Z2, Z222), DimensionMismatchError),
    "Bimodule/ragged left": (lambda: dp.Bimodule(n2(F3), (Z2, ((0, 0), (0,))), Z222),
                             DimensionMismatchError),
    "Bimodule/ragged right": (lambda: dp.Bimodule(n2(F3), Z222, (Z2, ((0, 0),))),
                              DimensionMismatchError),
    "Bimodule/one left plane": (lambda: dp.Bimodule(n2(F3), (Z2,), Z222),
                                DimensionMismatchError),
    "BimoduleAlgebra/product dimension": (
        lambda: dp.BimoduleAlgebra(dp.Bimodule(n2(F3), Z222, Z222),
                                   StructureTensor.zero(F3, 3)), DimensionMismatchError),
    "BimoduleAlgebra/product field": (
        lambda: dp.BimoduleAlgebra(dp.Bimodule(n2(F3), Z222, Z222),
                                   StructureTensor.zero(Q, 2)), FieldMismatchError),
    "gl_matrices/negative": (lambda: dp.gl_matrices(F3, -1), ArgumentError),
    "gl_matrices/str": (lambda: dp.gl_matrices(F3, "2"), ArgumentError),
    "enumerate_associative_products/str": (lambda: dp.enumerate_associative_products("1", 2),
                                           ArgumentError),
    "enumerate_dendriform_di/float": (lambda: dp.enumerate_dendriform_di(1.0, 2),
                                      ArgumentError),
    "phi_image_experiment/bool": (lambda: dp.phi_image_experiment(True, 2), ArgumentError),
}


@pytest.mark.parametrize("call, expected", BOUNDARY.values(), ids=BOUNDARY.keys())
def test_every_container_refuses_a_malformed_table_or_size(call, expected):
    with pytest.raises(DendropError) as refused:
        call()
    assert type(refused.value) is expected


def test_a_refused_shape_names_the_table_expected():
    with pytest.raises(DimensionMismatchError, match="^expected a table of shape 2 x k$"):
        Matrix(F3, [[1], [1, 2]])
    with pytest.raises(DimensionMismatchError, match="^expected a table of shape 2 x 2 x 2$"):
        StructureTensor(F3, (((0,),),) * 2)
    with pytest.raises(DimensionMismatchError, match="^expected a table nested two deep$"):
        Matrix(F3, 5)
    with pytest.raises(ArgumentError, match="^row count must be an int >= 0, got -1$"):
        Matrix.zeros(F3, -1, 2)


def test_sized_constructors_keep_their_empty_cases():
    assert Matrix.identity(F3, 0) == Matrix.zeros(F3, 0, 0) == Matrix(F3, ())
    assert StructureTensor.zero(F3, 0) == StructureTensor.from_triples(F3, 0, {})
    assert Matrix.from_columns(F3, [(1, 2), (0, 1)]) == Matrix(F3, ((1, 0), (2, 1)))
    # a bimodule over the zero algebra keeps its module dimension
    assert dp.Bimodule(dp.make_algebra(F3, 0, {}), (), ((),) * 2).dim == 2


# -- scalar coercion in constructors ------------------------------------------

def test_prime_field_entries_are_reduced_mod_p():
    four = StructureTensor(F3, (((4,),),))
    one = StructureTensor(F3, (((1,),),))
    assert four == one and hash(four) == hash(one)
    assert Matrix(F3, ((4, -1), (3, 5))).entries == ((1, 2), (0, 2))


def test_fraction_is_refused_in_a_prime_field():
    with pytest.raises(FieldMismatchError):
        StructureTensor(F3, (((Fraction(1, 2),),),))
    with pytest.raises(FieldMismatchError):
        Matrix(F3, ((Fraction(1, 2),),))


def test_float_is_refused_in_a_rational_tensor():
    with pytest.raises(FieldMismatchError):
        dp.make_algebra(Q, 1, {(0, 0, 0): 0.5})
    with pytest.raises(FieldMismatchError):
        Matrix(Q, ((0.5,),))
    with pytest.raises(FieldMismatchError):
        Matrix(Q, ((True,),))


def test_rational_entries_take_the_normal_form():
    # an int when integral, a Fraction with denominator > 1 otherwise
    M = Matrix(Q, ((1, Fraction(1, 2), Fraction(4, 2)),))
    assert M.entries == ((1, Fraction(1, 2), 2),)
    assert [type(a) for a in M.entries[0]] == [int, Fraction, int]
    assert M == Matrix(Q, ((Fraction(1), Fraction(1, 2), 2),))
    t = StructureTensor(Q, (((Fraction(3),),),))
    assert t.entries == (((3,),),) and type(t.entries[0][0][0]) is int


# Each call used to compute with what it was given: a float came back out (matvec
# gave (0.5, Fraction(1, 1))), a bool was read as 1, or a bare TypeError was raised.
_E1 = StructureTensor.from_triples(Q, 2, {(0, 0, 0): 1})
UNCOERCED = {
    "matvec/float": lambda: Matrix.identity(Q, 2).matvec((0.5, 1.0)),
    "matvec/str": lambda: Matrix.identity(Q, 2).matvec(("a", "b")),
    "matvec/bool": lambda: Matrix.identity(F3, 2).matvec((True, 0)),
    "matvec/Fraction in F_3": lambda: Matrix.identity(F3, 2).matvec((Fraction(1, 2), 0)),
    "apply/float left": lambda: _E1.apply((0.5, 0), (1, 0)),
    "apply/float right": lambda: _E1.apply((1, 0), (0.5, 0)),
    "Matrix.scale/str": lambda: Matrix.identity(Q, 2).scale("x"),
    "StructureTensor.scale/bool": lambda: _E1.scale(True),
}


@pytest.mark.parametrize("call", UNCOERCED.values(), ids=UNCOERCED.keys())
def test_vector_and_scalar_arguments_are_brought_into_the_field(call):
    with pytest.raises(FieldMismatchError):
        call()


def test_vector_and_scalar_arguments_take_the_normal_form():
    half = Fraction(1, 2)
    got = [Matrix.identity(Q, 2).matvec((Fraction(4, 2), half)),
           _E1.apply((Fraction(3, 1), 0), (Fraction(2, 2), 0)),
           Matrix.identity(Q, 2).scale(Fraction(6, 3)).entries[0],
           _E1.scale(Fraction(2, 2)).entries[0][0]]
    assert got == [(2, half), (3, 0), (2, 0), (1, 0)]
    assert [type(x) for v in got for x in v] == [int, Fraction] + [int] * 6
    assert Matrix.identity(F3, 2).matvec((4, -1)) == (1, 2)


class _Half(Fraction):
    """A ``Fraction`` subclass: kept as it is over Q, like any ``Fraction``."""


def _containers(field, values):
    """A 2 x 4 matrix and a dim-2 tensor, each holding the eight ``values`` in order."""
    rows = (values[:4], values[4:])
    return (Matrix(field, rows),
            StructureTensor(field, tuple((r[:2], r[2:]) for r in rows)))


@pytest.mark.parametrize("field, values", [
    (F3, (0, 1, 2, 2, 1, 0, 0, 1)),
    (F3, (0, 1, 2, 3, 4, 0, 0, 1)),
    (F3, (0, 1, 2, -1, -5, 0, 0, 1)),
    (F5, (4, 4, 4, 4, 4, 4, 4, 5)),
    (Q, tuple(Fraction(k, 3) for k in range(8))),
    (Q, (Fraction(1, 2), 1, 0, -3, Fraction(0), Fraction(2), Fraction(5, 7), 1)),
    (Q, (_Half(1, 2), Fraction(1), Fraction(0), Fraction(3), Fraction(0),
         Fraction(1), Fraction(2), _Half(1, 3))),
])
def test_containers_hold_what_coerce_returns(field, values):
    expect = [(field.coerce(v), type(field.coerce(v))) for v in values]
    matrix, tensor = _containers(field, values)
    assert [(a, type(a)) for row in matrix.entries for a in row] == expect
    assert [(a, type(a)) for plane in tensor.entries for row in plane for a in row] == expect


@pytest.mark.parametrize("field, bad", [
    (F3, True), (F3, False), (F3, 1.0), (F3, Fraction(1, 2)), (F3, Fraction(1)),
    (Q, True), (Q, 0.5), (Q, 1.0),
])
def test_non_scalars_among_scalars_are_refused(field, bad):
    one = field.one
    with pytest.raises(FieldMismatchError):
        Matrix(field, ((one, bad), (one, one)))
    with pytest.raises(FieldMismatchError):
        StructureTensor(field, (((one, bad), (one, one)), ((one, one), (one, one))))


# -- the combination kernel against a schoolbook reference ----------------------
#
# The reference works one scalar at a time with plain Python arithmetic and
# reduces every result mod p: no code is shared with dendrop.linalg.

def _ref(field, x):
    return x % field.p if field.is_finite else x


def _ref_div(field, a, b):
    return a * pow(b, -1, field.p) % field.p if field.is_finite else a / b


def _ref_matvec(field, rows, v):
    return tuple(_ref(field, sum((a * x for a, x in zip(r, v)), field.zero)) for r in rows)


def _ref_mul(field, A, B, k):
    return tuple(tuple(_ref(field, sum((A[i][t] * B[t][j] for t in range(len(B))), field.zero))
                       for j in range(k)) for i in range(len(A)))


def _ref_rref(field, rows, order):
    """Reduced echelon form along ``order``; returns (rows, pivot columns)."""
    R = [list(r) for r in rows]
    pivots = []
    for c in order:
        r = len(pivots)
        pr = next((i for i in range(r, len(R)) if R[i][c] != 0), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        piv = R[r][c]
        R[r] = [_ref_div(field, a, piv) for a in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c] != 0:
                fac = R[i][c]
                R[i] = [_ref(field, a - fac * b) for a, b in zip(R[i], R[r])]
        pivots.append(c)
    return R, pivots


def _ref_kernel(field, rows, n):
    R, pivots = _ref_rref(field, rows, range(n))
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [field.zero] * n
        v[fc] = field.one
        for r, c in enumerate(pivots):
            v[c] = _ref(field, -R[r][fc])
        basis.append(tuple(v))
    return basis


def _assert_scalars(field, values):
    for x in values:
        assert is_field_scalar(field, x), x


def _scalar(field):
    if field.is_finite:
        return st.integers(0, field.p - 1)
    return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


def _draw_rows(data, field, rows, cols):
    return tuple(tuple(data.draw(_scalar(field)) for _ in range(cols)) for _ in range(rows))


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(st.sampled_from([Q, F2, F3, F5]), st.integers(1, 3), st.integers(0, 3),
       st.integers(1, 3), st.data())
def test_kernel_ops_match_a_schoolbook_reference(field, r, c, k, data):
    zero = field.zero
    A = Matrix(field, _draw_rows(data, field, r, c))
    k = k if c else 0           # a 0-row right factor has no columns either
    B = Matrix(field, _draw_rows(data, field, c, k))
    v = _draw_rows(data, field, 1, c)[0]
    b = _draw_rows(data, field, 1, r)[0]
    s = data.draw(_scalar(field))

    got = A.matvec(v)
    assert got == _ref_matvec(field, A.entries, v)
    assert len(got) == r
    _assert_scalars(field, got)
    assert A.mul(B).entries == _ref_mul(field, A.entries, B.entries, k)
    assert A.scale(s).entries == tuple(tuple(_ref(field, s * x) for x in p) for p in A.entries)

    T = StructureTensor(field, tuple(_draw_rows(data, field, k, k) for _ in range(k)))
    assert T.scale(s).entries == tuple(tuple(tuple(_ref(field, s * x) for x in p) for p in tp)
                                       for tp in T.entries)

    ref_rank = len(_ref_rref(field, A.entries, range(c))[1])
    assert rank(A) == ref_rank
    ker = kernel_basis(A)
    assert ker == _ref_kernel(field, A.entries, c)
    for u in ker:
        _assert_scalars(field, u)
        assert _ref_matvec(field, A.entries, u) == (zero,) * r

    solvable = len(_ref_rref(field, [p + (x,) for p, x in zip(A.entries, b)],
                             range(c + 1))[1]) == ref_rank
    for rule, order in (("first", range(c)), ("last", range(c - 1, -1, -1))):
        if not solvable:
            with pytest.raises(NoSolutionError):
                solve(A, b, pivot_rule=rule)
            continue
        x = solve(A, b, pivot_rule=rule)
        _assert_scalars(field, x)
        assert _ref_matvec(field, A.entries, x) == b
        pivots = _ref_rref(field, A.entries, order)[1]
        assert all(x[j] == 0 for j in range(c) if j not in pivots)

    if r == c:
        if ref_rank < r:
            with pytest.raises(SingularMatrixError):
                invert(A)
        else:
            inv = invert(A).entries
            ident = tuple(tuple(field.one if i == j else zero for j in range(r))
                          for i in range(r))
            assert _ref_mul(field, A.entries, inv, r) == ident
            assert _ref_mul(field, inv, A.entries, r) == ident
            _assert_scalars(field, (x for row in inv for x in row))



@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(st.sampled_from([Q, F5]), st.integers(1, 3), st.integers(0, 4), st.integers(0, 4),
       st.integers(1, 4), st.data())
def test_transport_matches_apply_and_matvec(field, n, xs, ys, d, data):
    """``_transport`` against the naive bilinear extension, with None and non-square maps."""
    T = StructureTensor(field, tuple(_draw_rows(data, field, n, n) for _ in range(n)))
    identity = Matrix.identity(field, n)

    def columns(count):
        # an n x count map given by its columns, or None for the identity
        return None if data.draw(st.booleans()) else list(_draw_rows(data, field, count, n))

    left, right = columns(xs), columns(ys)
    P = None if data.draw(st.booleans()) else Matrix(field, _draw_rows(data, field, d, n))
    got = _transport(field, T.entries, left, right, None if P is None else P.columns())

    lcols = identity.columns() if left is None else left
    rcols = identity.columns() if right is None else right
    want = tuple(tuple((identity if P is None else P).matvec(T.apply(u, v)) for v in rcols)
                 for u in lcols)
    assert got == want
    for row in got:
        for w in row:
            _assert_scalars(field, w)


# -- the normal form of every rational result ------------------------------------
#
# The reference turns every input into a Fraction first and works with Fractions
# alone, one scalar at a time.  Each result of the library must equal it and be in
# normal form: an int when integral, a Fraction with denominator > 1 otherwise.

_Q_SCALAR = st.one_of(st.integers(-4, 4),
                      st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)))


def _fractions(rows):
    return [[Fraction(a) for a in row] for row in rows]


def _assert_normal(got, want):
    got = [tuple(v) for v in got]
    assert got == [tuple(v) for v in want]
    _assert_scalars(Q, (x for v in got for x in v))


def _ref_bilinear(T, u, v):
    n = len(T)
    return [sum((u[i] * v[j] * T[i][j][k] for i in range(n) for j in range(n)), Fraction(0))
            for k in range(n)]


def _ref_solve(A, b, order):
    """x with Ax = b, free coordinates zero, or None when b is outside the span."""
    R, pivots = _ref_rref(Q, [row + [x] for row, x in zip(A, b)], order)
    if any(row[-1] != 0 and not any(row[:-1]) for row in R):
        return None
    x = [Fraction(0)] * len(order)
    for i, col in enumerate(pivots):
        x[col] = R[i][-1]
    return x


@seed(20261021)
@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(1, 3), st.integers(0, 3),
       st.integers(1, 3), st.data())
def test_rational_results_are_in_normal_form_and_match_fractions(r, c, n, xs, d, data):
    def draw(rows, cols):
        return tuple(tuple(data.draw(_Q_SCALAR) for _ in range(cols)) for _ in range(rows))

    k = n if c else 0           # a 0-row right factor has no columns either
    A, B, (v,), (b,), ((s,),) = draw(r, c), draw(c, k), draw(1, c), draw(1, r), draw(1, 1)
    FA, FB, Fv, Fs = _fractions(A), _fractions(B), [Fraction(x) for x in v], Fraction(s)
    M = Matrix(Q, A)
    _assert_normal(M.entries, FA)
    _assert_normal(M.mul(Matrix(Q, B)).entries, _ref_mul(Q, FA, FB, k))
    _assert_normal(M.scale(s).entries, [[Fs * x for x in row] for row in FA])
    _assert_normal([M.matvec(v)], [_ref_matvec(Q, FA, Fv)])

    FT = [_fractions(draw(n, n)) for _ in range(n)]
    T = StructureTensor(Q, FT)
    (u,), (w,) = draw(1, n), draw(1, n)
    _assert_normal([T.apply(u, w)], [_ref_bilinear(FT, _fractions([u])[0], _fractions([w])[0])])
    left, right, post = draw(xs, n), draw(xs, n), list(draw(n, d))
    got = _transport(Q, T.entries, left, right, post)
    want = [[[sum((z * p for z, p in zip(_ref_bilinear(FT, x, y), col)), Fraction(0))
              for col in zip(*_fractions(post))] for y in _fractions(right)]
            for x in _fractions(left)]
    assert len(got) == len(want)
    for got_row, want_row in zip(got, want):
        _assert_normal(got_row, want_row)

    _assert_normal(kernel_basis(M), _ref_kernel(Q, FA, c))
    R, pivots = _ref_rref(Q, [list(col) for col in zip(*FA)], range(r))
    _assert_normal(column_space_basis(M), R[:len(pivots)])
    for rule, order in (("first", range(c)), ("last", range(c - 1, -1, -1))):
        want = _ref_solve(FA, [Fraction(x) for x in b], order)
        if want is None:
            with pytest.raises(NoSolutionError):
                solve(M, b, pivot_rule=rule)
        else:
            _assert_normal([solve(M, b, pivot_rule=rule)], [want])
    if r == c:
        R, pivots = _ref_rref(Q, [row + [Fraction(i == j) for j in range(r)]
                                  for i, row in enumerate(FA)], range(r))
        if len(pivots) < r:
            with pytest.raises(SingularMatrixError):
                invert(M)
        else:
            _assert_normal(invert(M).entries, [row[r:] for row in R])

    num, den = data.draw(st.integers(-12, 12)), data.draw(st.integers(1, 6))
    _assert_normal([(Q.parse(f"{num}/{den}"), Q.parse(str(num)), Q.convert_from_rational(s))],
                   [(Fraction(num, den), Fraction(num), Fs)])
    if s:
        _assert_normal([(Q.inv(s),)], [(1 / Fs,)])
