from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import dendrop as dp
from dendrop.errors import (DimensionMismatchError, FieldMismatchError,
                            NoSolutionError, SingularMatrixError)
from dendrop.linalg import (Matrix, StructureTensor, column_space_basis,
                            in_span, invert, kernel_basis, rank, solve)
from helpers import F2, F3, Q, diag


def m(field, rows):
    return Matrix.from_rows(field, rows)


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


def test_matrix_algebra():
    A = m(Q, [[1, 2], [3, 4]])
    B = m(Q, [[0, 1], [1, 0]])
    assert A.mul(B) == m(Q, [[2, 1], [4, 3]])
    assert A.add(B).sub(B) == A
    assert A.transpose().transpose() == A
    assert A.col(1) == (2, 4)
    assert Matrix.from_columns(Q, [A.col(0), A.col(1)]) == A


def test_structure_tensor_apply():
    t = StructureTensor.from_triples(Q, 2, {(1, 1, 0): Fraction(1)})
    assert t.apply((Fraction(0), Fraction(2)), (Fraction(0), Fraction(3))) == \
        (Fraction(6), Fraction(0))
    assert t.apply_basis_left(1, (Fraction(0), Fraction(1))) == (Fraction(1), Fraction(0))
    assert t.apply_basis_right((Fraction(0), Fraction(1)), 1) == (Fraction(1), Fraction(0))
    assert t.nonzero_triples() == [((1, 1, 0), Fraction(1))]
    assert t.add(t).row(1, 1) == (Fraction(2), Fraction(0))
    assert t.scale(Fraction(0)).is_zero()


def test_structure_tensor_shape_checks():
    with pytest.raises(DimensionMismatchError):
        StructureTensor(Q, (((Fraction(0),),),) * 2)


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


def test_rational_int_entries_become_fractions():
    M = Matrix(Q, ((1, Fraction(1, 2)),))
    assert [type(a) for a in M.entries[0]] == [Fraction, Fraction]
    assert StructureTensor(Q, (((3,),),)).entries[0][0][0] == Fraction(3)
