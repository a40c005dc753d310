"""Shared fixtures and deterministic random generators for the test suite."""

from fractions import Fraction
import random

import dendrop as dp

Q = dp.RATIONALS
F2 = dp.prime_field(2)
F3 = dp.prime_field(3)
F5 = dp.prime_field(5)


# -- fixture algebras -----------------------------------------------------------

def n2(field=Q):
    """Basis (e1, e2) with the single product e2*e2 = e1; nilpotent, associative."""
    return dp.make_algebra(field, 2, {(1, 1, 0): field.one}, name="n2")


def kx2(field=Q):
    """Truncated polynomials k[x]/(x^2) with e1 = 1, e2 = x."""
    one = field.one
    return dp.make_algebra(field, 2, {(0, 0, 0): one, (0, 1, 1): one,
                                      (1, 0, 1): one}, name="kx2")


def kx3(field=Q):
    """k[x]/(x^3) with basis (1, x, x^2)."""
    one = field.one
    return dp.make_algebra(field, 3, {
        (0, 0, 0): one, (0, 1, 1): one, (1, 0, 1): one,
        (0, 2, 2): one, (2, 0, 2): one, (1, 1, 2): one}, name="kx3")


def split2(field=Q):
    """k x k: two orthogonal idempotents."""
    one = field.one
    return dp.make_algebra(field, 2, {(0, 0, 0): one, (1, 1, 1): one}, name="split2")


def zero_algebra(field, dim, name=None):
    return dp.make_algebra(field, dim, {}, name=name or f"zero{dim}")


def diag(field, *vals):
    n = len(vals)
    return dp.Matrix(field, tuple(
        tuple(vals[i] if i == j else field.zero for j in range(n)) for i in range(n)))


def is_field_scalar(field, x) -> bool:
    """Whether ``x`` is a scalar of ``field`` in its one form.

    Over F_p an ``int`` in ``0 .. p-1``; over Q an ``int`` when integral and
    a ``Fraction`` with denominator > 1 otherwise, never a float or a bool.
    """
    if field.is_finite:
        return type(x) is int and 0 <= x < field.p
    return type(x) is int or type(x) is Fraction and x.denominator > 1


# -- random generators ------------------------------------------------------------

def random_scalar(rng, field):
    if field.is_finite:
        return rng.randrange(field.p)
    return Fraction(rng.randint(-4, 4), rng.randint(1, 4))


def random_vector(rng, field, n):
    return tuple(random_scalar(rng, field) for _ in range(n))


def random_matrix(rng, field, rows, cols):
    return dp.Matrix(field, tuple(random_vector(rng, field, cols) for _ in range(rows)))


def action_tables(left, right):
    """Bimodule action tables from one action matrix per algebra basis element b_i.

    Column j of ``left[i]`` is l(b_i) e_j and column j of ``right[i]`` is
    e_j r(b_i), as in documents; returns ``(left, right)`` in the layout
    ``dp.Bimodule`` holds.
    """
    return (tuple(M.columns() for M in left),
            tuple(zip(*(M.columns() for M in right))))


def random_invertible(rng, field, n):
    while True:
        M = random_matrix(rng, field, n, n)
        if dp.rank(M) == n:
            return M


def automorphisms_of(alg, rng):
    """A random algebra automorphism of one of the fixture algebras."""
    f = alg.field
    one, zero = f.one, f.zero
    nonzero = rng.randrange(1, f.p)
    if alg.name in ("zero2", "zero3") or alg.product.is_zero():
        return random_invertible(rng, f, alg.dim)
    if alg.name == "n2":
        d = nonzero
        c = rng.randrange(f.p)
        return dp.Matrix(f, ((f.mul(d, d), c), (zero, d)))
    if alg.name == "kx2":
        return dp.Matrix(f, ((one, zero), (zero, nonzero)))
    if alg.name == "split2":
        return rng.choice([dp.Matrix.identity(f, 2),
                           dp.Matrix(f, ((zero, one), (one, zero)))])
    if alg.name == "kx3":
        u = nonzero
        v = rng.randrange(f.p)
        return dp.Matrix(f, ((one, zero, zero), (zero, u, zero),
                             (zero, v, f.mul(u, u))))
    return dp.Matrix.identity(f, alg.dim)


# -- operator suites ----------------------------------------------------------------

def rb_operator_stock(field, max_per_weight=60):
    """Validated Rota-Baxter operators on the dimension-2 fixture algebras."""
    stock = []
    weights = [field.zero, field.one, field.coerce(2)]
    for alg in (n2(field), kx2(field), split2(field), zero_algebra(field, 2)):
        for w in weights:
            found = dp.enumerate_rb_operators(alg, w)
            stock.extend(found[:max_per_weight])
    return stock


def dim3_operator_stock(field, rng, trials=300, keep=40):
    """Validated Rota-Baxter operators on dimension-3 fixtures, by filtered sampling."""
    stock = []
    zero3 = zero_algebra(field, 3)
    for _ in range(10):
        stock.append(dp.RotaBaxterOperator(zero3, random_matrix(rng, field, 3, 3),
                                           field.one))
    alg = kx3(field)
    for _ in range(trials):
        rb = dp.RotaBaxterOperator(alg, random_matrix(rng, field, 3, 3), field.zero)
        if dp.validate_rota_baxter(rb, max_violations=1, early_stop=True).passed:
            stock.append(rb)
            if len(stock) >= keep:
                break
    return stock


def operator_suite(seed=20260810, min_cases=1000):
    """Validated operator cases over F_3 and F_5 (dims <= 3) with random transports.

    Yields (label, operator) pairs mixing direct Rota-Baxter readings,
    canonical operators rebuilt from their domain trialgebras, and
    domain-iso / range-automorphism transports of both.
    """
    rng = random.Random(seed)
    cases = []
    per_field = (min_cases + 1) // 2
    for field in (F3, F5):
        start = len(cases)
        base = [dp.rb_as_o_operator(rb) for rb in rb_operator_stock(field)]
        base += [dp.rb_as_o_operator(rb) for rb in dim3_operator_stock(field, rng)]
        rng.shuffle(base)
        for op in base:
            cases.append(("rb", op))
            h = random_invertible(rng, field, op.domain.dim)
            src = dp.pullback_domain(op.domain, h)
            cases.append(("rb+g", dp.compose_with_domain_iso(op, h, src)))
            fmat = automorphisms_of(op.codomain, rng)
            cases.append(("rb+f", dp.twist_by_range_automorphism(op, fmat)))
            tri = dp.domain_dendriform_tri(op)
            _, cop = dp.canonical_operator_from_tri(tri)
            cases.append(("canonical", cop))
            h2 = random_invertible(rng, field, cop.domain.dim)
            src2 = dp.pullback_domain(cop.domain, h2)
            cases.append(("canonical+g", dp.compose_with_domain_iso(cop, h2, src2)))
            if len(cases) - start >= per_field:
                break
    return cases


def invertible_operator_suite(seed=811, count=200):
    """Invertible validated algebra-kind operators whose codomains have known automorphisms."""
    rng = random.Random(seed)
    ops = []
    field = F3
    stock = [rb for rb in rb_operator_stock(field)
             if dp.rank(rb.matrix) == rb.algebra.dim]
    if not stock:
        raise AssertionError("no invertible Rota-Baxter operators in stock")
    i = 0
    while len(ops) < count:
        rb = stock[i % len(stock)]
        i += 1
        ops.append(dp.rb_as_o_operator(rb))
    return ops, rng
