import functools
import itertools
import json
import os
import random

import pytest

import dendrop as dp
import oracle_enumeration
import dendrop.constructions as constructions
import dendrop.enumeration as enumeration
from dendrop.enumeration import _worker_count
from dendrop.linalg import Matrix, StructureTensor
from dendrop.structures import _ASSOCIATIVITY, _DENDRIFORM_TRI, INNER, _composition_failures
from dendrop.errors import (ArgumentError, BudgetExceededError, FieldNotFiniteError,
                            FieldSpecError, InvalidDendriformError)
from helpers import F2, F3, n2, zero_algebra

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures",
                        "enumeration_counts.json")


@pytest.fixture(scope="module")
def oracle():
    with open(FIXTURES) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def dialgebras_f3():
    return dp.enumerate_dendriform_di(2, 3)


# -- associative products ----------------------------------------------------------

def test_assoc_dim1_f2(oracle):
    algs = dp.enumerate_associative_products(1, 2)
    assert len(algs) == oracle["assoc"]["1,2"] == 2
    assert algs[0].product.is_zero()
    assert algs[1].product.row(0, 0) == (1,)


def test_assoc_dim2_f2_matches_oracle(oracle):
    algs = dp.enumerate_associative_products(2, 2)
    assert len(algs) == oracle["assoc"]["2,2"]
    for alg in algs:
        assert dp.validate_associativity(alg).passed


def test_assoc_dim2_f3_matches_oracle(oracle):
    assert len(dp.enumerate_associative_products(2, 3)) == oracle["assoc"]["2,3"]


def test_assoc_dim2_f3_is_the_validator_filter():
    # every one of the 3^8 tables, in lexicographic order, kept when the validator passes
    expect = [alg for alg in (dp.Algebra(dp.StructureTensor(F3, t))
                              for t in oracle_enumeration.all_tensors(2, 3))
              if dp.validate_associativity(alg, max_violations=1, early_stop=True).passed]
    assert dp.enumerate_associative_products(2, 3) == expect


def test_assoc_dim2_f5_count():
    # 5^8 = 390,625 tables; a count two methods agree on (brute force and the search)
    assert len(dp.enumerate_associative_products(2, 5)) == 793


def test_assoc_lexicographic_and_deterministic():
    a = dp.enumerate_associative_products(2, 2)
    b = dp.enumerate_associative_products(2, 2)
    assert a == b
    flats = [tuple(c for plane in alg.product.entries for row in plane for c in row)
             for alg in a]
    assert flats == sorted(flats)


# -- budget ---------------------------------------------------------------------------

def test_budget_arithmetic():
    # 7^8 fits under the default cap, 3^27 does not
    assert 7 ** 8 < dp.DEFAULT_BUDGET < 3 ** 27
    with pytest.raises(BudgetExceededError):
        dp.enumerate_associative_products(3, 3)
    with pytest.raises(BudgetExceededError):
        dp.enumerate_dendriform_di(3, 2)  # star stage: 2^27 over the default cap
    with pytest.raises(BudgetExceededError):
        # fibre stage: 121 associative stars times 3^8 = 793,881 candidates
        dp.enumerate_dendriform_di(2, 3, budget=700_000)
    with pytest.raises(BudgetExceededError):
        dp.enumerate_associative_products(2, 2, budget=10)


def test_budget_refuses_a_huge_space_without_computing_it():
    # 2^15625 has 4,704 digits: past the int-to-str limit, and never built
    with pytest.raises(BudgetExceededError,
                       match=r"^2\^15625 candidates exceed budget 16777216$"):
        dp.enumerate_associative_products(25, 2)


EMPTY = StructureTensor(F2, ())


@pytest.mark.parametrize("call, expected", [
    (lambda: dp.enumerate_associative_products(-1, 2), ArgumentError),
    (lambda: dp.enumerate_dendriform_di(-1, 2), ArgumentError),
    (lambda: dp.phi_image_experiment(-1, 2), ArgumentError),
    (lambda: dp.gl_matrices(F2, -1), ArgumentError),
    (lambda: dp.enumerate_associative_products(2, 4), FieldSpecError),
    (lambda: dp.enumerate_dendriform_di(2, 4), FieldSpecError),
    (lambda: dp.phi_image_experiment(2, 4), FieldSpecError),
    (lambda: dp.enumerate_associative_products(0, 2), [dp.Algebra(EMPTY)]),
    (lambda: dp.enumerate_dendriform_di(0, 2), [dp.DendriformDi(EMPTY, EMPTY)]),
    (lambda: dp.enumerate_rb_operators(dp.Algebra(EMPTY), 0),
     [dp.RotaBaxterOperator(dp.Algebra(EMPTY), Matrix(F2, ()), 0)]),
    (lambda: dp.phi_image_experiment(0, 2).counts, {"all": 1, "image": 1, "missing": 0}),
    (lambda: list(dp.gl_matrices(F2, 0)), [Matrix(F2, ())]),
    (lambda: dp.search_dendriform_iso_fp(dp.DendriformDi(EMPTY, EMPTY),
                                         dp.DendriformDi(EMPTY, EMPTY)).witness.matrix,
     Matrix(F2, ())),
    (lambda: dp.enumerate_dendriform_di(1, 2, workers="2"), ArgumentError),
    (lambda: dp.enumerate_associative_products(1, 2, workers=True), ArgumentError),
    (lambda: dp.phi_image_experiment(1, 2, workers=0), ArgumentError),
    (lambda: dp.enumerate_associative_products(1, 2, budget=1.5), ArgumentError),
    (lambda: dp.enumerate_dendriform_di(1, 2, budget=0), ArgumentError),
    (lambda: dp.phi_image_experiment(1, 2, budget=-1), ArgumentError),
    (lambda: dp.enumerate_rb_operators(dp.Algebra(EMPTY), 0, budget=True), ArgumentError),
], ids=["assoc-neg", "dd-neg", "phi-neg", "gl-neg", "assoc-p4", "dd-p4", "phi-p4",
        "assoc-0", "dd-0", "rb-0", "phi-0", "gl-0", "iso-0", "dd-workers-str",
        "assoc-workers-bool", "phi-workers-0", "assoc-budget-float", "dd-budget-0",
        "phi-budget-negative", "rb-budget-bool"])
def test_enumeration_boundary(monkeypatch, call, expected):
    """A bad dimension, field, worker count or budget is refused before any search.

    Dimension 0 has one answer.
    """
    if isinstance(expected, type):
        def no_search(*args):
            raise AssertionError("searched before refusing")
        monkeypatch.setattr(enumeration, "_search", no_search)
        with pytest.raises(expected):
            call()
    else:
        assert call() == expected


def test_budget_override_allows_more():
    assert len(dp.enumerate_associative_products(1, 2, budget=2)) == 2


def test_worker_count_capped_by_cpus_and_candidates(monkeypatch):
    monkeypatch.setattr(enumeration, "_cpu_count", lambda: 4)
    assert _worker_count(1, 100) == 1
    assert _worker_count(3, 100) == 3
    assert _worker_count(1000, 100) == 4
    assert _worker_count(3, 2) == 2
    assert _worker_count(3, 0) == 1
    assert _worker_count(0, 100) == 1
    assert _worker_count(-5, 100) == 1


def test_worker_count_obeys_the_cpu_affinity_mask(monkeypatch):
    # a process pinned to one CPU of four starts one worker
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _worker_count(2, 100) == 1
    # without an affinity mask the CPU count caps, and an unknown count allows one
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert _worker_count(8, 100) == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _worker_count(8, 100) == 1


# -- Rota-Baxter operators ---------------------------------------------------------------

def test_rb_on_zero_algebra_takes_every_matrix(oracle):
    ops = dp.enumerate_rb_operators(zero_algebra(F2, 2), 0)
    assert len(ops) == oracle["rb"]["zero_2,2_w0"] == 16


def test_rb_on_n2_f2(oracle):
    ops = dp.enumerate_rb_operators(n2(F2), 0)
    assert len(ops) == oracle["rb"]["n2_2,2_w0"]
    mats = [op.matrix for op in ops]
    assert dp.Matrix.zeros(F2, 2, 2) in mats
    assert dp.Matrix(F2, ((1, 0), (0, 0))) in mats


def test_rb_on_n2_f3_counts(oracle):
    assert len(dp.enumerate_rb_operators(n2(F3), 0)) == oracle["rb"]["n2_2,3_w0"]
    assert len(dp.enumerate_rb_operators(n2(F3), 1)) == oracle["rb"]["n2_2,3_w1"]


def test_rb_diagonal_members_on_n2_f3():
    # diagonal weight-zero solutions on e2*e2 = e1 are diag(a, 0) and diag(2v, v)
    ops = dp.enumerate_rb_operators(n2(F3), 0)
    diagonals = sorted((op.matrix.entries[0][0], op.matrix.entries[1][1])
                       for op in ops
                       if op.matrix.entries[0][1] == 0 and op.matrix.entries[1][0] == 0)
    assert diagonals == [(0, 0), (1, 0), (1, 2), (2, 0), (2, 1)]


def test_rb_operators_are_the_validator_filter():
    # all 121 F_3 products at weights 0, 1, 2 against the 81 matrices each
    matrices = [Matrix(F3, m) for m in oracle_enumeration.all_matrices(2, 3)]
    for alg in dp.enumerate_associative_products(2, 3):
        for weight in range(3):
            expect = [rb for rb in (dp.RotaBaxterOperator(alg, m, weight) for m in matrices)
                      if dp.validate_rota_baxter(rb, max_violations=1, early_stop=True).passed]
            assert dp.enumerate_rb_operators(alg, weight) == expect


def test_rb_operators_over_f5_are_the_validator_filter():
    # weight 0 is searched once per scalar orbit, weight 1 in full: both against the 625
    # matrices on the zero product and a seeded sample of the other 792 F_5 products
    F5 = dp.prime_field(5)
    matrices = [Matrix(F5, m) for m in oracle_enumeration.all_matrices(2, 5)]
    algebras = dp.enumerate_associative_products(2, 5)
    for alg in algebras[:1] + random.Random(28).sample(algebras[1:], 7):
        for weight in (0, 1):
            expect = [rb for rb in (dp.RotaBaxterOperator(alg, m, weight) for m in matrices)
                      if dp.validate_rota_baxter(rb, max_violations=1, early_stop=True).passed]
            assert dp.enumerate_rb_operators(alg, weight) == expect


# products of dimension 3 over F_2: zero, the mod-2 reductions of k[x]/(x^3), k^3 and
# k[x]/(x^2) x k, b_0 b_0 = b_2 and b_0 b_0 = b_0 + b_2
DIM3_F2 = {
    "zero3": {},
    "kx3": {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (0, 2, 2): 1, (2, 0, 2): 1, (1, 1, 2): 1},
    "split3": {(0, 0, 0): 1, (1, 1, 1): 1, (2, 2, 2): 1},
    "kx2k": {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (2, 2, 2): 1},
    "n3": {(0, 0, 2): 1},
    "e3": {(0, 0, 0): 1, (0, 0, 2): 1},
}


def _determines_a_column(c, P, weight, p, n):
    """Whether some star b_i * b_j under P has its last nonzero coordinate past i and j."""
    o = oracle_enumeration
    for i, j in itertools.product(range(n), repeat=2):
        star = [(a + b + weight * d) % p for a, b, d in
                zip(o.mul_vec(c, o.matcol(P, i, n), o.unit(j, n), p, n),
                    o.mul_vec(c, o.unit(i, n), o.matcol(P, j, n), p, n), c[i][j])]
        if any(star[max(i, j) + 1:]):
            return True
    return False


@pytest.mark.parametrize("name, narrowed", [
    ("zero3", False), ("kx3", True), ("split3", False), ("kx2k", False), ("n3", True),
    ("e3", True),
])
def test_rb_dim3_f2_is_the_oracle_filter(name, narrowed):
    # every one of the 512 matrices through the naive oracle, against the narrowed search
    n, p, entries = 3, 2, DIM3_F2[name]
    c = tuple(tuple(tuple(entries.get((i, j, k), 0) for k in range(n)) for j in range(n))
              for i in range(n))
    alg = dp.make_algebra(F2, n, entries)
    determined = False
    for weight in (0, 1):
        expect = [P for P in oracle_enumeration.all_matrices(n, p)
                  if oracle_enumeration.is_rota_baxter(c, P, weight, p, n)]
        assert [op.matrix.entries for op in dp.enumerate_rb_operators(alg, weight)] == expect
        # an operator with such a pair was reached through a level that pair determined
        determined |= any(_determines_a_column(c, P, weight, p, n) for P in expect)
    assert determined == narrowed


def test_rb_requires_finite_field():
    with pytest.raises(FieldNotFiniteError):
        dp.enumerate_rb_operators(n2(), 0)


def test_every_nonzero_weight_scales_to_weight_one():
    # P of weight lam makes P/lam of weight one, and every product of the
    # trialgebra of P is lam times that of P/lam: lam^-1 id maps the second onto the first
    checked = 0
    for alg in dp.enumerate_associative_products(2, 3):
        for lam in (1, 2):
            inverse = pow(lam, -1, 3)
            to_p = Matrix.identity(F3, 2).scale(inverse)
            for rb in dp.enumerate_rb_operators(alg, lam):
                unit = dp.RotaBaxterOperator(alg, rb.matrix.scale(inverse), 1)
                tri = dp.domain_dendriform_tri(dp.rb_as_o_operator(rb))
                tri_unit = dp.domain_dendriform_tri(dp.rb_as_o_operator(unit))
                assert dp.verify_dendriform_iso(tri_unit, tri, to_p).passed
                checked += 1
    assert checked == 1858


# -- dendriform dialgebras ------------------------------------------------------------------

def test_dendriform_dim1_f2(oracle):
    found = dp.enumerate_dendriform_di(1, 2)
    assert len(found) == oracle["dendriform_di"]["1,2"] == 3
    assert found[0].prec.is_zero() and found[0].succ.is_zero()


def test_dendriform_dim2_f2_matches_oracle(oracle):
    found = dp.enumerate_dendriform_di(2, 2)
    assert len(found) == oracle["dendriform_di"]["2,2"]
    rng = random.Random(1)
    for d in rng.sample(found, 25):
        assert dp.validate_dendriform_di(d).passed


def test_enumeration_contains_mod2_catalogue_reductions():
    found = set(dp.enumerate_dendriform_di(2, 2))
    for name in ("rb-1", "rb-3", "rb-4", "rb-5", "rb-6", "extra-1", "extra-2"):
        entry = dp.catalogue_entry(name)
        reduced = dp.dendriform_di_to_field(entry.structure, F2)
        assert dp.DendriformDi(reduced.prec, reduced.succ) in found, name


def _flat(tensor_entries):
    return tuple(c for plane in tensor_entries for row in plane for c in row)


@pytest.mark.parametrize("dim,p", [(1, 2), (1, 3), (2, 2)])
def test_dendriform_set_matches_independent_oracle(dim, p):
    found = dp.enumerate_dendriform_di(dim, p)
    pairs = [(d.prec.entries, d.succ.entries) for d in found]
    assert set(pairs) == oracle_enumeration.dendriform_set(dim, p)
    flats = [_flat(prec) + _flat(succ) for prec, succ in pairs]
    assert all(a < b for a, b in zip(flats, flats[1:]))


def test_fibre_of_an_f3_star_is_the_oracle_filter(dialgebras_f3):
    # Over F_2, and in dimension 1 where every product is associative, a fibre
    # built as star + prec would enumerate the same set; F_3 in dimension 2 does not.
    star = _flat(n2(F3).product.entries)
    expect = []
    for prec in oracle_enumeration.all_tensors(2, 3):
        it = iter((s - a) % 3 for s, a in zip(star, _flat(prec)))
        succ = tuple(tuple(tuple(next(it) for _ in range(2)) for _ in range(2))
                     for _ in range(2))
        if oracle_enumeration.is_dendriform(prec, succ, 3, 2):
            expect.append((prec, succ))
    assert len(expect) > 2
    found = [(d.prec.entries, d.succ.entries) for d in dialgebras_f3
             if tuple((a + b) % 3 for a, b in zip(_flat(d.prec.entries),
                                                   _flat(d.succ.entries))) == star]
    assert found == expect


def test_dendriform_dim2_f3_validates(dialgebras_f3):
    assert len(dialgebras_f3) == 657
    for d in dialgebras_f3:
        assert dp.validate_dendriform_di(d, max_violations=1, early_stop=True).passed
        assert dp.validate_associativity(dp.star_product(d), max_violations=1,
                                         early_stop=True).passed
    flats = [_flat(d.prec.entries) + _flat(d.succ.entries) for d in dialgebras_f3]
    assert all(a < b for a, b in zip(flats, flats[1:]))


# -- one fibre per star orbit ---------------------------------------------------------------

def _stars(dim, p):
    return enumeration._assoc_part((p, dim, 0, p ** dim))


@pytest.mark.parametrize("dim,p", [(1, 5), (2, 2), (2, 3)])
@pytest.mark.parametrize("workers", [1, 2])
def test_orbit_fibres_equal_the_search_over_every_star(dim, p, workers):
    # the second method: one fibre search per star, as before the orbit cut
    stars = _stars(dim, p)
    per_star = sorted(leaf for fibre in enumeration._fibre_part((p, dim, stars, 0, len(stars)))
                      for leaf in fibre)
    found = dp.enumerate_dendriform_di(dim, p, workers=workers)
    assert [(d.prec.entries, d.succ.entries) for d in found] == per_star


@pytest.mark.parametrize("dim,p,count,orbits", [(0, 2, 1, 1), (1, 5, 5, 2), (2, 2, 28, 8),
                                                (2, 3, 121, 8)])
def test_star_orbits_partition_the_stars_by_orbit_stabilizer(dim, p, count, orbits):
    field = dp.prime_field(p)
    stars = _stars(dim, p)
    found = enumeration._star_orbits(field, dim, stars)
    assert len(stars) == count and len(found) == orbits
    assert sorted(j for orbit in found for j, _, _ in orbit) == list(range(count))
    assert all(orbit[0][0] == min(j for j, _, _ in orbit) for orbit in found)
    # |GL| / |Aut(A)| stars are isomorphic to A, Aut(A) found by the multiplicativity check
    gl = list(dp.gl_matrices(field, dim))
    sizes = []
    for orbit in found:
        alg = dp.Algebra(StructureTensor(field, stars[orbit[0][0]]))
        automorphisms = sum(dp.is_multiplicative(g, alg) for g in gl)
        assert len(gl) % automorphisms == 0
        sizes.append(len(gl) // automorphisms)
    assert sizes == [len(orbit) for orbit in found]
    assert sum(sizes) == count


@pytest.mark.parametrize("dim,p", [(1, 5), (2, 2), (2, 3)])
def test_orbit_moved_operators_equal_the_search_on_every_star(dim, p):
    # the second method: one Rota-Baxter search per star, as before the orbit cut
    field = dp.prime_field(p)
    stars = _stars(dim, p)
    algebras = enumeration._algebras(field, stars)
    moved = enumeration._rb_operators_by_star(
        field, algebras, enumeration._star_orbits(field, dim, stars), None)
    assert len(moved) == len(stars)
    for alg, ops in zip(algebras, moved):
        assert list(ops) == [rb.matrix.entries for rb in dp.enumerate_rb_operators(alg, 0)]


@functools.lru_cache(maxsize=None)
def _image_per_algebra(dim, p):
    """Image, missing list, witnesses and round-trip failures of the image
    experiment, with one Rota-Baxter search per algebra."""
    everything = dp.enumerate_dendriform_di(dim, p)
    first = {}
    for alg in dp.enumerate_associative_products(dim, p):
        for rb in dp.enumerate_rb_operators(alg, 0):
            first.setdefault(dp.domain_dendriform_di(dp.rb_as_module_operator(rb)),
                             (alg, rb.matrix))
    image = sorted(first, key=lambda d: (d.prec.entries, d.succ.entries))
    failures = []
    for d in everything:
        try:
            dp.canonical_operator_from_di(d)
        except InvalidDendriformError as e:
            failures.append((d, str(e)))
    return (tuple(image), tuple(d for d in everything if d not in first),
            tuple((d, *first[d]) for d in image), tuple(failures))


@pytest.mark.parametrize("dim,p", [(0, 2), (1, 3), (2, 2), (2, 3)])
@pytest.mark.parametrize("workers", [1, 2])
def test_phi_image_equals_the_search_on_every_algebra(dim, p, workers):
    res = dp.phi_image_experiment(dim, p, workers=workers)
    assert (res.image, res.missing, res.witnesses,
            res.round_trip_failures) == _image_per_algebra(dim, p)
    assert res.image_subset_of_all


@pytest.mark.parametrize("dim,p,orbits", [(2, 2, 8), (2, 3, 8)])
def test_phi_image_searches_operators_once_per_star_orbit(monkeypatch, dim, p, orbits):
    searched = []
    real = enumeration.enumerate_rb_operators

    def counting(alg, weight, budget=None):
        searched.append(alg.product.entries)
        return real(alg, weight, budget)

    monkeypatch.setattr(enumeration, "enumerate_rb_operators", counting)
    dp.phi_image_experiment(dim, p)
    assert len(searched) == len(set(searched)) == orbits


# -- trialgebra rows in the search ------------------------------------------------------------

def _trialgebra_tables(dim, p):
    """(prec, succ, dot) tables found by the search running ``_DENDRIFORM_TRI`` unchanged.

    Fibred over the associative stars: each pair fixes prec and succ, and
    ``dot = star - prec - succ`` with them.
    """
    vectors = list(itertools.product(range(p), repeat=dim))
    leaves = []
    for alg in dp.enumerate_associative_products(dim, p):
        star = alg.product.entries
        triples = [[(a, b, tuple((s - x - y) % p for s, x, y in zip(star[u][v], a, b)))
                    for a in vectors for b in vectors]
                   for u in range(dim) for v in range(dim)]
        leaves += enumeration._table_leaves(p, dim, (None, None, None, star),
                                            (((dim, dim, dim), _DENDRIFORM_TRI),),
                                            lambda t, above: triples[t])
    return leaves


@pytest.mark.parametrize("groups,count", [
    ((((2, 2, 2), _ASSOCIATIVITY),), 28),
    ((((2, 2, 1), _ASSOCIATIVITY),), 52),
    ((((1, 2, 2), (("assoc", (2, 0, 1), INNER, 0, 0, 0, 0),)),), 48),
])
def test_table_search_is_the_validator_filter_for_any_groups(groups, count):
    # the search runs the scan's own instances: index sizes and positions included
    vectors = [(v,) for v in itertools.product(range(2), repeat=2)]
    found = [tables[0] for tables in
             enumeration._table_leaves(2, 2, (None,), groups, lambda t, above: vectors)]
    brute = []
    for flat in itertools.product(range(2), repeat=8):
        table = tuple(tuple(flat[k:k + 2] for k in (u, u + 2)) for u in (0, 4))
        if next(_composition_failures(F2, (table,), groups), None) is None:
            brute.append(table)
    assert found == brute
    assert len(found) == count


@pytest.mark.parametrize("p,count", [(2, 5), (3, 9)])
def test_trialgebra_search_dim1_is_the_validator_filter(p, count):
    field = dp.prime_field(p)
    brute = set()
    for values in itertools.product(range(p), repeat=3):
        tables = tuple((((c,),),) for c in values)
        tri = dp.DendriformTri(*(StructureTensor(field, t) for t in tables))
        if dp.validate_dendriform_tri(tri, max_violations=1, early_stop=True).passed:
            brute.add(tables)
    found = _trialgebra_tables(1, p)
    assert len(found) == len(brute) == count
    assert set(found) == brute


def test_trialgebra_search_dim2_f2_count():
    found = _trialgebra_tables(2, 2)
    assert len(found) == len(set(found)) == 436
    for tables in found:
        tri = dp.DendriformTri(*(StructureTensor(F2, t) for t in tables))
        assert dp.validate_dendriform_tri(tri, max_violations=1, early_stop=True).passed


def test_parallel_and_serial_enumerations_agree():
    assert dp.enumerate_dendriform_di(1, 3, workers=2) == \
        dp.enumerate_dendriform_di(1, 3)
    # the workers split the star products of the fibre stage
    assert dp.enumerate_dendriform_di(2, 2, workers=2) == \
        dp.enumerate_dendriform_di(2, 2)
    assert dp.enumerate_associative_products(2, 2, workers=3) == \
        dp.enumerate_associative_products(2, 2)
    # the workers split the first pair's vectors, one per scalar orbit
    for p in (3, 5):
        assert dp.enumerate_associative_products(2, p, workers=2) == \
            dp.enumerate_associative_products(2, p)


# -- the image experiment ----------------------------------------------------------------------

def test_phi_image_dim1(oracle):
    res = dp.phi_image_experiment(1, 2)
    expect = oracle["phi_image"]["1,2"]
    assert res.counts == expect
    assert res.image_subset_of_all
    assert not res.round_trip_failures
    # the idempotent prec-only structure is NOT reachable from Rota-Baxter operators
    idem = dp.make_dendriform_di(F2, 1, {(0, 0, 0): 1}, {})
    assert idem in res.missing


def test_phi_image_records_why_a_round_trip_failed(monkeypatch):
    idem = dp.make_dendriform_di(F2, 1, {(0, 0, 0): 1}, {})

    def canonical(d):
        if d == idem:
            raise InvalidDendriformError("canonical operator does not reproduce its input")
        return dp.canonical_operator_from_di(d)

    monkeypatch.setattr(enumeration, "canonical_operator_from_di", canonical)
    res = dp.phi_image_experiment(1, 2)
    assert res.round_trip_failures == (
        (idem, "canonical operator does not reproduce its input"),)


def test_phi_image_round_trip_catches_a_wrong_reconstruction(monkeypatch):
    # the reproduction check is live: a domain structure off by one entry fails it
    real = constructions._domain_products

    def off_by_one(op):
        prec, *rest = real(op)
        planes = [[list(row) for row in plane] for plane in prec]
        planes[0][0][0] = (planes[0][0][0] + 1) % op.field.p
        return [tuple(tuple(map(tuple, plane)) for plane in planes), *rest]

    monkeypatch.setattr(constructions, "_domain_products", off_by_one)
    res = dp.phi_image_experiment(1, 2)
    assert res.round_trip_failures
    assert {why for _, why in res.round_trip_failures} == {
        "canonical operator does not reproduce its input"}


def test_phi_image_dim2_matches_oracle(oracle):
    res = dp.phi_image_experiment(2, 2)
    expect = oracle["phi_image"]["2,2"]
    assert res.counts == expect
    assert len(res.missing) > 0
    assert res.image_subset_of_all
    assert not res.round_trip_failures
    assert "analogue" in res.label
    # witnesses really produce their image structures
    for d, alg, mat in res.witnesses[:5]:
        rb = dp.RotaBaxterOperator(alg, mat, 0)
        assert dp.domain_dendriform_di(dp.rb_as_module_operator(rb)) == d


def test_enumerated_objects_revalidate_sample():
    rng = random.Random(2)
    algs = dp.enumerate_associative_products(2, 2)
    for alg in rng.sample(algs, 10):
        assert dp.validate_associativity(alg).passed
    ops = dp.enumerate_rb_operators(n2(F3), 0)
    for op in rng.sample(ops, min(10, len(ops))):
        assert dp.validate_rota_baxter(op).passed


def test_star_products_of_all_enumerated_dialgebras_are_associative():
    for d in dp.enumerate_dendriform_di(2, 2):
        assert dp.validate_associativity(dp.star_product(d), max_violations=1,
                                         early_stop=True).passed


def test_canonical_bimodules_of_all_enumerated_algebras_validate():
    for alg in dp.enumerate_associative_products(2, 2):
        ba = dp.canonical_bimodule(alg)
        assert dp.validate_bimodule_algebra(ba, max_violations=1,
                                            early_stop=True).passed


def test_repeated_runs_are_byte_identical():
    first = dp.emit_document(
        dp.ResultSet.build("dendriform-di", items=dp.enumerate_dendriform_di(1, 3)),
        field=F3)
    second = dp.emit_document(
        dp.ResultSet.build("dendriform-di", items=dp.enumerate_dendriform_di(1, 3)),
        field=F3)
    assert first == second


def test_phi_image_experiment_starts_at_most_one_pool(monkeypatch):
    started = []
    real = enumeration.ProcessPoolExecutor

    def counting(*args, **kwargs):
        started.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(enumeration, "ProcessPoolExecutor", counting)
    parallel = dp.phi_image_experiment(1, 2, workers=2)
    assert len(started) <= 1
    assert parallel == dp.phi_image_experiment(1, 2)
