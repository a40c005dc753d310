"""Frozen validation reports: every validator and morphism check, byte for byte.

``fixtures/validation_reports.json`` maps a case name to the canonical
document bytes (as text) of what the check returned on a seeded input:
passing and failing structures over F_3 and Q in dimensions 1 and 2, each
run with the default arguments, with ``max_violations=50`` and with
``max_violations=1, early_stop=True`` (``max_violations=1`` alone where a
check has no early stop).  Checks that return no report (the iso search,
``multiplicativity_failure``, refused transports) are recorded as text.
The fixture pins axiom ids, index tuples, lhs/rhs orientation, scan order,
kept violations, totals and early stop; it is never regenerated to make a
change pass.  To write it afresh for a new check:

    PYTHONPATH=src python tests/test_validation_reports.py --write
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import dendrop as dp
from dendrop.documents import emit_document
from dendrop.errors import DendropError
from dendrop.operators import multiplicativity_failure

from helpers import (F3, Q, action_tables, kx2, n2, random_invertible, random_matrix,
                     random_scalar)

FIXTURE = Path(__file__).parent / "fixtures" / "validation_reports.json"

SETTINGS = (("default", {}), ("max50", {"max_violations": 50}),
            ("early1", {"max_violations": 1, "early_stop": True}))
NO_EARLY_SETTINGS = (("default", {}), ("max50", {"max_violations": 50}),
                     ("max1", {"max_violations": 1}))


def _tensor(rng, field, n):
    return dp.StructureTensor(field, tuple(
        tuple(tuple(random_scalar(rng, field) for _ in range(n)) for _ in range(n))
        for _ in range(n)))


def _algebra(rng, field, n):
    return dp.Algebra(_tensor(rng, field, n))


def _bimodule(rng, field, alg, m):
    n = alg.dim
    return dp.Bimodule(alg, *action_tables([random_matrix(rng, field, m, m) for _ in range(n)],
                                           [random_matrix(rng, field, m, m) for _ in range(n)]))


def _transport(t, F):
    """The product F(F^-1 u * F^-1 v), so that F is an isomorphism onto it."""
    finv = dp.invert(F)
    n = t.dim
    return dp.StructureTensor(t.field, tuple(
        tuple(F.matvec(t.apply(finv.col(i), finv.col(j))) for j in range(n))
        for i in range(n)))


def _transport_dend(d, F):
    return type(d)(*(_transport(t, F) for t in d.tensors()))


def _weights(field):
    return (field.zero, field.one) if field.is_finite else (field.zero, Fraction(-1, 2))


def _inputs(field, rng):
    """Named inputs of each kind over ``field``, passing ones first."""
    assoc = [("kx2", kx2(field)), ("n2", n2(field))]
    assoc += [(f"rand{n}_{s}", _algebra(rng, field, n)) for n in (1, 2) for s in range(2)]
    rbs = []
    for w_name, w in zip(("w0", "w1"), _weights(field)):
        for a_name, alg in assoc[:2] + assoc[-1:]:
            if field.is_finite and a_name != assoc[-1][0]:
                rbs.append((f"{a_name}_{w_name}_pass", dp.enumerate_rb_operators(alg, w)[-1]))
            for s in range(2):
                rbs.append((f"{a_name}_{w_name}_rand{s}",
                            dp.RotaBaxterOperator(alg, random_matrix(rng, field, alg.dim,
                                                                     alg.dim), w)))
    if not field.is_finite:
        # P(1) = x, P(x) = 0 at weight 0; P = -weight * id at any weight
        zero, one = field.zero, field.one
        rbs.append(("kx2_w0_pass", dp.RotaBaxterOperator(
            kx2(field), dp.Matrix(field, ((zero, zero), (one, zero))), zero)))
        rbs.append(("kx2_w1_pass", dp.RotaBaxterOperator(
            kx2(field), dp.Matrix.identity(field, 2).scale(Fraction(1, 2)), Fraction(-1, 2))))
    cat = [e.structure for e in dp.builtin_catalogue()]
    if field.is_finite:
        cat = [dp.dendriform_di_to_field(d, field) for d in cat[:6]]
    dis = [(f"cat{k}", d) for k, d in enumerate(cat[:3])]
    dis += [(f"rand{n}_{s}", dp.DendriformDi(_tensor(rng, field, n), _tensor(rng, field, n)))
            for n in (1, 2) for s in range(2)]
    rb_pass = [rb for name, rb in rbs if name.endswith("_pass")]
    w1_pass = [rb for name, rb in rbs if name.endswith("_pass") and rb.weight != 0]
    tris = [(f"rbtri{k}", dp.domain_dendriform_tri(dp.rb_as_o_operator(rb)))
            for k, rb in enumerate(w1_pass[:2])]
    tris += [(f"rand{n}_{s}", dp.DendriformTri(_tensor(rng, field, n), _tensor(rng, field, n),
                                               _tensor(rng, field, n)))
             for n in (1, 2) for s in range(2)]
    canon = dp.canonical_bimodule(kx2(field))
    bims = [("canon_kx2", canon.base), ("canon_n2", dp.canonical_bimodule(n2(field)).base)]
    bims += [(f"rand_a{n}_m{m}", _bimodule(rng, field, _algebra(rng, field, n), m))
             for n, m in ((2, 1), (1, 2), (2, 2))]
    bims += [("rand_kx2_m2", _bimodule(rng, field, kx2(field), 2))]
    bas = [("canon_kx2", canon), ("canon_n2", dp.canonical_bimodule(n2(field)))]
    bas += [("canon_kx2_randprod", dp.BimoduleAlgebra(canon.base, _tensor(rng, field, 2)))]
    bas += [(f"rand_a{n}_m{m}",
             dp.BimoduleAlgebra(_bimodule(rng, field, _algebra(rng, field, n), m),
                                _tensor(rng, field, m)))
            for n, m in ((2, 1), (1, 2), (2, 2))]
    omods = [(f"rb{k}", dp.rb_as_module_operator(rb))
             for k, rb in enumerate(rb for rb in rb_pass if rb.weight == 0)]
    oalgs = [(f"rb{k}", dp.rb_as_o_operator(rb)) for k, rb in enumerate(rb_pass)]
    for n, m in ((2, 1), (1, 2), (2, 2)):
        alg = _algebra(rng, field, n)
        bm = _bimodule(rng, field, alg, m)
        omods.append((f"rand_a{n}_m{m}",
                      dp.OOperator(bm, alg, random_matrix(rng, field, n, m))))
        ba = dp.BimoduleAlgebra(bm, _tensor(rng, field, m))
        for wi, w in enumerate(_weights(field)):
            oalgs.append((f"rand_a{n}_m{m}_w{wi}",
                          dp.OOperator(ba, alg, random_matrix(rng, field, n, m), w)))
    return dict(assoc=assoc, rbs=rbs, dis=dis, tris=tris, bims=bims, bas=bas,
                omods=omods, oalgs=oalgs)


def _doc(obj, field) -> str:
    return emit_document(obj, field=field).decode("utf-8")


def _run_settings(out, name, fn, arg, field, settings=SETTINGS):
    for s_name, kw in settings:
        out[f"{name}/{s_name}"] = _doc(fn(arg, **kw), field)


def _outcome(fn, *args) -> str:
    """Text of a non-report result, or of the library error it raised."""
    try:
        return repr(fn(*args))
    except DendropError as e:
        return f"{type(e).__name__}: {e}"


def build_reports() -> dict:
    out = {}
    for f_name, field, seed in (("F3", F3, 3003), ("Q", Q, 4004)):
        rng = random.Random(seed)
        inp = _inputs(field, rng)
        for name, alg in inp["assoc"]:
            _run_settings(out, f"{f_name}/assoc/{name}", dp.validate_associativity, alg, field)
        for name, rb in inp["rbs"]:
            _run_settings(out, f"{f_name}/rb/{name}", dp.validate_rota_baxter, rb, field)
        for name, d in inp["dis"]:
            _run_settings(out, f"{f_name}/di/{name}", dp.validate_dendriform_di, d, field)
        for name, t in inp["tris"]:
            _run_settings(out, f"{f_name}/tri/{name}", dp.validate_dendriform_tri, t, field)
        for name, bm in inp["bims"]:
            _run_settings(out, f"{f_name}/bimodule/{name}", dp.validate_bimodule, bm, field)
        for name, ba in inp["bas"]:
            _run_settings(out, f"{f_name}/bimodule_algebra/{name}",
                          dp.validate_bimodule_algebra, ba, field)
        for name, op in inp["omods"]:
            _run_settings(out, f"{f_name}/o_module/{name}", dp.validate_o_module, op, field)
        for name, op in inp["oalgs"]:
            _run_settings(out, f"{f_name}/o_algebra/{name}", dp.validate_o_algebra, op, field)

        # dendriform isomorphisms: a transported copy, and an unrelated structure
        for kind in ("dis", "tris"):
            items = inp[kind]
            for k, (name, d) in enumerate(items):
                F = random_invertible(rng, field, d.dim)
                other = next((e for _, e in items[k + 1:] + items[:k] if e.dim == d.dim), d)
                for label, d2 in (("transported", _transport_dend(d, F)), ("other", other)):
                    case = f"{f_name}/iso_{kind}/{name}_{label}"
                    _run_settings(out, case, lambda dd, **kw: dp.verify_dendriform_iso(
                        d, dd, F, **kw), d2, field, NO_EARLY_SETTINGS)
                    if field.is_finite:
                        res = dp.search_dendriform_iso_fp(d, d2)
                        wit = _doc(res.witness.matrix, field) if res.found else "none"
                        out[f"{case}/search"] = f"tried={res.candidates_tried}\n{wit}"

        # multiplicativity, and range twists refused for it
        for name, alg in inp["assoc"]:
            for s in range(3):
                fmat = (dp.Matrix.identity(field, alg.dim) if s == 0
                        else random_matrix(rng, field, alg.dim, alg.dim))
                out[f"{f_name}/mult/{name}_{s}"] = _outcome(multiplicativity_failure, fmat, alg)

        # operator isomorphisms, equivalences and domain-iso composition
        ops = [op for _, op in inp["oalgs"] + inp["omods"]]
        # zero actions: every g intertwines them, so only the products can fail
        for n, m in ((1, 2), (2, 2)):
            alg = _algebra(rng, field, n)
            zero = dp.Matrix.zeros(field, m, m)
            ba = dp.BimoduleAlgebra(dp.Bimodule(alg, *action_tables([zero] * n, [zero] * n)),
                                    _tensor(rng, field, m))
            ops.append(dp.OOperator(ba, alg, random_matrix(rng, field, n, m), field.one))
        for k, op in enumerate(ops):
            case = f"{f_name}/operator_iso/{k}"
            m = op.domain.dim
            h = random_invertible(rng, field, m)
            src = dp.pullback_domain(op.domain, h)
            out[f"{case}/compose_good"] = _outcome(
                lambda: repr(dp.compose_with_domain_iso(op, h, src).matrix))
            g = random_invertible(rng, field, m)
            out[f"{case}/compose_bad"] = _outcome(
                lambda: repr(dp.compose_with_domain_iso(op, g, src).matrix))
            op2 = dp.compose_with_domain_iso(op, h, src)
            for label, gg in (("good", h), ("bad", g)):
                _run_settings(out, f"{case}/{label}", lambda o2, **kw: dp.verify_operator_iso(
                    o2, op, gg, **kw), op2, field, NO_EARLY_SETTINGS)
            fmat = random_invertible(rng, field, op.codomain.dim)
            out[f"{case}/twist"] = _outcome(
                lambda: repr(dp.twist_by_range_automorphism(op, fmat).matrix))
            try:
                rep = dp.verify_operator_equiv(op, op2, dp.Matrix.identity(
                    field, op.codomain.dim), g)
                out[f"{case}/equiv"] = _doc(rep, field)
            except DendropError as e:
                out[f"{case}/equiv"] = f"{type(e).__name__}: {e}"

        # operator homomorphisms onto the induced structure and onto others
        valid = [op for _, op in inp["oalgs"] + inp["omods"]
                 if dp.validate_o_operator(op).passed]
        for k, op in enumerate(valid):
            built = (dp.domain_dendriform_tri(op) if op.kind == "algebra"
                     else dp.domain_dendriform_di(op))
            m = op.domain.dim
            shape = type(built)
            other = shape(*(_tensor(rng, field, m) for _ in built.tensors()))
            for label, dend in (("built", built), ("other", other)):
                _run_settings(out, f"{f_name}/operator_hom/{k}_{label}",
                              lambda d, **kw: dp.check_operator_homomorphism(op, d, **kw),
                              dend, field, NO_EARLY_SETTINGS)
    return out


def test_validation_reports_match_fixture():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = build_reports()
    assert sorted(got) == sorted(expected)
    bad = [name for name in expected if got[name] != expected[name]]
    assert not bad, f"{len(bad)} reports differ, first {bad[:5]}"


def test_fixture_covers_passes_failures_and_caps():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    reports = {k: json.loads(v) for k, v in expected.items() if v.startswith("{")}
    passed = [k for k, v in reports.items() if v["payload"].get("passed") is True]
    failed = [k for k, v in reports.items() if v["payload"].get("passed") is False]
    capped = [k for k, v in reports.items()
              if v["payload"].get("total_violations", 0) > 50]
    assert len(passed) > 50 and len(failed) > 50 and capped


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_validation_reports.py --write")
    FIXTURE.write_text(json.dumps(build_reports(), indent=0, sort_keys=True) + "\n",
                       encoding="utf-8")
