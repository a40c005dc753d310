import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import dendrop as dp
from dendrop.documents import (MAX_TENSOR_DIM, Document, ResultSet, emit_document,
                               emit_raw, parse_document, payload_dict)
from dendrop.errors import (ArgumentError, BadRationalError, DendropError,
                            DocumentSyntaxError, SchemaError)
from dendrop.linalg import Matrix, StructureTensor
from dendrop.structures import ValidationReport, Violation
from helpers import (F3, F5, Q, action_tables, n2, random_matrix, random_scalar,
                     random_vector)

N2_DOC = (b'{"schema_version":"1","field":{"kind":"rational"},'
          b'"payload":{"kind":"algebra","dim":2,"basis":["e1","e2"],'
          b'"product":[{"i":1,"j":1,"k":0,"c":"1"}]}}')


# -- parsing ---------------------------------------------------------------------

def test_parse_canonical_n2_document():
    doc = parse_document(N2_DOC)
    assert doc.field == Q
    alg = doc.payload
    assert isinstance(alg, dp.Algebra)
    assert alg.product.nonzero_triples() == [((1, 1, 0), Fraction(1))]


def test_parse_emit_round_trip_is_canonical():
    doc = parse_document(N2_DOC)
    out = emit_document(doc)
    assert parse_document(out) == doc
    assert emit_document(parse_document(out)) == out


def test_reduction_to_lowest_terms():
    raw = N2_DOC.replace(b'"c":"1"', b'"c":"2/4"')
    doc = parse_document(raw)
    assert doc.payload.product.row(1, 1) == (Fraction(1, 2), Fraction(0))
    assert b'"1/2"' in emit_document(doc)


def test_bad_rational_rejected():
    raw = N2_DOC.replace(b'"c":"1"', b'"c":"1/0"')
    with pytest.raises(BadRationalError):
        parse_document(raw)


def test_syntax_error_reports_position():
    with pytest.raises(DocumentSyntaxError) as err:
        parse_document(b'{"schema_version": "1", ')
    assert "line 1" in str(err.value)
    with pytest.raises(DocumentSyntaxError):
        parse_document(b"\xff\xfe")


def test_schema_errors_name_the_field():
    with pytest.raises(SchemaError) as err:
        parse_document(b'{"schema_version":"2","field":{"kind":"rational"},'
                       b'"payload":{"kind":"algebra","dim":1,"product":[]}}')
    assert "schema_version" in str(err.value)
    with pytest.raises(SchemaError) as err:
        parse_document(b'{"schema_version":"1","field":{"kind":"prime","p":6},'
                       b'"payload":{"kind":"algebra","dim":1,"product":[]}}')
    assert "field.p" in str(err.value)
    with pytest.raises(SchemaError) as err:
        parse_document(N2_DOC.replace(b'"dim":2', b'"dim":0'))
    assert "dim" in str(err.value)


def test_float_scalars_rejected():
    raw = N2_DOC.replace(b'"c":"1"', b'"c":0.5')
    with pytest.raises(SchemaError):
        parse_document(raw)


def _scalars_to(node, to, keys, key=None):
    """``node`` with every string under one of ``keys`` replaced by ``to(string)``."""
    if isinstance(node, dict):
        return {k: _scalars_to(v, to, keys, k) for k, v in node.items()}
    if isinstance(node, list):
        return [_scalars_to(v, to, keys, key) for v in node]
    return to(node) if key in keys and isinstance(node, str) else node


_F3_FIELD = {"kind": "prime", "p": 3}
_RB_OPERATOR = {
    "kind": "operator", "operator_kind": "algebra", "weight": "1",
    "codomain": {"kind": "algebra", "dim": 2,
                 "product": [{"i": 1, "j": 1, "k": 0, "c": "1"}]},
    "domain": {"dim": 2, "left_action": [["0", "0", "0", "0"], ["0", "1", "0", "0"]],
               "right_action": [["0", "0", "0", "0"], ["0", "1", "0", "0"]],
               "product": [{"i": 1, "j": 1, "k": 0, "c": "1"}]},
    "matrix": ["0", "0", "0", "0"]}


@pytest.mark.parametrize("field, payload, keys", [
    (_F3_FIELD, {"kind": "algebra", "dim": 2, "product": [{"i": 1, "j": 1, "k": 0, "c": "-1"}]},
     {"c"}),
    (_F3_FIELD, {"kind": "algebra", "dim": 2, "product": [[["0", "0"], ["0", "0"]],
                                                          [["4", "0"], ["-1", "0"]]]},
     {"product"}),
    (_F3_FIELD, {"kind": "matrix", "rows": 2, "cols": 2, "entries": ["1", "-1", "0", "4"]},
     {"entries"}),
    ({"kind": "rational"}, _RB_OPERATOR, {"weight"}),
    ({"kind": "rational"}, _RB_OPERATOR, {"left_action", "right_action", "matrix"}),
], ids=["sparse c", "dense grid", "flat matrix", "weight", "action and operator matrices"])
def test_integer_scalars_parse_as_their_strings(field, payload, keys):
    doc = {"schema_version": "1", "field": field, "payload": payload}
    as_strings = parse_document(json.dumps(doc).encode())
    as_ints = _scalars_to(doc, int, keys)
    assert as_ints != doc
    assert parse_document(json.dumps(as_ints).encode()) == as_strings
    for to in (float, lambda s: bool(int(s))):
        with pytest.raises(SchemaError):
            parse_document(json.dumps(_scalars_to(doc, to, keys)).encode())


def test_duplicate_sparse_entry_rejected():
    raw = N2_DOC.replace(
        b'[{"i":1,"j":1,"k":0,"c":"1"}]',
        b'[{"i":1,"j":1,"k":0,"c":"1"},{"i":1,"j":1,"k":0,"c":"2"}]')
    with pytest.raises(SchemaError):
        parse_document(raw)


def test_dense_grid_accepted():
    raw = N2_DOC.replace(
        b'[{"i":1,"j":1,"k":0,"c":"1"}]',
        b'[[["0","0"],["0","0"]],[["0","0"],["1","0"]]]')
    doc = parse_document(raw)
    assert doc.payload.product == n2().product


def test_operator_matrix_dimension_mismatch_is_schema_error():
    alg = payload_dict(n2(), Q)
    op_payload = {
        "kind": "operator", "operator_kind": "module",
        "codomain": alg,
        "domain": {"dim": 2,
                   "left_action": [["0"] * 4, ["0"] * 4],
                   "right_action": [["0"] * 4, ["0"] * 4]},
        "matrix": ["1", "0", "0", "0", "0", "1"],  # 2x3 against 2-dim spaces
    }
    raw = json.dumps({"schema_version": "1", "field": {"kind": "rational"},
                      "payload": op_payload}).encode()
    with pytest.raises(SchemaError) as err:
        parse_document(raw)
    assert "dimension mismatch" in str(err.value)


def test_operator_weight_consistency():
    alg = payload_dict(n2(), Q)
    base = {"kind": "operator", "operator_kind": "module", "codomain": alg,
            "domain": {"dim": 1, "left_action": [["0"], ["0"]],
                       "right_action": [["0"], ["0"]]},
            "matrix": ["0", "0"]}
    ok = json.dumps({"schema_version": "1", "field": {"kind": "rational"},
                     "payload": base}).encode()
    assert parse_document(ok).payload.kind == "module"
    bad = dict(base)
    bad["weight"] = "1"
    raw = json.dumps({"schema_version": "1", "field": {"kind": "rational"},
                      "payload": bad}).encode()
    with pytest.raises(SchemaError):
        parse_document(raw)


# -- object round trips -----------------------------------------------------------

def sample_objects(rng):
    field = rng.choice([Q, F3, F5])
    dim = rng.randint(1, 3)
    kind = rng.randrange(8)
    if kind == 0:
        return dp.Algebra(random_tensor(rng, field, dim),
                          name=rng.choice([None, "sample"]))
    if kind == 1:
        return dp.DendriformDi(random_tensor(rng, field, dim),
                               random_tensor(rng, field, dim))
    if kind == 2:
        return dp.DendriformTri(random_tensor(rng, field, dim),
                                random_tensor(rng, field, dim),
                                random_tensor(rng, field, dim))
    if kind == 3:
        return random_matrix(rng, field, rng.randint(1, 3), rng.randint(1, 3))
    if kind == 4:
        alg = dp.Algebra(random_tensor(rng, field, dim))
        m = rng.randint(1, 2)
        acts = [random_matrix(rng, field, m, m) for _ in range(2 * dim)]
        return dp.Bimodule(alg, *action_tables(acts[:dim], acts[dim:]))
    if kind == 5:
        alg = dp.Algebra(random_tensor(rng, field, dim))
        m = rng.randint(1, 2)
        acts = [random_matrix(rng, field, m, m) for _ in range(2 * dim)]
        base = dp.Bimodule(alg, *action_tables(acts[:dim], acts[dim:]))
        return dp.BimoduleAlgebra(base, random_tensor(rng, field, m))
    if kind == 6:
        alg = dp.Algebra(random_tensor(rng, field, dim))
        m = rng.randint(1, 2)
        acts = [random_matrix(rng, field, m, m) for _ in range(2 * dim)]
        base = dp.Bimodule(alg, *action_tables(acts[:dim], acts[dim:]))
        if rng.random() < 0.5:
            dom = dp.BimoduleAlgebra(base, random_tensor(rng, field, m))
            return dp.OOperator(dom, alg, random_matrix(rng, field, dim, m),
                                random_scalar(rng, field))
        return dp.OOperator(base, alg, random_matrix(rng, field, dim, m), None)
    violations = tuple(
        Violation("axiom", (rng.randrange(3), rng.randrange(3)),
                  random_vector(rng, field, dim), random_vector(rng, field, dim))
        for _ in range(rng.randrange(3)))
    return ValidationReport("sample", len(violations) == 0, violations,
                            len(violations))


def random_tensor(rng, field, dim):
    return StructureTensor(field, tuple(
        tuple(random_vector(rng, field, dim) for _ in range(dim))
        for _ in range(dim)))


def field_of_sample(obj, rng_field):
    return getattr(obj, "field", rng_field)


def test_randomized_round_trips_and_type_audit():
    rng = random.Random(20260810)
    for _ in range(1000):
        obj = sample_objects(rng)
        field = getattr(obj, "field", Q)
        data = emit_document(obj, field=field)
        doc = parse_document(data)
        assert doc.payload == obj
        assert emit_document(doc) == data
        assert_no_floats(doc.payload)


def assert_no_floats(obj):
    scalars = collect_scalars(obj)
    assert scalars, f"no scalars found in {type(obj).__name__}"
    for s in scalars:
        assert isinstance(s, (int, Fraction)) and not isinstance(s, (bool, float))


def collect_scalars(obj):
    if isinstance(obj, StructureTensor):
        return [c for plane in obj.entries for row in plane for c in row]
    if isinstance(obj, Matrix):
        return [c for row in obj.entries for c in row] or [0]
    if isinstance(obj, dp.Algebra):
        return collect_scalars(obj.product)
    if isinstance(obj, (dp.DendriformDi, dp.DendriformTri)):
        return [c for t in obj.tensors() for c in collect_scalars(t)]
    if isinstance(obj, dp.Bimodule):
        return (collect_scalars(obj.algebra)
                + [c for table in obj.left + obj.right for v in table for c in v])
    if isinstance(obj, dp.BimoduleAlgebra):
        return collect_scalars(obj.base) + collect_scalars(obj.product)
    if isinstance(obj, dp.OOperator):
        out = collect_scalars(obj.domain) + collect_scalars(obj.codomain) \
            + collect_scalars(obj.matrix)
        if obj.weight is not None:
            out.append(obj.weight)
        return out
    if isinstance(obj, ValidationReport):
        return [c for v in obj.violations for c in v.lhs + v.rhs] or [0]
    raise AssertionError(f"unhandled type {type(obj).__name__}")


# -- result sets ----------------------------------------------------------------------

def test_result_set_round_trip():
    rs = ResultSet.build("dendriform-di", params={"dim": 1, "prime": 2},
                         counts={"found": 2},
                         items=[dp.make_dendriform_di(dp.prime_field(2), 1, {}, {}),
                                dp.make_dendriform_di(dp.prime_field(2), 1,
                                                      {(0, 0, 0): 1}, {})],
                         label="demo")
    data = emit_document(rs, field=dp.prime_field(2))
    doc = parse_document(data)
    assert doc.payload == rs
    assert emit_document(doc) == data


def test_report_document_round_trip():
    rep = dp.validate_associativity(
        dp.make_algebra(Q, 2, {(0, 0, 1): Fraction(1), (1, 0, 0): Fraction(1)}))
    data = emit_document(rep, field=Q)
    doc = parse_document(data)
    assert doc.payload == rep


def test_emit_requires_field_for_bare_reports():
    rep = ValidationReport("sample", True, (), 0)
    with pytest.raises(ValueError):
        emit_document(rep)
    assert parse_document(emit_document(rep, field=Q)).payload == rep


def test_missing_field_is_a_library_error():
    rep = ValidationReport("sample", True, (), 0)
    with pytest.raises(DendropError, match="field must be supplied") as err:
        emit_document(rep)
    assert isinstance(err.value, ValueError)


def test_unknown_payload_kind():
    raw = N2_DOC.replace(b'"kind":"algebra"', b'"kind":"widget"')
    with pytest.raises(SchemaError):
        parse_document(raw)


def _matrix_doc(rows, cols):
    return _doc({"kind": "matrix", "rows": rows, "cols": cols, "entries": []})


def test_matrix_without_rows_must_have_no_columns():
    with pytest.raises(SchemaError, match=re.escape("payload.cols")):
        parse_document(_matrix_doc(0, 3))


@pytest.mark.parametrize("rows", [0, 3])
def test_empty_matrix_documents_round_trip(rows):
    raw = emit_document(parse_document(_matrix_doc(rows, 0)))
    payload = json.loads(raw)["payload"]
    assert (payload["rows"], payload["cols"]) == (rows, 0)
    assert parse_document(raw).payload == Matrix.zeros(Q, rows, 0)
    assert emit_document(parse_document(raw)) == raw


def test_zero_tensor_emits_empty_sparse_list():
    data = emit_document(dp.make_algebra(Q, 2, {}))
    assert b'"product": []' in data


def test_emit_unknown_object_is_argument_error():
    with pytest.raises(ArgumentError, match="cannot serialize object"):
        emit_document(object(), field=Q)


@pytest.mark.parametrize("call, message", [
    (lambda: parse_document(None), "a document is bytes or text, not NoneType"),
    (lambda: parse_document(123), "a document is bytes or text, not int"),
    (lambda: emit_document(n2(), field="Q"), "field must be a FieldSpec, not str"),
], ids=["parse-none", "parse-int", "emit-field-str"])
def test_the_document_boundary_refuses_an_argument_of_the_wrong_class(call, message):
    # each used to raise a bare TypeError or AttributeError
    with pytest.raises(ArgumentError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("params, counts", [
    ({"a": 1.5}, None), ({"a": Fraction(1, 2)}, None), ({"a": True}, None),
    (None, {"a": 1.5}), (None, {"a": Fraction(2)}), (None, {"a": "3"}),
    ({1: "x"}, None), (None, {2: 3})],
    ids=["float_param", "fraction_param", "bool_param", "float_count", "fraction_count",
         "string_count", "int_param_key", "int_count_key"])
def test_emission_refuses_what_parsing_refuses(params, counts):
    rs = ResultSet.build("x", params=params, counts=counts)
    with pytest.raises(ArgumentError):
        emit_document(rs, Q)


@pytest.mark.parametrize("value", [1.5, Fraction(1, 2), {1: "x"}, {"a": {2.0: 1}},
                                   ["1", 2.5], {"1", "2"}, object()],
                         ids=["float", "fraction", "int_key", "nested_float_key",
                              "float_in_list", "set", "object"])
def test_the_writer_refuses_values_json_cannot_carry_exactly(value):
    with pytest.raises(ArgumentError, match="cannot serialize"):
        emit_raw(Q, {"kind": "matrix", "entries": value})


_TEXT = st.text(st.sampled_from('"\\/\x00\x08\x1f\x7f\u00e9\u2028\ud800\udfff\U0001f600a')
                | st.characters(exclude_categories=()), max_size=6)
_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2 ** 200, 2 ** 200) | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_the_writer_lays_out_bytes_as_the_standard_library_does(tree):
    doc = {"schema_version": "1", "field": {"kind": "rational"}, "payload": tree}
    want = (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
    assert emit_raw(Q, tree) == want


# -- rejections at nested and count-carrying keys ---------------------------------------

ALG = {"kind": "algebra", "dim": 1, "product": []}
WIDGET = {"kind": "widget", "dim": 1, "product": []}
ACTIONS = {"dim": 1, "left_action": [["0"]], "right_action": [["0"]]}
BIMODULE = {"kind": "bimodule", "algebra": ALG, **ACTIONS}
OPERATOR = {"kind": "operator", "operator_kind": "module", "codomain": ALG,
            "domain": ACTIONS, "matrix": ["1"]}
VIOLATION = {"axiom": "a", "indices": [0], "lhs": ["1"], "rhs": ["0"]}
REPORT = {"kind": "report", "structure_kind": "sample", "passed": False,
          "total_violations": 1, "violations": [VIOLATION]}
RESULT_SET = {"kind": "result_set", "what": "demo", "items": []}


def _doc(payload, **envelope):
    return json.dumps({"schema_version": "1", "field": {"kind": "rational"},
                       "payload": payload, **envelope}).encode()


REJECTED = [
    ({**BIMODULE, "algebra": WIDGET}, "payload.algebra.kind"),
    ({**BIMODULE, "algebra": {"dim": 1, "product": []}}, "payload.algebra.kind"),
    ({**OPERATOR, "codomain": WIDGET}, "payload.codomain.kind"),
    ({**RESULT_SET, "params": {"a": 0.5}}, "payload.params.a"),
    ({**RESULT_SET, "params": {"b": [1]}}, "payload.params.b"),
    ({**RESULT_SET, "params": {"c": True}}, "payload.params.c"),
    ({**RESULT_SET, "counts": {"found": "many"}}, "payload.counts.found"),
    ({**RESULT_SET, "counts": {"found": False}}, "payload.counts.found"),
    ({**REPORT, "passed": True, "total_violations": 0}, "payload.total_violations"),
    ({**REPORT, "total_violations": -1, "violations": []}, "payload.total_violations"),
    ({**REPORT, "violations": [VIOLATION, VIOLATION]}, "payload.total_violations"),
    ({**REPORT, "violations": [{**VIOLATION, "indices": [True]}]},
     "payload.violations[0].indices"),
    ({**RESULT_SET, "lable": "demo"}, "payload.lable: unknown key"),
    ({**REPORT, "violations": [{**VIOLATION, "kind": "violation"}]},
     "payload.violations[0].kind: unknown key"),
    ({**BIMODULE, "algebra": {**ALG, "typo_corrected": True}},
     "payload.algebra.typo_corrected: unknown key"),
    ({**RESULT_SET, "items": [{**ALG, "nmae": "x"}]}, "payload.items[0].nmae: unknown key"),
    ({**ALG, "product": [{"i": 0, "j": 0, "k": 0, "c": "1", "w": "2"}]},
     "payload.product[0].w: unknown key"),
    # whole documents: keys outside the payload
    (_doc(ALG, extra=1), "document.extra: unknown key"),
    (_doc(ALG, field={"kind": "prime", "p": 3, "q": 5}), "document.field.q: unknown key"),
    (_doc(ALG, field={"kind": "rational", "p": 3}), "document.field.p: unknown key"),
    # the smallest dimension whose dim^3 cells are refused before allocation
    ({**ALG, "dim": MAX_TENSOR_DIM + 1}, f"payload.product: dim {MAX_TENSOR_DIM + 1} is above"),
    # a million empty rows, refused before they are built
    ({"kind": "matrix", "rows": 1000000, "cols": 0, "entries": []}, "payload.rows: 1000000"),
    ({"kind": "matrix", "rows": 1, "cols": MAX_TENSOR_DIM + 1, "entries": []}, "payload.cols"),
]


def test_typo_corrected_is_dropped_from_a_dialgebra():
    d = dp.catalogue_entry("extra-2").structure
    payload = {**payload_dict(d, Q), "typo_corrected": True}
    assert parse_document(_doc(payload)).payload == d


def test_rejection_bases_parse():
    parsed = [parse_document(_doc(base)).payload
              for base in (BIMODULE, OPERATOR, REPORT, RESULT_SET)]
    assert [type(p) for p in parsed] == [dp.Bimodule, dp.OOperator, ValidationReport,
                                         ResultSet]


@pytest.mark.parametrize("payload, path", REJECTED)
def test_malformed_payload_rejected_at_its_key(payload, path):
    with pytest.raises(SchemaError, match=re.escape(path)):
        parse_document(payload if isinstance(payload, bytes) else _doc(payload))


def _nested_result_set(depth):
    payload = RESULT_SET
    for _ in range(depth):
        payload = {**RESULT_SET, "items": [payload]}
    return _doc(payload)


@pytest.mark.parametrize("data", [b"[" * 100_000 + b"]" * 100_000, _nested_result_set(300)],
                         ids=["nested_arrays", "nested_result_sets"])
def test_deep_nesting_is_a_syntax_error(data):
    with pytest.raises(DocumentSyntaxError, match="nested too deeply"):
        parse_document(data)


def test_emitting_a_result_set_nested_too_deeply_is_refused():
    rs = ResultSet.build("x", items=[])
    for _ in range(1000):
        rs = ResultSet.build("x", items=[rs])
    with pytest.raises(ArgumentError, match="^document is nested too deeply$"):
        emit_document(rs, Q)
    with pytest.raises(ArgumentError, match="^document is nested too deeply$"):
        payload_dict(rs, Q)


def test_an_integer_literal_too_long_to_convert_is_a_syntax_error():
    data = _doc({"kind": "matrix", "rows": 0, "cols": 0, "entries": []}).replace(
        b'"rows": 0', b'"rows": ' + b"9" * 5000)
    with pytest.raises(DocumentSyntaxError, match="invalid JSON"):
        parse_document(data)


# -- round-trip property over every payload kind ---------------------------------------

def scalars(field):
    if field.is_finite:
        return st.integers(0, field.p - 1)
    return st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def tensors(draw, field, dim):
    vals = iter(draw(st.lists(scalars(field), min_size=dim ** 3, max_size=dim ** 3)))
    return StructureTensor(field, tuple(tuple(tuple(next(vals) for _ in range(dim))
                                              for _ in range(dim)) for _ in range(dim)))


@st.composite
def matrices(draw, field, rows, cols):
    vals = draw(st.lists(scalars(field), min_size=rows * cols, max_size=rows * cols))
    return Matrix(field, tuple(tuple(vals[r * cols:(r + 1) * cols]) for r in range(rows)))


NAMES = st.none() | st.text(max_size=4)
KINDS = ("algebra", "bimodule", "bimodule_algebra", "operator", "dendriform_di",
         "dendriform_tri", "matrix", "report", "result_set")


@st.composite
def payloads(draw, field, kinds=KINDS):
    kind = draw(st.sampled_from(kinds))
    dim = draw(st.integers(1, 3))
    if kind == "dendriform_di":
        return dp.DendriformDi(draw(tensors(field, dim)), draw(tensors(field, dim)),
                            name=draw(NAMES))
    if kind == "dendriform_tri":
        return dp.DendriformTri(*(draw(tensors(field, dim)) for _ in range(3)),
                                name=draw(NAMES))
    if kind == "matrix":
        return draw(matrices(field, dim, draw(st.integers(0, 3))))
    if kind == "report":
        violations = tuple(draw(st.lists(st.builds(
            Violation, st.text(max_size=4), st.lists(st.integers(0, 2), max_size=3).map(tuple),
            st.lists(scalars(field), max_size=3).map(tuple),
            st.lists(scalars(field), max_size=3).map(tuple)), max_size=3)))
        total = len(violations) + draw(st.integers(0, 2))
        return ValidationReport(draw(st.text(max_size=4)), total == 0, violations, total)
    if kind == "result_set":
        return ResultSet.build(
            draw(st.text(max_size=4)),
            draw(st.dictionaries(st.text(max_size=3), st.text(max_size=3) | st.integers())),
            draw(st.dictionaries(st.text(max_size=3), st.integers())),
            draw(st.lists(payloads(field, KINDS[:-1]), max_size=2)), draw(NAMES))
    alg = dp.Algebra(draw(tensors(field, dim)), name=draw(NAMES))
    if kind == "algebra":
        return alg
    m = draw(st.integers(1, 2))
    acts = [draw(matrices(field, m, m)) for _ in range(2 * dim)]
    module = dp.Bimodule(alg, *action_tables(acts[:dim], acts[dim:]))
    with_product = kind == "bimodule_algebra" or kind == "operator" and draw(st.booleans())
    domain = dp.BimoduleAlgebra(module, draw(tensors(field, m))) if with_product else module
    if kind != "operator":
        return domain
    weight = draw(scalars(field)) if with_product else None
    return dp.OOperator(domain, alg, draw(matrices(field, dim, m)), weight)


@st.composite
def fields_and_payloads(draw):
    field = draw(st.sampled_from([Q, F3, F5]))
    return field, draw(payloads(field))


@settings(max_examples=300, deadline=None)
@given(fields_and_payloads())
def test_emit_parse_round_trip_property(case):
    field, obj = case
    data = emit_document(obj, field=field)
    doc = parse_document(data)
    assert doc.field == field and doc.payload == obj
    assert emit_document(doc) == data


# -- one mutation of a valid document ---------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=4) | st.sampled_from(["-1", "1/0", "1/2", "x", "algebra", "prime"]),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=4)


def _slots(tree):
    """Every (container, key) holding a value in a parsed JSON tree, outermost first."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree) \
        if isinstance(tree, list) else ()
    for key, value in items:
        yield tree, key
        yield from _slots(value)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_mutation_of_a_valid_document_raises_only_dendrop_errors(kind, data):
    """Replace one value or drop one key anywhere in a valid document: parsing either
    succeeds or raises a ``DendropError``, never another exception."""
    field = data.draw(st.sampled_from([Q, F3, F5]))
    tree = json.loads(emit_document(data.draw(payloads(field, (kind,))), field=field))
    container, key = data.draw(st.sampled_from(list(_slots(tree))))
    if isinstance(container, dict) and data.draw(st.booleans()):
        del container[key]
    else:
        container[key] = data.draw(JSON_VALUES)
    try:
        parse_document(json.dumps(tree).encode())
    except DendropError:
        pass
