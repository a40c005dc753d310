"""JSON document format: parsing with strict validation, canonical emission.

Every document is a UTF-8 JSON object with a schema version, a ground
field, and one typed payload.  All scalars travel as exact strings
("3", "-1/2"); floating-point literals are rejected.  Emission is
canonical: keys sorted, rationals in lowest terms, structure constants
listed sparsely (nonzero entries only) ordered by index triple, so parsing
followed by emission is the identity on canonical bytes and
``parse(emit(x)) == x`` for every supported object.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import (ArgumentError, DocumentSyntaxError, FieldSpecError,
                     SchemaError)
from .fields import FieldSpec, PRIME, RATIONAL, RATIONALS, prime_field
from .linalg import Matrix, StructureTensor
from .structures import (Algebra, Bimodule, BimoduleAlgebra, DendriformDi,
                         DendriformTri, ValidationReport, Violation)
from .operators import ALGEBRA, MODULE, OOperator

SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class Document:
    schema_version: str
    field: FieldSpec
    payload: object


@dataclass(frozen=True)
class ResultSet:
    """Serializable bundle of enumeration or search output."""

    what: str
    params: tuple        # sorted (key, value) pairs; values are JSON scalars
    counts: tuple        # sorted (key, int) pairs
    items: tuple         # payload objects
    label: str | None = None

    @classmethod
    def build(cls, what, params=None, counts=None, items=(), label=None):
        return cls(what,
                   tuple(sorted((params or {}).items())),
                   tuple(sorted((counts or {}).items())),
                   tuple(items), label)


# -- parsing helpers -----------------------------------------------------------------

def _expect(obj, key, types, where):
    if key not in obj:
        raise SchemaError(f"{where}: missing required key {key!r}")
    val = obj[key]
    if not isinstance(val, types) or isinstance(val, bool) and bool not in (
            types if isinstance(types, tuple) else (types,)):
        raise SchemaError(f"{where}.{key}: unexpected type {type(val).__name__}")
    return val


def _scalar(field: FieldSpec, raw, where):
    if isinstance(raw, bool) or isinstance(raw, float):
        raise SchemaError(f"{where}: scalars must be exact strings, got {raw!r}")
    if isinstance(raw, int):
        return field.from_int(raw)
    if isinstance(raw, str):
        return field.parse(raw)  # BadRationalError propagates
    raise SchemaError(f"{where}: scalars must be exact strings, got {type(raw).__name__}")


def _parse_tensor(field: FieldSpec, dim, raw, where) -> StructureTensor:
    """Sparse list of {i,j,k,c} records, or a dense dim^3 nested grid."""
    if not isinstance(raw, list):
        raise SchemaError(f"{where}: expected a list")
    if raw and isinstance(raw[0], list):
        if len(raw) != dim:
            raise SchemaError(f"{where}: dense grid must have {dim} planes")
        planes = []
        for i, plane in enumerate(raw):
            if not isinstance(plane, list) or len(plane) != dim:
                raise SchemaError(f"{where}[{i}]: dense plane must have {dim} rows")
            rows = []
            for j, row in enumerate(plane):
                if not isinstance(row, list) or len(row) != dim:
                    raise SchemaError(f"{where}[{i}][{j}]: dense row must have {dim} entries")
                rows.append(tuple(_scalar(field, c, f"{where}[{i}][{j}]") for c in row))
            planes.append(tuple(rows))
        return StructureTensor(field, tuple(planes))
    triples = {}
    for idx, rec in enumerate(raw):
        here = f"{where}[{idx}]"
        if not isinstance(rec, dict):
            raise SchemaError(f"{here}: expected an object with i/j/k/c")
        i = _expect(rec, "i", int, here)
        j = _expect(rec, "j", int, here)
        k = _expect(rec, "k", int, here)
        if not all(0 <= t < dim for t in (i, j, k)):
            raise SchemaError(f"{here}: index out of range for dim {dim}")
        if (i, j, k) in triples:
            raise SchemaError(f"{here}: duplicate entry for ({i},{j},{k})")
        triples[(i, j, k)] = _scalar(field, _expect(rec, "c", (str, int), here), here)
    return StructureTensor.from_triples(field, dim, triples)


def _parse_flat_matrix(field: FieldSpec, rows, cols, raw, where) -> Matrix:
    if not isinstance(raw, list) or len(raw) != rows * cols:
        raise SchemaError(f"{where}: expected a flat row-major list of {rows * cols} entries")
    vals = [_scalar(field, c, f"{where}[{i}]") for i, c in enumerate(raw)]
    return Matrix(field, tuple(tuple(vals[r * cols:(r + 1) * cols]) for r in range(rows)))


def _parse_dim(obj, where) -> int:
    dim = _expect(obj, "dim", int, where)
    if dim < 1:
        raise SchemaError(f"{where}.dim: must be a positive integer")
    basis = obj.get("basis")
    if basis is not None:
        if not isinstance(basis, list) or len(basis) != dim \
                or not all(isinstance(b, str) for b in basis):
            raise SchemaError(f"{where}.basis: must list {dim} names")
    return dim


def _parse_algebra(field, obj, where) -> Algebra:
    dim = _parse_dim(obj, where)
    product = _parse_tensor(field, dim, _expect(obj, "product", list, where),
                            f"{where}.product")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise SchemaError(f"{where}.name: must be a string")
    return Algebra(product, name=name)


def _parse_actions(field, algebra, obj, where):
    m = _parse_dim(obj, where)
    acts = []
    for key in ("left_action", "right_action"):
        raw = _expect(obj, key, list, where)
        if len(raw) != algebra.dim:
            raise SchemaError(
                f"{where}.{key}: need one matrix per codomain basis element "
                f"({algebra.dim}), got {len(raw)}")
        acts.append(tuple(_parse_flat_matrix(field, m, m, mat, f"{where}.{key}[{i}]")
                          for i, mat in enumerate(raw)))
    return m, acts[0], acts[1]


def _parse_bimodule(field, obj, where) -> Bimodule:
    alg = _parse_algebra(field, _expect(obj, "algebra", dict, where), f"{where}.algebra")
    _, left, right = _parse_actions(field, alg, obj, where)
    return Bimodule(alg, left, right)


def _parse_bimodule_algebra(field, obj, where) -> BimoduleAlgebra:
    base = _parse_bimodule(field, obj, where)
    product = _parse_tensor(field, base.dim, _expect(obj, "product", list, where),
                            f"{where}.product")
    return BimoduleAlgebra(base, product)


def _parse_operator(field, obj, where) -> OOperator:
    op_kind = _expect(obj, "operator_kind", str, where)
    if op_kind not in (MODULE, ALGEBRA):
        raise SchemaError(f"{where}.operator_kind: must be 'module' or 'algebra'")
    codomain = _parse_algebra(field, _expect(obj, "codomain", dict, where),
                              f"{where}.codomain")
    dom_obj = _expect(obj, "domain", dict, where)
    m, left, right = _parse_actions(field, codomain, dom_obj, f"{where}.domain")
    base = Bimodule(codomain, left, right)
    if op_kind == ALGEBRA:
        if "weight" not in obj:
            raise SchemaError(f"{where}.weight: required for algebra-kind operators")
        weight = _scalar(field, obj["weight"], f"{where}.weight")
        product = _parse_tensor(field, m, _expect(dom_obj, "product", list, f"{where}.domain"),
                                f"{where}.domain.product")
        domain = BimoduleAlgebra(base, product)
    else:
        if "weight" in obj or "product" in dom_obj:
            raise SchemaError(f"{where}: module-kind operators carry no weight or product")
        weight = None
        domain = base
    raw = _expect(obj, "matrix", list, where)
    if len(raw) != codomain.dim * m:
        raise SchemaError(
            f"{where}.matrix: dimension mismatch, expected "
            f"{codomain.dim}x{m} = {codomain.dim * m} entries, got {len(raw)}")
    matrix = _parse_flat_matrix(field, codomain.dim, m, raw, f"{where}.matrix")
    return OOperator(domain, codomain, matrix, weight)


def _parse_dendriform(field, obj, where, with_dot):
    dim = _parse_dim(obj, where)
    keys = ("prec", "succ", "dot") if with_dot else ("prec", "succ")
    tensors = [_parse_tensor(field, dim, _expect(obj, k, list, where), f"{where}.{k}")
               for k in keys]
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise SchemaError(f"{where}.name: must be a string")
    cls = DendriformTri if with_dot else DendriformDi
    return cls(*tensors, name=name)


def _parse_matrix_payload(field, obj, where) -> Matrix:
    rows = _expect(obj, "rows", int, where)
    cols = _expect(obj, "cols", int, where)
    if rows < 0 or cols < 0:
        raise SchemaError(f"{where}: rows/cols must be non-negative")
    return _parse_flat_matrix(field, rows, cols, _expect(obj, "entries", list, where),
                              f"{where}.entries")


def _parse_report(field, obj, where) -> ValidationReport:
    passed = _expect(obj, "passed", bool, where)
    kind = _expect(obj, "structure_kind", str, where)
    total = _expect(obj, "total_violations", int, where)
    out = []
    for idx, rec in enumerate(_expect(obj, "violations", list, where)):
        here = f"{where}.violations[{idx}]"
        if not isinstance(rec, dict):
            raise SchemaError(f"{here}: expected an object")
        axiom = _expect(rec, "axiom", str, here)
        indices = tuple(_expect(rec, "indices", list, here))
        if not all(isinstance(i, int) for i in indices):
            raise SchemaError(f"{here}.indices: must be integers")
        lhs = tuple(_scalar(field, c, f"{here}.lhs") for c in _expect(rec, "lhs", list, here))
        rhs = tuple(_scalar(field, c, f"{here}.rhs") for c in _expect(rec, "rhs", list, here))
        out.append(Violation(axiom, indices, lhs, rhs))
    if passed != (total == 0):
        raise SchemaError(f"{where}.passed: inconsistent with total_violations")
    return ValidationReport(kind, passed, tuple(out), total)


def _parse_result_set(field, obj, where) -> ResultSet:
    what = _expect(obj, "what", str, where)
    params = obj.get("params", {})
    counts = obj.get("counts", {})
    for name, d in (("params", params), ("counts", counts)):
        if not isinstance(d, dict):
            raise SchemaError(f"{where}.{name}: must be an object")
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise SchemaError(f"{where}.label: must be a string")
    items = tuple(_parse_payload(field, item, f"{where}.items[{i}]")
                  for i, item in enumerate(_expect(obj, "items", list, where)))
    return ResultSet(what, tuple(sorted(params.items())),
                     tuple(sorted(counts.items())), items, label)


_PARSERS = {
    "algebra": _parse_algebra,
    "bimodule": _parse_bimodule,
    "bimodule_algebra": _parse_bimodule_algebra,
    "operator": _parse_operator,
    "dendriform_di": lambda f, o, w: _parse_dendriform(f, o, w, with_dot=False),
    "dendriform_tri": lambda f, o, w: _parse_dendriform(f, o, w, with_dot=True),
    "matrix": _parse_matrix_payload,
    "report": _parse_report,
    "result_set": _parse_result_set,
}


def _parse_payload(field, obj, where):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: payload must be an object")
    kind = _expect(obj, "kind", str, where)
    parser = _PARSERS.get(kind)
    if parser is None:
        raise SchemaError(f"{where}.kind: unknown payload kind {kind!r}")
    return parser(field, obj, where)


def parse_document(data) -> Document:
    """Parse and validate one document from bytes or text."""
    if isinstance(data, (bytes, bytearray)):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise DocumentSyntaxError(f"invalid UTF-8 at byte {e.start}") from None
    else:
        text = data
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentSyntaxError(
            f"invalid JSON at line {e.lineno} column {e.colno} (char {e.pos}): {e.msg}"
        ) from None
    if not isinstance(obj, dict):
        raise SchemaError("document: top level must be an object")
    version = _expect(obj, "schema_version", str, "document")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"document.schema_version: unsupported version {version!r}")
    fobj = _expect(obj, "field", dict, "document")
    kind = _expect(fobj, "kind", str, "document.field")
    if kind == RATIONAL:
        field = RATIONALS
    elif kind == PRIME:
        p = _expect(fobj, "p", int, "document.field")
        try:
            field = prime_field(p)
        except FieldSpecError as e:
            raise SchemaError(f"document.field.p: {e}") from None
    else:
        raise SchemaError(f"document.field.kind: unknown field kind {kind!r}")
    payload = _parse_payload(field, _expect(obj, "payload", dict, "document"), "payload")
    return Document(version, field, payload)


# -- emission --------------------------------------------------------------------------

def _fmt(field: FieldSpec, value) -> str:
    return field.format(value)


def _emit_tensor(field, tensor: StructureTensor) -> list:
    return [{"i": i, "j": j, "k": k, "c": _fmt(field, c)}
            for (i, j, k), c in tensor.nonzero_triples()]


def _emit_flat(field, matrix: Matrix) -> list:
    return [_fmt(field, a) for row in matrix.entries for a in row]


def _default_basis(dim: int) -> list:
    return [f"e{i + 1}" for i in range(dim)]


def _emit_payload(obj, field) -> dict:
    if isinstance(obj, Algebra):
        out = {"kind": "algebra", "dim": obj.dim, "basis": _default_basis(obj.dim),
               "product": _emit_tensor(field, obj.product)}
        if obj.name is not None:
            out["name"] = obj.name
        return out
    if isinstance(obj, BimoduleAlgebra):
        out = _emit_payload(obj.base, field)
        out["kind"] = "bimodule_algebra"
        out["product"] = _emit_tensor(field, obj.product)
        return out
    if isinstance(obj, Bimodule):
        return {"kind": "bimodule",
                "algebra": _emit_payload(obj.algebra, field),
                "dim": obj.dim,
                "left_action": [_emit_flat(field, M) for M in obj.left],
                "right_action": [_emit_flat(field, M) for M in obj.right]}
    if isinstance(obj, OOperator):
        base = obj.domain.base if obj.kind == ALGEBRA else obj.domain
        dom = {"dim": obj.domain.dim,
               "left_action": [_emit_flat(field, M) for M in base.left],
               "right_action": [_emit_flat(field, M) for M in base.right]}
        out = {"kind": "operator", "operator_kind": obj.kind,
               "codomain": _emit_payload(obj.codomain, field),
               "matrix": _emit_flat(field, obj.matrix),
               "domain": dom}
        if obj.kind == ALGEBRA:
            dom["product"] = _emit_tensor(field, obj.domain.product)
            out["weight"] = _fmt(field, obj.weight)
        return out
    if isinstance(obj, DendriformTri):
        out = {"kind": "dendriform_tri", "dim": obj.dim,
               "basis": _default_basis(obj.dim),
               "prec": _emit_tensor(field, obj.prec),
               "succ": _emit_tensor(field, obj.succ),
               "dot": _emit_tensor(field, obj.dot)}
        if obj.name is not None:
            out["name"] = obj.name
        return out
    if isinstance(obj, DendriformDi):
        out = {"kind": "dendriform_di", "dim": obj.dim,
               "basis": _default_basis(obj.dim),
               "prec": _emit_tensor(field, obj.prec),
               "succ": _emit_tensor(field, obj.succ)}
        if obj.name is not None:
            out["name"] = obj.name
        return out
    if isinstance(obj, Matrix):
        return {"kind": "matrix", "rows": obj.rows, "cols": obj.cols,
                "entries": _emit_flat(field, obj)}
    if isinstance(obj, ValidationReport):
        return {"kind": "report", "structure_kind": obj.structure_kind,
                "passed": obj.passed, "total_violations": obj.total_violations,
                "violations": [
                    {"axiom": v.axiom, "indices": list(v.indices),
                     "lhs": [_fmt(field, c) for c in v.lhs],
                     "rhs": [_fmt(field, c) for c in v.rhs]}
                    for v in obj.violations]}
    if isinstance(obj, ResultSet):
        out = {"kind": "result_set", "what": obj.what,
               "params": dict(obj.params), "counts": dict(obj.counts),
               "items": [_emit_payload(item, field) for item in obj.items]}
        if obj.label is not None:
            out["label"] = obj.label
        return out
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def _field_of(obj) -> FieldSpec | None:
    for attr in ("field",):
        f = getattr(obj, attr, None)
        if isinstance(f, FieldSpec):
            return f
    return None


def payload_dict(obj, field: FieldSpec) -> dict:
    """The payload dictionary alone, for callers assembling composite documents."""
    return _emit_payload(obj, field)


def emit_raw(field: FieldSpec, payload: dict) -> bytes:
    """Wrap an already-built payload dictionary in the canonical envelope."""
    fobj = {"kind": field.kind}
    if field.kind == PRIME:
        fobj["p"] = field.p
    doc = {"schema_version": SCHEMA_VERSION, "field": fobj, "payload": payload}
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def emit_document(obj, field: FieldSpec | None = None) -> bytes:
    """Canonical UTF-8 JSON bytes for a payload object or a full Document."""
    if isinstance(obj, Document):
        field = obj.field
        payload = obj.payload
    else:
        payload = obj
        if field is None:
            field = _field_of(obj)
        if field is None:
            raise ArgumentError("field must be supplied for objects that do not carry one")
    return emit_raw(field, _emit_payload(payload, field))
