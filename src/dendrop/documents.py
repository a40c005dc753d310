"""JSON document format: parsing with strict validation, canonical emission.

Every document is a UTF-8 JSON object with a schema version, a ground
field, and one typed payload.  Scalars travel as exact strings ("3",
"-1/2"), the only form emitted.  On input a JSON integer is read as the
scalar its string names (``"c": 1`` as ``"c": "1"``), in sparse records,
dense grids, flat matrices and ``weight`` alike; floating-point literals
and booleans are rejected.  Emission is
canonical: keys sorted, rationals in lowest terms, structure constants
listed sparsely (nonzero entries only) ordered by index triple, so parsing
followed by emission is the identity on canonical bytes and
``parse(emit(x)) == x`` for every supported object.

The emitted bytes are ASCII and are those of ``json.dumps(doc,
sort_keys=True, indent=2)`` plus a newline, written by ``_write`` rather
than by ``json.dumps``, which on an ``indent`` runs a pure-Python encoder.
Emission refuses with ``ArgumentError`` what parsing would refuse: the
writer any value other than a string, integer, boolean, None, list, tuple
or dict (a float or a ``Fraction`` among them) and any object key that is
not a string, and a result set's ``params`` and ``counts`` any value of a
type their parse does not accept.

Both directions are driven by two tables.  ``_KEYS`` gives every JSON key
one codec: its JSON type, a loader, a dumper and the attribute it is read
from on emission; a key means the same wherever it appears.  ``_KINDS``
declares each payload kind once: its class, its keys in load order (a
later key may depend on an earlier one, as a tensor on ``dim``) and a
builder from the loaded values.  Keys missing from a kind's JSON object
take the codec's default, or fail when it has none; a key the kind does
not declare fails too, except the few a kind lists as dropped on parse.
The envelope, its ``field`` object and sparse tensor records refuse
undeclared keys the same way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, NamedTuple

from .errors import (ArgumentError, DocumentSyntaxError, FieldSpecError,
                     SchemaError)
from .fields import FieldSpec, PRIME, RATIONAL, RATIONALS, prime_field
from .linalg import Matrix, StructureTensor
from .structures import (Algebra, Bimodule, BimoduleAlgebra, DendriformDi,
                         DendriformTri, ValidationReport, Violation, _transpose)
from .operators import ALGEBRA, MODULE, OOperator

SCHEMA_VERSION = "1"

# A sparse tensor of dimension n is built as n^3 cells from ``dim`` alone,
# and a matrix with no columns as ``rows`` empty rows, so a short document
# could ask for any amount of memory; a larger tensor ``dim`` or matrix
# ``rows`` or ``cols`` is refused before anything is allocated.
MAX_TENSOR_DIM = 64


@dataclass(frozen=True)
class Document:
    schema_version: str
    field: FieldSpec
    payload: object


@dataclass(frozen=True)
class ResultSet:
    """Serializable bundle of enumeration or search output."""

    what: str
    params: tuple        # sorted (key, value) pairs; values are str or int
    counts: tuple        # sorted (key, int) pairs
    items: tuple         # payload objects
    label: str | None = None

    @classmethod
    def build(cls, what, params=None, counts=None, items=(), label=None):
        return cls(what,
                   tuple(sorted((params or {}).items())),
                   tuple(sorted((counts or {}).items())),
                   tuple(items), label)


# -- scalars, tensors and flat matrices ---------------------------------------------

def _reject_unknown(obj, keys, where):
    unknown = obj.keys() - keys
    if unknown:
        raise SchemaError(f"{where}.{min(unknown)}: unknown key")


def _expect(obj, key, types, where):
    if key not in obj:
        raise SchemaError(f"{where}: missing required key {key!r}")
    val = obj[key]
    if not isinstance(val, types) or val.__class__ is bool and types is not bool:
        raise SchemaError(f"{where}.{key}: unexpected type {type(val).__name__}")
    return val


def _reader(field: FieldSpec):
    """``read(raw, where, *index)``: one scalar, each distinct literal parsed once.

    One reader serves one tensor, matrix or vector, where most entries
    repeat "0", "1" or "-1".  The path ``where[index]...`` is built only to
    name a refused entry.
    """
    memo = {}

    def read(raw, where, *index):
        if raw.__class__ is str:
            val = memo.get(raw)
            if val is None:
                val = memo[raw] = field.parse(raw)  # BadRationalError propagates
            return val
        if raw.__class__ is int:
            return field.coerce(raw)
        path = where + "".join(f"[{i}]" for i in index)
        raise SchemaError(f"{path}: scalars must be exact strings, got {raw!r}")
    return read


_IJKC = frozenset("ijkc")


def _tensor(field: FieldSpec, dim, raw, where) -> StructureTensor:
    """Sparse list of {i,j,k,c} records, or a dense dim^3 nested grid."""
    if dim > MAX_TENSOR_DIM:
        raise SchemaError(f"{where}: dim {dim} is above the cap {MAX_TENSOR_DIM}")
    read = _reader(field)
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
                rows.append(tuple(read(c, where, i, j) for c in row))
            planes.append(tuple(rows))
        return StructureTensor(field, tuple(planes))
    triples = {}
    for idx, rec in enumerate(raw):
        # a canonical record is read here; any other one, valid or not, by _sparse_entry
        if rec.__class__ is dict and rec.keys() == _IJKC:
            i, j, k = key = rec["i"], rec["j"], rec["k"]
            c = rec["c"]
            if (i.__class__ is int and j.__class__ is int and k.__class__ is int
                    and 0 <= i < dim and 0 <= j < dim and 0 <= k < dim
                    and c.__class__ is str and key not in triples):
                triples[key] = read(c, where)
                continue
        _sparse_entry(read, dim, rec, triples, f"{where}[{idx}]")
    return StructureTensor.from_triples(field, dim, triples)


def _sparse_entry(read, dim, rec, triples, here):
    """Check one {i,j,k,c} record against ``dim`` and ``triples`` and add it to them."""
    if not isinstance(rec, dict):
        raise SchemaError(f"{here}: expected an object with i/j/k/c")
    _reject_unknown(rec, _IJKC, here)
    i = _expect(rec, "i", int, here)
    j = _expect(rec, "j", int, here)
    k = _expect(rec, "k", int, here)
    if not all(0 <= t < dim for t in (i, j, k)):
        raise SchemaError(f"{here}: index out of range for dim {dim}")
    if (i, j, k) in triples:
        raise SchemaError(f"{here}: duplicate entry for ({i},{j},{k})")
    triples[(i, j, k)] = read(_expect(rec, "c", (str, int), here), here)


def _flat_values(field: FieldSpec, rows, cols, raw, where) -> list:
    """The scalars of a flat row-major rows x cols matrix, in document order."""
    if not isinstance(raw, list) or len(raw) != rows * cols:
        raise SchemaError(f"{where}: dimension mismatch, expected a flat row-major list "
                          f"of {rows}x{cols} = {rows * cols} entries")
    read = _reader(field)
    return [read(c, where, i) for i, c in enumerate(raw)]


def _flat(field: FieldSpec, rows, cols, raw, where) -> Matrix:
    vals = _flat_values(field, rows, cols, raw, where)
    return Matrix(field, tuple(tuple(vals[r * cols:(r + 1) * cols]) for r in range(rows)))


def _flat_strs(rows) -> list:
    return [str(a) for row in rows for a in row]


# -- walking a kind's keys --------------------------------------------------------

def _load_record(kind: _Kind, field, obj, where, got=None):
    """Load ``kind``'s keys from ``obj`` in order; keys already in ``got`` are not read."""
    _reject_unknown(obj, kind.accepted, where)
    got = dict(got or ())
    for key in kind.keys:
        name = key.name
        if name in got:
            continue
        if name in obj or key.default is _REQUIRED:
            got[name] = key.load(field, _expect(obj, name, key.types, where), got,
                                 f"{where}.{name}")
        else:
            got[name] = key.default
    return kind.build(got, where)


def _dump_record(kind: _Kind, obj, skip=None) -> dict:
    """``kind``'s keys read from ``obj``, less ``skip``, a key its enclosing record holds."""
    out = {}
    for key in kind.keys:
        value = getattr(obj, key.attr or key.name)
        if value is not None and key.name != skip:
            out[key.name] = key.dump(value)
    return out


def _load_payload(field, obj, where):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: payload must be an object")
    tag = _expect(obj, "kind", str, where)
    kind = _KINDS.get(tag)
    if kind is None:
        raise SchemaError(f"{where}.kind: unknown payload kind {tag!r}")
    return _load_record(kind, field, obj, where)


def _dump_payload(obj) -> dict:
    kind = _BY_CLASS.get(type(obj))
    if kind is None:
        raise ArgumentError(f"cannot serialize object of type {type(obj).__name__}")
    out = _dump_record(kind, obj)
    out["kind"] = kind.tag
    return out


# -- key codecs: load(field, raw, loaded so far, where) -> value, dump(value) -> JSON ------

def _at_least(low, cap=None):
    def load(field, raw, got, where):
        if raw < low:
            raise SchemaError(f"{where}: must be an integer >= {low}")
        if cap is not None and raw > cap:
            raise SchemaError(f"{where}: {raw} is above the cap {cap}")
        return raw
    return load


def _load_cols(field, raw, got, where):
    """A ``Matrix`` with no rows has no column count, so ``cols`` must then be 0."""
    if _at_least(0, MAX_TENSOR_DIM)(field, raw, got, where) and not got["rows"]:
        raise SchemaError(f"{where}: must be 0 when rows is 0")
    return raw


def _load_basis(field, raw, got, where):
    if raw is not None and (len(raw) != got["dim"]
                            or not all(isinstance(b, str) for b in raw)):
        raise SchemaError(f"{where}: must list {got['dim']} names")
    return raw


def _load_algebra(field, raw, got, where):
    if raw.get("kind") != "algebra":
        raise SchemaError(f"{where}.kind: must be 'algebra'")
    return _load_record(_KINDS["algebra"], field, raw, where)


def _load_actions(field, raw, got, where):
    """One m x m flat matrix per algebra basis element, m the module's ``dim``, as its columns."""
    n, m = got["algebra"].dim, got["dim"]
    if len(raw) != n:
        raise SchemaError(f"{where}: need one matrix per algebra basis element ({n}), "
                          f"got {len(raw)}")
    flats = (_flat_values(field, m, m, mat, f"{where}[{i}]") for i, mat in enumerate(raw))
    return tuple(tuple(tuple(vals[j::m]) for j in range(m)) for vals in flats)


def _load_operator_kind(field, raw, got, where):
    if raw not in (MODULE, ALGEBRA):
        raise SchemaError(f"{where}: must be 'module' or 'algebra'")
    return raw


def _load_domain(field, raw, got, where):
    """A bimodule (algebra) record without ``algebra``: that is the operator's codomain."""
    kind = _KINDS["bimodule_algebra" if "product" in raw else "bimodule"]
    return _load_record(kind, field, raw, where, {"algebra": got["codomain"]})


def _load_violations(field, raw, got, where):
    out = []
    for i, rec in enumerate(raw):
        if not isinstance(rec, dict):
            raise SchemaError(f"{where}[{i}]: expected an object")
        out.append(_load_record(_VIOLATION, field, rec, f"{where}[{i}]"))
    return tuple(out)


def _load_indices(field, raw, got, where):
    if not all(i.__class__ is int for i in raw):
        raise SchemaError(f"{where}: must be integers")
    return tuple(raw)


_REQUIRED = object()
_NONE = type(None)


class _Key(NamedTuple):
    """One JSON key's codec; on emission a key whose attribute is None is left out."""

    name: str
    types: type | tuple
    load: Callable = lambda field, raw, got, where: raw
    dump: Callable = lambda value: value
    attr: str | None = None         # attribute read on emission, when not ``name``
    default: object = _REQUIRED     # value when the key is absent on parse


def _tensor_key(name):
    return _Key(name, list, lambda f, raw, got, w: _tensor(f, got["dim"], raw, w),
                lambda t: [{"i": i, "j": j, "k": k, "c": str(c)}
                           for (i, j, k), c in t.nonzero_triples()])


def _vector_key(name):
    return _Key(name, list, lambda f, raw, got, w: tuple(map(_reader(f), raw, repeat(w))),
                lambda vec: [str(c) for c in vec])


def _action_key(name, attr, swap):
    """Per algebra basis element b_i, the matrix whose column j is b_i acting on e_j.

    That column is the table entry ``left[i][j]``, or ``right[j][i]`` with ``swap``.
    """
    orient = _transpose if swap else tuple
    return _Key(name, list, lambda *args: orient(_load_actions(*args)),
                lambda table: [_flat_strs(zip(*cols)) for cols in orient(table)], attr)


def _map_key(name, types, what):
    """A JSON object of scalars, held as its sorted (key, value) pairs; both ways check them."""
    def load(field, raw, got, where):
        for key, val in raw.items():
            if val.__class__ not in types:
                raise SchemaError(f"{where}.{key}: must be {what}")
        return tuple(sorted(raw.items()))

    def dump(pairs):
        out = dict(pairs)
        for key, val in out.items():
            if val.__class__ not in types:
                raise ArgumentError(f"{name}.{key}: must be {what}, got {val!r}")
        return out
    return _Key(name, dict, load, dump, default=())


_KEYS = {key.name: key for key in (
    _Key("dim", int, _at_least(1)),
    _Key("basis", (list, _NONE), _load_basis, lambda dim: [f"e{i + 1}" for i in range(dim)],
         "dim", None),
    _Key("name", (str, _NONE), default=None),
    _Key("label", (str, _NONE), default=None),
    *map(_tensor_key, ("product", "prec", "succ", "dot")),
    _Key("algebra", dict, _load_algebra, _dump_payload),
    _Key("codomain", dict, _load_algebra, _dump_payload),
    _action_key("left_action", "left", False),
    _action_key("right_action", "right", True),
    _Key("operator_kind", str, _load_operator_kind, attr="kind"),
    _Key("domain", dict, _load_domain,
         lambda dom: _dump_record(_BY_CLASS[type(dom)], dom, skip="algebra")),
    _Key("weight", (str, int), lambda f, raw, got, w: _reader(f)(raw, w), str, default=None),
    _Key("matrix", list,
         lambda f, raw, got, w: _flat(f, got["codomain"].dim, got["domain"].dim, raw, w),
         lambda M: _flat_strs(M.entries)),
    _Key("rows", int, _at_least(0, MAX_TENSOR_DIM)),
    _Key("cols", int, _load_cols),
    _Key("entries", list, lambda f, raw, got, w: _flat(f, got["rows"], got["cols"], raw, w),
         _flat_strs),
    _Key("structure_kind", str),
    _Key("passed", bool),
    _Key("total_violations", int, _at_least(0)),
    _Key("violations", list, _load_violations,
         lambda vs: [_dump_record(_VIOLATION, v) for v in vs]),
    _Key("axiom", str),
    _Key("indices", list, _load_indices, list),
    *map(_vector_key, ("lhs", "rhs")),
    _Key("what", str),
    _map_key("params", (str, int), "a string or an integer"),
    _map_key("counts", (int,), "an integer"),
    _Key("items", list,
         lambda f, raw, got, w: tuple(_load_payload(f, x, f"{w}[{i}]")
                                      for i, x in enumerate(raw)),
         lambda items: [_dump_payload(x) for x in items]),
)}


# -- payload kinds --------------------------------------------------------------------

class _Kind(NamedTuple):
    tag: str | None
    cls: type
    keys: tuple                     # _Key codecs in load order
    build: Callable                 # (loaded values by key, where) -> object
    accepted: frozenset             # JSON keys allowed on parse


def _kind(tag, cls, names, build, dropped="") -> _Kind:
    """A kind with the keys ``names``; keys in ``dropped`` are accepted and ignored on parse."""
    keys = tuple(_KEYS[name] for name in names.split())
    accepted = {key.name for key in keys} | set(dropped.split()) | ({"kind"} if tag else set())
    return _Kind(tag, cls, keys, build, frozenset(accepted))


def _operator(v, where) -> OOperator:
    algebra_kind = v["operator_kind"] == ALGEBRA
    if algebra_kind != isinstance(v["domain"], BimoduleAlgebra) \
            or algebra_kind != (v["weight"] is not None):
        raise SchemaError(f"{where}: algebra-kind operators carry a weight and a domain "
                          f"product, module-kind operators neither")
    return OOperator(v["domain"], v["codomain"], v["matrix"], v["weight"])


def _report(v, where) -> ValidationReport:
    total, listed = v["total_violations"], len(v["violations"])
    if listed > total:
        raise SchemaError(f"{where}.total_violations: {total} is below the "
                          f"{listed} violations listed")
    if v["passed"] != (total == 0):
        raise SchemaError(f"{where}.passed: inconsistent with total_violations")
    return ValidationReport(v["structure_kind"], v["passed"], v["violations"], total)


_KINDS = {kind.tag: kind for kind in (
    _kind("algebra", Algebra, "dim basis product name",
          lambda v, where: Algebra(v["product"], name=v["name"])),
    _kind("bimodule", Bimodule, "algebra dim left_action right_action",
          lambda v, where: Bimodule(v["algebra"], v["left_action"], v["right_action"])),
    _kind("bimodule_algebra", BimoduleAlgebra, "algebra dim left_action right_action product",
          lambda v, where: BimoduleAlgebra(_KINDS["bimodule"].build(v, where), v["product"])),
    _kind("operator", OOperator, "operator_kind codomain domain weight matrix", _operator),
    # ``dendrop catalogue`` marks its corrected entries with ``typo_corrected``
    _kind("dendriform_di", DendriformDi, "dim basis prec succ name",
          lambda v, where: DendriformDi(v["prec"], v["succ"], name=v["name"]),
          dropped="typo_corrected"),
    _kind("dendriform_tri", DendriformTri, "dim basis prec succ dot name",
          lambda v, where: DendriformTri(v["prec"], v["succ"], v["dot"], name=v["name"])),
    _kind("matrix", Matrix, "rows cols entries", lambda v, where: v["entries"]),
    _kind("report", ValidationReport,
          "structure_kind passed total_violations violations", _report),
    _kind("result_set", ResultSet, "what params counts items label",
          lambda v, where: ResultSet(v["what"], v["params"], v["counts"], v["items"],
                                     v["label"])),
)}
_BY_CLASS = {kind.cls: kind for kind in _KINDS.values()}
_VIOLATION = _kind(None, Violation, "axiom indices lhs rhs",
                   lambda v, where: Violation(v["axiom"], v["indices"], v["lhs"], v["rhs"]))


# -- documents ------------------------------------------------------------------------

def parse_document(data) -> Document:
    """Parse and validate one document from bytes or text (anything else: ``ArgumentError``)."""
    try:
        return _parse(data)
    except RecursionError:
        raise DocumentSyntaxError("document is nested too deeply") from None


def _parse(data) -> Document:
    if isinstance(data, (bytes, bytearray)):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise DocumentSyntaxError(f"invalid UTF-8 at byte {e.start}") from None
    elif isinstance(data, str):
        text = data
    else:
        raise ArgumentError(f"a document is bytes or text, not {type(data).__name__}")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentSyntaxError(
            f"invalid JSON at line {e.lineno} column {e.colno} (char {e.pos}): {e.msg}"
        ) from None
    except ValueError as e:  # an integer literal longer than Python converts to int
        raise DocumentSyntaxError(f"invalid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise SchemaError("document: top level must be an object")
    _reject_unknown(obj, ("schema_version", "field", "payload"), "document")
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
    _reject_unknown(fobj, ("kind", "p") if field.is_finite else ("kind",), "document.field")
    payload = _load_payload(field, _expect(obj, "payload", dict, "document"), "payload")
    return Document(version, field, payload)


def payload_dict(obj, field: FieldSpec) -> dict:
    """The payload dictionary alone, for callers assembling composite documents.

    A payload nested deeper than the interpreter recurses is refused, as
    ``parse_document`` refuses such a document.
    """
    try:
        return _dump_payload(obj)
    except RecursionError:
        raise ArgumentError("document is nested too deeply") from None


def _write(value, indent, out):
    """Append ``value`` to ``out`` as ``json.dumps(sort_keys=True, indent=2)`` lays it out."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        try:
            out.append(int.__repr__(value))
        except ValueError as e:  # more digits than Python converts to text
            raise ArgumentError(f"cannot serialize integer: {e}") from None
    elif not isinstance(value, (list, tuple, dict)):
        raise ArgumentError(f"cannot serialize value {value!r} of type {type(value).__name__}: "
                            f"documents hold only strings, integers, booleans, null, "
                            f"lists and objects")
    elif not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        inner = indent + "  "
        head, sep = "{\n" + inner, ",\n" + inner
        try:
            keys = sorted(value)
        except TypeError:
            keys = value  # mixed key types: the loop refuses the first that is not a string
        for key in keys:
            if not isinstance(key, str):
                raise ArgumentError(f"cannot serialize key {key!r} of type "
                                    f"{type(key).__name__}: object keys must be strings")
            out.append(f"{head}{_quote(key)}: ")
            _write(value[key], inner, out)
            head = sep
        out.append(f"\n{indent}}}")
    else:
        inner = indent + "  "
        head, sep = "[\n" + inner, ",\n" + inner
        try:  # a list of strings in one join; _quote refuses anything else
            out.append(f"{head}{sep.join(map(_quote, value))}\n{indent}]")
            return
        except TypeError:
            pass
        for item in value:
            out.append(head)
            _write(item, inner, out)
            head = sep
        out.append(f"\n{indent}]")


def emit_raw(field: FieldSpec, payload: dict) -> bytes:
    """Wrap an already-built payload dictionary in the canonical envelope."""
    fobj = {"kind": field.kind}
    if field.kind == PRIME:
        fobj["p"] = field.p
    out = []
    _write({"schema_version": SCHEMA_VERSION, "field": fobj, "payload": payload}, "", out)
    out.append("\n")
    return "".join(out).encode("ascii")


def emit_document(obj, field: FieldSpec | None = None) -> bytes:
    """Canonical UTF-8 JSON bytes for a payload object or a full Document.

    A payload nested deeper than the interpreter recurses is refused, as
    ``parse_document`` refuses such a document, and so is a ``field`` that
    is not a ``FieldSpec`` (``ArgumentError`` both).
    """
    if isinstance(obj, Document):
        field, obj = obj.field, obj.payload
    elif field is None:
        field = getattr(obj, "field", None)
        if field is None:
            raise ArgumentError("field must be supplied for objects that do not carry one")
    elif type(field) is not FieldSpec:
        raise ArgumentError(f"field must be a FieldSpec, not {type(field).__name__}")
    try:
        return emit_raw(field, _dump_payload(obj))
    except RecursionError:
        raise ArgumentError("document is nested too deeply") from None
