"""Command-line surface: validate, construct, compare, enumerate, catalogue.

Each command returns a verdict, True when everything asked for passed or
was built, and ``main`` alone turns outcomes into exit status: 0 for True;
1 for False or a refused construction (stderr ``failed: ...``; reports are
still written); 2 for any other ``DendropError`` or an ``OSError``, such as
malformed input, a document of the wrong kind or a bad flag (stderr
``error: ...``).
The enumeration budget comes from --budget when given, else the
DENDROP_BUDGET environment variable, else the built-in default.
"""

from __future__ import annotations

import argparse
import os
import sys

from .catalogue import builtin_catalogue
from .constructions import (check_splitting, canonical_operator_from_di,
                            canonical_operator_from_tri, domain_dendriform_di,
                            domain_dendriform_tri, range_dendriform_di,
                            range_dendriform_quotient, range_dendriform_tri)
from .documents import (_BY_CLASS, Document, ResultSet, emit_document, emit_raw,
                        parse_document, payload_dict)
from .enumeration import (DEFAULT_BUDGET, enumerate_associative_products,
                          enumerate_dendriform_di, enumerate_rb_operators,
                          phi_image_experiment)
from .equivalence import (search_dendriform_iso_fp, verify_dendriform_iso,
                          verify_operator_equiv)
from .errors import (DendropError, InvalidDendriformError, InvalidOperatorError,
                     KernelNotIdealError, KindMismatchError, SingularMatrixError,
                     UsageError)
from .fields import RATIONALS, prime_field, same_field
from .linalg import Matrix
from .operators import ALGEBRA, OOperator, validate_o_operator
from .structures import (Algebra, Bimodule, BimoduleAlgebra, DendriformDi,
                         DendriformTri, ValidationReport,
                         validate_associativity, validate_bimodule,
                         validate_bimodule_algebra, validate_dendriform_di,
                         validate_dendriform_tri)


def _read_document(path: str, *classes) -> Document:
    """The document at ``path``, refused unless its payload is one of ``classes``."""
    with open(path, "rb") as fh:
        doc = parse_document(fh.read())
    if type(doc.payload) not in classes:
        raise KindMismatchError(
            f"{path}: expected {' or '.join(_BY_CLASS[c].tag for c in classes)}, "
            f"found {_BY_CLASS[type(doc.payload)].tag}")
    return doc


def _write_bytes(path: str | None, data: bytes) -> None:
    if path is None or path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def _report(label: str, rep: ValidationReport, field=None, path: str | None = None) -> bool:
    """Print ``rep``, write it to ``path`` when given, and return whether it passed."""
    status = "PASS" if rep.passed else "FAIL"
    print(f"{status} {label} [{rep.structure_kind}]"
          + ("" if rep.passed else f": {rep.total_violations} violation(s)"))
    for v in rep.violations:
        print(f"  axiom {v.axiom} at {v.indices}: "
              f"lhs={[str(c) for c in v.lhs]} rhs={[str(c) for c in v.rhs]}")
    if path:
        _write_bytes(path, emit_document(rep, field=field))
    return rep.passed


_VALIDATORS = {
    Algebra: validate_associativity,
    Bimodule: validate_bimodule,
    BimoduleAlgebra: validate_bimodule_algebra,
    DendriformDi: validate_dendriform_di,
    DendriformTri: validate_dendriform_tri,
    OOperator: validate_o_operator,
}
_DENDRIFORM = (DendriformDi, DendriformTri)


def _cmd_validate(args) -> bool:
    doc = _read_document(args.file, *_VALIDATORS)
    rep = _VALIDATORS[type(doc.payload)](doc.payload)
    return _report(args.file, rep, doc.field, args.report)


def _cmd_construct(args) -> bool:
    doc = _read_document(args.operator, OOperator)
    op = doc.payload
    if args.side == "domain":
        built = domain_dendriform_tri(op) if op.kind == ALGEBRA else domain_dendriform_di(op)
        _write_bytes(args.output, emit_document(built, field=doc.field))
        return True
    try:
        built = range_dendriform_tri(op) if op.kind == ALGEBRA else range_dendriform_di(op)
    except SingularMatrixError:
        if op.kind != ALGEBRA:
            print("failed: operator is singular and the quotient path needs an "
                  "algebra-kind operator", file=sys.stderr)
            return False
        quot = range_dendriform_quotient(op)
        rs = ResultSet.build(
            "range-quotient",
            params={"image_dim": quot.structure.dim},
            items=[quot.structure, quot.embedding, quot.image_algebra])
        _write_bytes(args.output, emit_document(rs, field=doc.field))
        print(f"operator singular; emitted quotient structure on a "
              f"{quot.structure.dim}-dimensional image basis")
        return True
    _write_bytes(args.output, emit_document(built, field=doc.field))
    return True


def _cmd_canonical(args) -> bool:
    doc = _read_document(args.dendriform, *_DENDRIFORM)
    d = doc.payload
    canonical = (canonical_operator_from_tri if isinstance(d, DendriformTri)
                 else canonical_operator_from_di)
    _write_bytes(args.output, emit_document(canonical(d)[1], field=doc.field))
    return True


def _cmd_split_check(args) -> bool:
    ddoc = _read_document(args.dendriform, *_DENDRIFORM)
    adoc = _read_document(args.algebra, Algebra)
    same_field(ddoc.field, adoc.field)
    rep = check_splitting(ddoc.payload, adoc.payload)
    return _report(f"{args.dendriform} vs {args.algebra}", rep, ddoc.field, args.report)


def _cmd_iso(args) -> bool:
    doc1 = _read_document(args.d1, *_DENDRIFORM)
    doc2 = _read_document(args.d2, *_DENDRIFORM)
    same_field(doc1.field, doc2.field)
    d1, d2 = doc1.payload, doc2.payload
    if args.witness:
        wdoc = _read_document(args.witness, Matrix)
        if args.output:
            raise UsageError("-o writes the witness --search-fp finds; --witness writes nothing")
        return _report("iso witness", verify_dendriform_iso(d1, d2, wdoc.payload))
    result = search_dendriform_iso_fp(d1, d2)
    print(f"search: {result.nodes} columns assigned", file=sys.stderr)
    if result.found:
        print(f"isomorphic: witness found after {result.candidates_tried} candidate(s)")
        if args.output:
            _write_bytes(args.output,
                         emit_document(result.witness.matrix, field=doc1.field))
        return True
    print(f"not isomorphic: exhausted {result.candidates_tried} invertible candidate(s)")
    return False


def _cmd_equiv(args) -> bool:
    op1, op2 = (_read_document(path, OOperator).payload for path in (args.op1, args.op2))
    f, g = (_read_document(path, Matrix).payload for path in (args.f, args.g))
    return _report("operator equivalence", verify_operator_equiv(op1, op2, f, g))


def _resolve_budget(args) -> int | None:
    budget, source = args.budget, "--budget"
    if budget is None:
        env, source = os.environ.get("DENDROP_BUDGET"), "DENDROP_BUDGET"
        if not env:
            return None
        try:
            budget = int(env)
        except ValueError:
            raise UsageError(f"DENDROP_BUDGET={env!r} is not an integer") from None
    if budget < 1:
        raise UsageError(f"{source} must be at least 1, got {budget}")
    return budget


def _cmd_enumerate(args) -> bool:
    if args.dim < 1:
        raise UsageError(f"--dim must be at least 1, got {args.dim}")
    if args.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")
    field = prime_field(args.prime)
    budget = _resolve_budget(args)
    if args.what == "assoc":
        algebras = enumerate_associative_products(args.dim, args.prime, budget,
                                                  workers=args.workers)
        rs = ResultSet.build("assoc", params={"dim": args.dim, "prime": args.prime},
                             counts={"found": len(algebras)}, items=algebras)
    elif args.what == "rb0":
        algebras = enumerate_associative_products(args.dim, args.prime, budget,
                                                  workers=args.workers)
        items, total = [], 0
        for alg in algebras:
            ops = enumerate_rb_operators(alg, field.zero, budget)
            total += len(ops)
            items.extend(op.matrix for op in ops)
        rs = ResultSet.build("rb0", params={"dim": args.dim, "prime": args.prime},
                             counts={"algebras": len(algebras), "operators": total},
                             items=items)
    elif args.what == "dendriform-di":
        found = enumerate_dendriform_di(args.dim, args.prime, budget,
                                        workers=args.workers)
        rs = ResultSet.build("dendriform-di",
                             params={"dim": args.dim, "prime": args.prime},
                             counts={"found": len(found)}, items=found)
    else:  # phi-image
        result = phi_image_experiment(args.dim, args.prime, budget,
                                      workers=args.workers)
        rs = ResultSet.build("phi-image",
                             params={"dim": args.dim, "prime": args.prime},
                             counts=result.counts,
                             items=result.missing,
                             label=result.label)
        print(f"all={result.counts['all']} image={result.counts['image']} "
              f"missing={result.counts['missing']} ({result.label})")
    _write_bytes(args.output, emit_document(rs, field=field))
    return True


def _cmd_catalogue(args) -> bool:
    items = []
    for entry in builtin_catalogue():
        payload = payload_dict(entry.structure, RATIONALS)
        if entry.typo_corrected:
            payload["typo_corrected"] = True
        items.append(payload)
    doc = emit_raw(RATIONALS, {"kind": "result_set", "what": "catalogue",
                               "params": {}, "counts": {"entries": len(items)},
                               "items": items})
    _write_bytes(args.output, doc)
    return True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dendrop",
        description="Exact validation and construction for Rota-Baxter / relative "
                    "operators and dendriform dialgebras and trialgebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a structure or operator document")
    p.add_argument("file")
    p.add_argument("--report", metavar="OUT", help="write the machine-readable report")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("construct", help="dendriform structure on an operator's "
                                         "domain or range")
    p.add_argument("side", choices=["domain", "range"])
    p.add_argument("operator")
    p.add_argument("-o", "--output", metavar="OUT")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("canonical", help="canonical operator reproducing a "
                                         "dendriform structure")
    p.add_argument("dendriform")
    p.add_argument("-o", "--output", metavar="OUT")
    p.set_defaults(fn=_cmd_canonical)

    p = sub.add_parser("split-check", help="check that products sum to an algebra's "
                                           "multiplication")
    p.add_argument("dendriform")
    p.add_argument("algebra")
    p.add_argument("--report", metavar="OUT")
    p.set_defaults(fn=_cmd_split_check)

    p = sub.add_parser("iso", help="verify or search a dendriform isomorphism")
    p.add_argument("d1")
    p.add_argument("d2")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--witness", metavar="F_JSON")
    group.add_argument("--search-fp", action="store_true")
    p.add_argument("-o", "--output", metavar="OUT",
                   help="write the witness --search-fp finds (refused with --witness)")
    p.set_defaults(fn=_cmd_iso)

    p = sub.add_parser("equiv", help="verify an operator equivalence witness pair")
    p.add_argument("op1")
    p.add_argument("op2")
    p.add_argument("--f", required=True, metavar="F_JSON")
    p.add_argument("--g", required=True, metavar="G_JSON")
    p.set_defaults(fn=_cmd_equiv)

    p = sub.add_parser("enumerate", help="exhaustive classification over a prime field")
    p.add_argument("--what", required=True,
                   choices=["assoc", "rb0", "dendriform-di", "phi-image"])
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--budget", type=int, default=None,
                   help=f"candidate cap (default {DEFAULT_BUDGET}, env DENDROP_BUDGET)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("-o", "--output", metavar="OUT")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("catalogue", help="emit the built-in dimension-2 catalogue")
    p.add_argument("-o", "--output", metavar="OUT")
    p.set_defaults(fn=_cmd_catalogue)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return 0 if args.fn(args) else 1
    except (InvalidOperatorError, InvalidDendriformError, KernelNotIdealError) as e:
        print(f"failed: {e}", file=sys.stderr)
        return 1
    except (DendropError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
