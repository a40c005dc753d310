"""Command-line surface: validate, construct, compare, enumerate, catalogue.

Exit status: 0 when every requested validation passed, 1 when a check
failed (reports are still written), 2 on malformed input or usage errors.
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
from .documents import (Document, ResultSet, emit_document, emit_raw,
                        parse_document, payload_dict)
from .enumeration import (DEFAULT_BUDGET, enumerate_associative_products,
                          enumerate_dendriform_di, enumerate_rb_operators,
                          phi_image_experiment)
from .equivalence import (search_dendriform_iso_fp, verify_dendriform_iso,
                          verify_operator_equiv)
from .errors import (DendropError, InvalidDendriformError, InvalidOperatorError,
                     KernelNotIdealError, SingularMatrixError, UsageError)
from .fields import is_prime, prime_field, same_field
from .linalg import Matrix
from .operators import ALGEBRA, OOperator, validate_o_operator
from .structures import (Algebra, Bimodule, BimoduleAlgebra, DendriformDi,
                         DendriformTri, ValidationReport,
                         validate_associativity, validate_bimodule,
                         validate_bimodule_algebra, validate_dendriform_di,
                         validate_dendriform_tri)


def _read_document(path: str) -> Document:
    with open(path, "rb") as fh:
        return parse_document(fh.read())


def _write_bytes(path: str | None, data: bytes) -> None:
    if path is None or path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def _print_report(label: str, rep: ValidationReport) -> None:
    status = "PASS" if rep.passed else "FAIL"
    print(f"{status} {label} [{rep.structure_kind}]"
          + ("" if rep.passed else f": {rep.total_violations} violation(s)"))
    for v in rep.violations:
        print(f"  axiom {v.axiom} at {v.indices}: "
              f"lhs={[str(c) for c in v.lhs]} rhs={[str(c) for c in v.rhs]}")


_VALIDATORS = {
    Algebra: validate_associativity,
    Bimodule: validate_bimodule,
    BimoduleAlgebra: validate_bimodule_algebra,
    DendriformDi: validate_dendriform_di,
    DendriformTri: validate_dendriform_tri,
    OOperator: validate_o_operator,
}


def _cmd_validate(args) -> int:
    doc = _read_document(args.file)
    obj = doc.payload
    validator = _VALIDATORS.get(type(obj))
    if validator is None:
        print(f"nothing to validate in a {type(obj).__name__} document", file=sys.stderr)
        return 2
    rep = validator(obj)
    _print_report(args.file, rep)
    if args.report:
        _write_bytes(args.report, emit_document(rep, field=doc.field))
    return 0 if rep.passed else 1


def _cmd_construct(args) -> int:
    doc = _read_document(args.operator)
    op = doc.payload
    if not isinstance(op, OOperator):
        print("construct expects an operator document", file=sys.stderr)
        return 2
    if args.side == "domain":
        built = domain_dendriform_tri(op) if op.kind == ALGEBRA else domain_dendriform_di(op)
        _write_bytes(args.output, emit_document(built, field=doc.field))
        return 0
    try:
        built = range_dendriform_tri(op) if op.kind == ALGEBRA else range_dendriform_di(op)
    except SingularMatrixError:
        if op.kind != ALGEBRA:
            print("operator is singular and the quotient path needs an algebra-kind "
                  "operator", file=sys.stderr)
            return 1
        quot = range_dendriform_quotient(op)
        rs = ResultSet.build(
            "range-quotient",
            params={"image_dim": quot.structure.dim},
            items=[quot.structure, quot.embedding, quot.image_algebra])
        _write_bytes(args.output, emit_document(rs, field=doc.field))
        print(f"operator singular; emitted quotient structure on a "
              f"{quot.structure.dim}-dimensional image basis")
        return 0
    _write_bytes(args.output, emit_document(built, field=doc.field))
    return 0


def _cmd_canonical(args) -> int:
    doc = _read_document(args.dendriform)
    d = doc.payload
    if isinstance(d, DendriformTri):
        _, op = canonical_operator_from_tri(d)
    elif isinstance(d, DendriformDi):
        _, op = canonical_operator_from_di(d)
    else:
        print("canonical expects a dendriform document", file=sys.stderr)
        return 2
    _write_bytes(args.output, emit_document(op, field=doc.field))
    return 0


def _cmd_split_check(args) -> int:
    ddoc = _read_document(args.dendriform)
    adoc = _read_document(args.algebra)
    same_field(ddoc.field, adoc.field)
    d, alg = ddoc.payload, adoc.payload
    if not isinstance(d, (DendriformDi, DendriformTri)) or not isinstance(alg, Algebra):
        print("split-check expects a dendriform document and an algebra document",
              file=sys.stderr)
        return 2
    rep = check_splitting(d, alg)
    _print_report(f"{args.dendriform} vs {args.algebra}", rep)
    if args.report:
        _write_bytes(args.report, emit_document(rep, field=ddoc.field))
    return 0 if rep.passed else 1


def _cmd_iso(args) -> int:
    doc1 = _read_document(args.d1)
    doc2 = _read_document(args.d2)
    same_field(doc1.field, doc2.field)
    d1, d2 = doc1.payload, doc2.payload
    if args.witness:
        wdoc = _read_document(args.witness)
        if not isinstance(wdoc.payload, Matrix):
            print("witness file must hold a matrix payload", file=sys.stderr)
            return 2
        rep = verify_dendriform_iso(d1, d2, wdoc.payload)
        _print_report("iso witness", rep)
        return 0 if rep.passed else 1
    result = search_dendriform_iso_fp(d1, d2)
    print(f"search: {result.nodes} columns assigned", file=sys.stderr)
    if result.found:
        print(f"isomorphic: witness found after {result.candidates_tried} candidate(s)")
        if args.output:
            _write_bytes(args.output,
                         emit_document(result.witness.matrix, field=doc1.field))
        return 0
    print(f"not isomorphic: exhausted {result.candidates_tried} invertible candidate(s)")
    return 1


def _cmd_equiv(args) -> int:
    doc1 = _read_document(args.op1)
    doc2 = _read_document(args.op2)
    fdoc = _read_document(args.f)
    gdoc = _read_document(args.g)
    op1, op2 = doc1.payload, doc2.payload
    if not isinstance(op1, OOperator) or not isinstance(op2, OOperator):
        print("equiv expects two operator documents", file=sys.stderr)
        return 2
    if not isinstance(fdoc.payload, Matrix) or not isinstance(gdoc.payload, Matrix):
        print("--f and --g must hold matrix payloads", file=sys.stderr)
        return 2
    rep = verify_operator_equiv(op1, op2, fdoc.payload, gdoc.payload)
    _print_report("operator equivalence", rep)
    return 0 if rep.passed else 1


def _resolve_budget(args) -> int | None:
    if args.budget is not None:
        return args.budget
    env = os.environ.get("DENDROP_BUDGET")
    if not env:
        return None
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"DENDROP_BUDGET={env!r} is not an integer") from None


def _cmd_enumerate(args) -> int:
    if args.dim < 1:
        raise UsageError(f"--dim must be at least 1, got {args.dim}")
    if args.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")
    if not is_prime(args.prime):
        raise UsageError(f"--prime {args.prime} is not prime")
    budget = _resolve_budget(args)
    field = prime_field(args.prime)
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
    return 0


def _cmd_catalogue(args) -> int:
    from .fields import RATIONALS

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
    return 0


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
    p.add_argument("-o", "--output", metavar="OUT", help="write the found witness")
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
        return args.fn(args)
    except (InvalidOperatorError, InvalidDendriformError, KernelNotIdealError) as e:
        print(f"failed: {e}", file=sys.stderr)
        return 1
    except DendropError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
