"""Command-line interface.

Exit codes: 0 for success or a true verdict, 1 for a false verdict or a
found counterexample, 2 for usage, parse, or validation errors.  Output is
deterministic for fixed inputs so shell scripts can branch on verdicts and
diff reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import io, verify
from .compat import (
    is_compatible,
    median_decomposition_check,
    synthesize,
)
from .congruences import all_congruences, principal_congruence, \
    principal_congruence_fixpoint
from .constructions import direct_product, horizontal_sum
from .errors import ArityMismatch, LatcongError, ParseError
from .lattice import Lattice
from .polynomials import to_table
from .sugeno import capacity_from_function, compare_formulations, sugeno_eval
from .tables import FunctionTable


def _read(path):
    """The text of a file; ParseError unless it is UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") \
            from None


def _load_lattice(args) -> Lattice:
    return io.parse_lattice(_read(args.lattice))


def _load_function(args, L) -> FunctionTable:
    """Function table from --function, or a lowered --poly."""
    if getattr(args, "function", None):
        _, table = io.parse_function_table(_read(args.function), L)
        return table
    if getattr(args, "poly", None):
        poly = io.parse_polynomial(_read(args.poly))
        return to_table(L, poly)
    raise LatcongError("provide --function or --poly")


def _verdict(flag: bool) -> int:
    print("true" if flag else "false")
    return 0 if flag else 1


def _element(L, e) -> str:
    if e in L.labels:
        return f"{e} ({L.labels[e]})"
    return str(e)


# --- command handlers -------------------------------------------------------


def cmd_info(args):
    L = _load_lattice(args)
    print(f"lattice {L.name or 'unnamed'}")
    print(f"elements {L.size}")
    print(f"bottom {_element(L, L.bottom)}")
    print(f"top {_element(L, L.top)}")
    print(f"covers {len(L.covers)}")
    print(f"distributive {'true' if L.is_distributive else 'false'}")
    print(f"chain {'true' if L.is_chain else 'false'}")
    return 0


def cmd_distributive(args):
    return _verdict(_load_lattice(args).is_distributive)


def cmd_congruences(args):
    L = _load_lattice(args)
    lines = sorted(str(c) for c in all_congruences(L))
    for line in lines:
        print(line)
    return 0


def cmd_principal(args):
    L = _load_lattice(args)
    a, b = args.a, args.b
    closure = principal_congruence_fixpoint(L, a, b)
    if L.is_distributive and principal_congruence(L, a, b) != closure:
        raise LatcongError("closed form and closure disagree; this is a bug")
    print(closure)
    return 0


def cmd_compat(args):
    L = _load_lattice(args)
    table = _load_function(args, L)
    return _verdict(is_compatible(L, table))


def cmd_median_check(args):
    L = _load_lattice(args)
    table = _load_function(args, L)
    return _verdict(median_decomposition_check(L, table))


def cmd_synthesize(args):
    L = _load_lattice(args)
    table = _load_function(args, L)
    nf, verified = synthesize(L, table)
    for mask in range(1 << nf.arity):
        print(f"g {io._subset_token(mask, nf.arity)} {nf.coefficients[mask]}")
    print(f"verified {'true' if verified else 'false'}")
    return 0 if verified else 1


def cmd_sugeno(args):
    L = _load_lattice(args)
    _, m = io.parse_capacity(_read(args.capacity), L)
    result = sugeno_eval(L, m, args.input)
    print(_element(L, result))
    return 0


def cmd_sugeno_compare(args):
    if args.max_arity < 1:
        raise ArityMismatch(f"--max-arity must be at least 1, got {args.max_arity}")
    L = _load_lattice(args)
    reports = [compare_formulations(L, n)
               for n in range(1, args.max_arity + 1)]
    disagreements = sum(len(r.disagreements) for r in reports)
    if args.json:
        payload = [{
            "lattice": r.lattice_name,
            "arity": r.arity,
            "capacities": r.capacities,
            "inputs": r.inputs,
            "disagreements": [{
                "capacity": list(d.capacity_values),
                "input": list(d.input),
                "levels": d.levels,
                "pointwise": d.pointwise,
                "subsets": d.subsets,
            } for d in r.disagreements],
        } for r in reports]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for r in reports:
            print(r.render())
    return 0 if disagreements == 0 else 1


def cmd_capacity_of(args):
    L = _load_lattice(args)
    name, table = io.parse_function_table(_read(args.function), L)
    m = capacity_from_function(L, table)
    sys.stdout.write(io.serialize_capacity(m, name))
    return 0


def cmd_product(args):
    factors = [io.parse_lattice(_read(path)) for path in args.files]
    P = direct_product(factors)
    for k, f in enumerate(factors):
        print(f"# factor {k}: {f.name or 'unnamed'} ({f.size} elements)")
    for i, t in enumerate(P.tuples):
        print(f"# element {i} = {t}")
    sys.stdout.write(io.serialize_lattice(P))
    return 0


def cmd_hsum(args):
    summands = [io.parse_lattice(_read(path)) for path in args.files]
    H = horizontal_sum(summands)
    for k, s in enumerate(summands):
        print(f"# summand {k}: {s.name or 'unnamed'} ({s.size} elements)")
    for e, origin in enumerate(H.provenance):
        where = "shared bound" if origin is None else f"summand {origin}"
        print(f"# element {e}: {where}")
    sys.stdout.write(io.serialize_lattice(H))
    return 0


def cmd_verify(args):
    results = verify.run_checks(args.suite)
    failed = sum(not r.passed for r in results)
    if args.json:
        payload = {
            "checks": [{
                "id": r.check_id,
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
            } for r in results],
            "passed": len(results) - failed,
            "total": len(results),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for r in results:
            print(r.render())
        print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latcong",
        description="Finite bounded lattices: congruences, compatible "
                    "aggregation functions, and discrete Sugeno integrals.")
    sub = parser.add_subparsers(dest="command", required=True)

    def lattice_flag(p):
        p.add_argument("--lattice", required=True, metavar="FILE",
                       help="lattice file")

    p = sub.add_parser("info", help="summarize a lattice file")
    lattice_flag(p)
    p.set_defaults(handler=cmd_info)

    p = sub.add_parser("distributive", help="test the distributive identity")
    lattice_flag(p)
    p.set_defaults(handler=cmd_distributive)

    p = sub.add_parser("congruences", help="list the congruence lattice")
    lattice_flag(p)
    p.set_defaults(handler=cmd_congruences)

    p = sub.add_parser("principal",
                       help="least congruence collapsing a pair")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    lattice_flag(p)
    p.set_defaults(handler=cmd_principal)

    p = sub.add_parser("compat",
                       help="test congruence preservation of a function")
    lattice_flag(p)
    p.add_argument("--function", metavar="FILE")
    p.add_argument("--poly", metavar="FILE")
    p.set_defaults(handler=cmd_compat)

    p = sub.add_parser("median-check",
                       help="test the median decomposition of a function")
    lattice_flag(p)
    p.add_argument("--function", metavar="FILE")
    p.add_argument("--poly", metavar="FILE")
    p.set_defaults(handler=cmd_median_check)

    p = sub.add_parser("synthesize",
                       help="normal form from the boolean vertices")
    lattice_flag(p)
    p.add_argument("--function", metavar="FILE")
    p.add_argument("--poly", metavar="FILE")
    p.set_defaults(handler=cmd_synthesize)

    p = sub.add_parser("sugeno", help="evaluate the Sugeno integral")
    lattice_flag(p)
    p.add_argument("--capacity", required=True, metavar="FILE")
    p.add_argument("--input", required=True, type=int, nargs="+",
                   metavar="ELEM")
    p.set_defaults(handler=cmd_sugeno)

    p = sub.add_parser("sugeno-compare",
                       help="compare the three integral formulations")
    lattice_flag(p)
    p.add_argument("--max-arity", type=int, default=2)
    p.add_argument("--json", action="store_true",
                   help="structured report instead of plain text")
    p.set_defaults(handler=cmd_sugeno_compare)

    p = sub.add_parser("capacity-of",
                       help="extract the capacity of an aggregation table")
    lattice_flag(p)
    p.add_argument("--function", required=True, metavar="FILE")
    p.set_defaults(handler=cmd_capacity_of)

    p = sub.add_parser("product", help="direct product of lattice files")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.set_defaults(handler=cmd_product)

    p = sub.add_parser("hsum", help="horizontal sum of lattice files")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.set_defaults(handler=cmd_hsum)

    p = sub.add_parser("verify", help="run the verification checklist")
    p.add_argument("--suite", default="all",
                   choices=("all",) + tuple(verify.SUITES))
    p.add_argument("--json", action="store_true",
                   help="structured report instead of plain text")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except LatcongError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
