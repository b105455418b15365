"""Command-line front end.

Exit codes: 0 success / property holds, 1 a checked property fails,
2 usage error, 3 a resource cap was hit.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import constructions as cons
from . import lemmas
from .autgroup import (
    Automorphism,
    diag_top_generators,
    full_group_generators,
    read_group,
    wreath_generators,
)
from .caps import ResourceCapError
from .codes import (
    Code,
    covering_radius,
    format_vertex_set,
    min_distance,
    neighbour_set,
    read_code,
    write_code,
)
from .elusive import XC_ENUM_CAP, format_report, verify_elusive, write_report
from .search import format_certificate, search_elusive, write_certificate

__all__ = ["main", "run"]


class UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="elusivecodes",
        description="Construct, analyse, and search for codes whose neighbour set hides them.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a named code family and write it to a file")
    c.add_argument("family", choices=["sym", "alt", "oddcoset", "prod", "parity", "rep", "union"])
    c.add_argument("params", nargs="*", help="family parameters, see README")
    c.add_argument("--odd", action="store_true", help="odd variant of the parity family")
    c.add_argument("-o", "--output", required=True)

    d = sub.add_parser("mindist", help="print the minimum distance of a code file")
    d.add_argument("code_file")

    r = sub.add_parser("covering-radius", help="print the covering radius of a code file")
    r.add_argument("code_file")

    n = sub.add_parser("neighbours", help="write the neighbour set of a code file")
    n.add_argument("code_file")
    n.add_argument("-o", "--output", required=True)

    v = sub.add_parser("verify", help="report whether a group makes the code an elusive pair")
    v.add_argument("code_file")
    v.add_argument("--group", required=True, help="diag-top | wreath(diag-top,L) | full | group file")
    v.add_argument("-o", "--output", help="write the report (and image files) here")
    v.add_argument("--expect", choices=["elusive", "not-elusive"])
    v.add_argument(
        "--enum-cap", type=int, default=XC_ENUM_CAP,
        help="cap on |X| for an exact |X_C|: reported when |X_C| <= this // r",
    )

    s = sub.add_parser("search", help="exhaustive elusive-pair search at (m, q, delta)")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--delta", type=int, required=True)
    s.add_argument("--no-parity-filter", action="store_true")
    s.add_argument("--max-size", type=int, default=None)
    s.add_argument("-o", "--output")

    f = sub.add_parser("lemmas", help="run a lemma-verification battery")
    f.add_argument("--suite", required=True, choices=sorted(lemmas.SUITES))
    f.add_argument("--seed", type=int, default=0, help="seed for the sampled spot checks")
    return ap


def _construct(args) -> Code:
    fam, p = args.family, args.params

    def arity(n):
        if len(p) != n:
            raise UsageError(f"family {fam!r} takes {n} parameter(s), got {len(p)}")

    if fam in ("sym", "alt", "oddcoset"):
        arity(1)
        q = int(p[0])
        return {"sym": cons.sym_code, "alt": cons.alt_code, "oddcoset": cons.odd_coset_code}[fam](q)
    if fam == "prod":
        arity(2)
        return cons.product_code(read_code(p[0]), int(p[1]))
    if fam == "parity":
        arity(2)
        return cons.parity_code(int(p[0]), int(p[1]), "odd" if args.odd else "even")
    if fam == "rep":
        arity(2)
        return cons.rep_code(int(p[0]), int(p[1]))
    if fam == "union":
        arity(2)
        return cons.union_code(read_code(p[0]), read_code(p[1]))
    raise UsageError(f"unknown family {fam!r}")


def _provenance(args) -> list[str]:
    bits = [args.family] + list(args.params)
    if args.odd:
        bits.append("--odd")
    return ["family: " + " ".join(bits)]


_WREATH_RE = re.compile(r"wreath\(\s*diag-top\s*,\s*(\d+)\s*\)")


def _group_generators(spec: str, C: Code) -> list[Automorphism]:
    if spec == "diag-top":
        if C.m != C.q:
            raise UsageError(f"diag-top needs m == q, code has m={C.m} q={C.q}")
        return diag_top_generators(C.q)
    if spec == "full":
        return full_group_generators(C.m, C.q)
    match = _WREATH_RE.fullmatch(spec)
    if match:
        l = int(match.group(1))
        if C.m != l * C.q:
            raise UsageError(f"wreath(diag-top,{l}) needs m == {l}*q, code has m={C.m} q={C.q}")
        return wreath_generators(C.q, l)
    group = read_group(spec)
    if group.m != C.m or group.q != C.q:
        raise UsageError(f"group file is for H({group.m},{group.q}), code is in H({C.m},{C.q})")
    return list(group.generators)


def _dispatch(args) -> int:
    if args.command == "construct":
        code = _construct(args)
        write_code(args.output, code, header_comments=_provenance(args))
        print(f"wrote {args.output}: {len(code)} words in H({code.m},{code.q})")
        return 0

    if args.command == "mindist":
        print(min_distance(read_code(args.code_file)))
        return 0

    if args.command == "covering-radius":
        print(covering_radius(read_code(args.code_file)))
        return 0

    if args.command == "neighbours":
        code = read_code(args.code_file)
        nb = neighbour_set(code)
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(format_vertex_set(sorted(nb), code.m, code.q))
        print(f"wrote {args.output}: {len(nb)} vertices")
        return 0

    if args.command == "verify":
        code = read_code(args.code_file)
        gens = _group_generators(args.group, code)
        report = verify_elusive(code, gens, enum_cap=args.enum_cap)
        sys.stdout.write(format_report(report))
        if args.output:
            write_report(args.output, report)
        if args.expect == "elusive" and not report.is_elusive:
            return 1
        if args.expect == "not-elusive" and report.is_elusive:
            return 1
        return 0

    if args.command == "search":
        cert = search_elusive(
            args.m,
            args.q,
            args.delta,
            parity_filter=not args.no_parity_filter,
            max_size=args.max_size,
        )
        sys.stdout.write(format_certificate(cert))
        if args.output:
            write_certificate(args.output, cert)
        return 3 if cert.outcome == "Aborted" else 0

    if args.command == "lemmas":
        checks = lemmas.SUITES[args.suite](seed=args.seed)
        failed = 0
        for name, ok, detail in checks:
            if ok:
                print(f"PASS {name}")
            else:
                failed += 1
                print(f"FAIL {name}: {detail}")
        return 1 if failed else 0

    raise UsageError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return _dispatch(args)
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


run = main

if __name__ == "__main__":
    sys.exit(main())
