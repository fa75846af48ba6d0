"""Command-line interface.

Exit codes: 0 when the requested check passes overall, 1 when at least one
verdict fails, 2 for anything else (inapplicable results, usage errors,
malformed input). Malformed input never produces a traceback. Every report,
including the one of `dsl check`, is built by structures.check_definition;
this module prints and saves them.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from .bundle import AlgebraBundle
from .catalog import entries as catalog_entries
from .catalog import get_entry, sample_points, summary_table, verify_all
from .construct import (
    TwistSpec,
    derivation_tbp,
    np_commutator,
    pre_lie_from_derivation,
    tensor_bundle,
    ternary_from_derivation,
    ternary_from_involution,
    ternary_from_product,
    yau_twist,
)
from .errors import BihomError
from .fileio import canonical_json, load_bundle, load_identity_file, save_bundle, save_report
from .rng import SplitRng
from .structures import SUITES, Report, StructureDef, check_definition, check_power_suite
from .structures import check_structure, check_suite


def _color_enabled() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _mark(status: str) -> str:
    if _color_enabled():
        color = {"pass": "\x1b[32m", "fail": "\x1b[31m", "inapplicable": "\x1b[33m"}[status]
        return f"{color}{status.upper()}\x1b[0m"
    return status.upper()


def _print_report(report: Report) -> None:
    print(f"bundle {report.bundle} | {report.structure} | mode {report.mode}")
    for v in report.verdicts:
        line = f"  {v.identity:32s} {_mark(v.status)}"
        if v.reason:
            line += f"  ({v.reason})"
        print(line)
        if v.counterexample is not None:
            ce = v.counterexample
            print(f"      at basis tuple {ce.basis_tuple}, residual {list(ce.residual)}")
            if ce.point:
                shown = ", ".join(f"{k}={v}" for k, v in ce.point.items())
                print(f"      point {shown}")
    for note in report.notes:
        print(f"  note: {note}")
    print(f"  overall: {_mark(report.overall)}")


def _exit_code(overall: str) -> int:
    return {"pass": 0, "fail": 1}.get(overall, 2)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    bundle = load_bundle(args.bundle)
    if args.mode == "sampled":
        cases = sample_points(bundle, args.samples, SplitRng(args.seed).child("points"))
        report = check_structure(args.structure, bundle, "sampled", cases, seed=args.seed)
    else:
        report = check_structure(args.structure, bundle, "symbolic")
    return _finish(report, args.report, bundle)


def cmd_identities(args) -> int:
    bundle = load_bundle(args.bundle)
    if args.set == "lemma31":
        exps = None
        if args.exponents:
            exps = [_parse_exponents(e) for e in args.exponents]
        report = check_power_suite(bundle, exps, seed=args.seed)
    else:
        report = check_suite(args.set, bundle)
    return _finish(report, args.report, bundle)


def _finish(report: Report, path, bundle: AlgebraBundle) -> int:
    """Print the report, save it to path if one is given, and return the
    exit code."""
    _print_report(report)
    if path:
        save_report(report, path, bundle.content_hash())
    return _exit_code(report.overall)


def _parse_exponents(text: str) -> tuple:
    try:
        values = [int(x) for x in text.split(",")]
    except ValueError:
        values = []
    if len(values) != 8:
        raise BihomError(f"bad exponent tuple {text!r} (want eight integers m,n,l,s,p,q,k,t)")
    return tuple(values)


def _parse_twist(value: str) -> TwistSpec:
    # e.g. "mul=a,b" or "br=a^2,b^-1"
    if "=" not in value:
        raise BihomError(f"bad twist spec {value!r} (want op=map[,map...])")
    op_name, slots_text = value.split("=", 1)
    slots = []
    for piece in slots_text.split(","):
        piece = piece.strip()
        if "^" in piece:
            name, power = piece.split("^", 1)
            try:
                slots.append((name, int(power)))
            except ValueError:
                raise BihomError(f"bad power in twist spec {value!r}") from None
        else:
            slots.append((piece, 1))
    return TwistSpec(op_name.strip(), tuple(slots))


def _twist(bundle, args, require):
    if not args.twist:
        raise BihomError("twist needs at least one --op spec, e.g. --op mul=a,b")
    return yau_twist(bundle, [_parse_twist(v) for v in args.twist], require=require)


# `construct KIND`: the builder of each kind, called as (bundle, args, require)
CONSTRUCTIONS = {
    "derivation-tbp": lambda b, args, require: derivation_tbp(
        b, args.derivation, args.map_a, args.map_b, require=require
    ),
    "pre-lie": lambda b, args, require: pre_lie_from_derivation(
        b, args.derivation, args.map_a, args.map_b, require=require
    ),
    "np-commutator": lambda b, args, require: np_commutator(b, require=require),
    "ternary-d": lambda b, args, require: ternary_from_derivation(
        b, args.derivation, require=require
    ),
    "ternary-f": lambda b, args, require: ternary_from_involution(
        b, args.involution, require=require
    ),
    "ternary-m": lambda b, args, require: ternary_from_product(b, require=require),
    "twist": _twist,
}


def cmd_construct(args) -> int:
    bundle = load_bundle(args.bundle)
    out = CONSTRUCTIONS[args.kind](bundle, args, not args.allow_hypothesis_failures)
    return _save_construction(out, args.output)


def cmd_tensor(args) -> int:
    a = load_bundle(args.left)
    b = load_bundle(args.right)
    return _save_construction(tensor_bundle(a, b, args.kind), args.output)


def _save_construction(out: AlgebraBundle, path) -> int:
    save_bundle(out, path)
    prov = out.provenance or {}
    for w in prov.get("warnings", ()):
        print(f"warning: {w}", file=sys.stderr)
    if prov.get("invol_compat") is not None:
        print(f"ternary compatibility condition: {prov['invol_compat']}")
    print(f"wrote {path}")
    return 0


def cmd_catalog(args) -> int:
    if args.action == "list":
        print("entry  case  params        status")
        print("-----  ----  ------------  -------------")
        for entry_id in sorted(catalog_entries()):
            e = catalog_entries()[entry_id]
            params = ",".join(e.bundle.ring.params)
            print(f"{entry_id:5d}  {e.case:4s}  {params:12s}  {e.status}")
        return 0
    if args.action == "show":
        print(canonical_json(get_entry(args.entry).to_dict()), end="")
        return 0
    # verify
    ids = _parse_entry_range(args.entries) if args.entries else None
    reports = verify_all(args.mode, samples=args.samples, seed=args.seed, ids=ids)
    print(summary_table(reports))
    if args.report:
        payload = {
            "tool_version": __version__,
            "mode": args.mode,
            "seed": args.seed,
            "reports": [r.to_dict() for r in reports],
        }
        Path(args.report).write_text(canonical_json(payload), encoding="utf-8")
    failing = [
        r for r in reports
        if get_entry(int(r.bundle.replace("entry", ""))).status == "asserted-pass"
        and r.overall != "pass"
    ]
    return 1 if failing else 0


def _parse_entry_range(text: str) -> list:
    out = []
    try:
        for piece in text.split(","):
            piece = piece.strip()
            if "-" in piece:
                lo, hi = (int(end) for end in piece.split("-", 1))
                if lo > hi:
                    raise ValueError(piece)
                out.extend(range(lo, hi + 1))
            else:
                out.append(int(piece))
    except ValueError:
        raise BihomError(
            f"bad entry list {text!r} (want a range like 24-26 or a list like 1,5,7)"
        ) from None
    return out


def cmd_dsl(args) -> int:
    bundle = load_bundle(args.bundle)
    laws = load_identity_file(args.idl_file)
    defn = StructureDef(f"dsl:{Path(args.idl_file).name}", tuple(laws.items()))
    report = check_definition(defn, bundle)
    _print_report(report)
    return _exit_code(report.overall)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bihomcheck",
        description="Exact verification of twisted multilinear algebra structures.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run a named structure's axiom checks on a bundle")
    p.add_argument("bundle")
    p.add_argument("--structure", required=True)
    p.add_argument("--mode", choices=("symbolic", "sampled"), default="symbolic")
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", help="write the report as JSON to this path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("identities", help="run one of the named identity suites")
    p.add_argument("bundle")
    p.add_argument(
        "--set",
        required=True,
        choices=(*SUITES, "lemma31"),
    )
    p.add_argument(
        "--exponents",
        action="append",
        help="exponent tuple m,n,l,s,p,q,k,t for the lemma31 templates "
        "(repeatable; use --exponents=-2,0,... when the first value is negative)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report")
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("construct", help="apply a construction to a bundle")
    p.add_argument("kind", choices=tuple(CONSTRUCTIONS))
    p.add_argument("bundle")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--derivation", default="D", help="name of the derivation map")
    p.add_argument("--involution", default="f", help="name of the involution map")
    p.add_argument("--map-a", default="a")
    p.add_argument("--map-b", default="b")
    p.add_argument(
        "--op",
        dest="twist",
        action="append",
        help="twist spec op=map[,map...], powers allowed (e.g. br=a,b^-1)",
    )
    p.add_argument(
        "--allow-hypothesis-failures",
        action="store_true",
        help="record violated hypotheses as warnings instead of refusing",
    )
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("tensor", help="tensor product of two bundles")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--kind", required=True, choices=("bp-tbp", "pre-lie-poisson"))
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("catalog", help="list, show or verify the shipped catalog")
    catalog_sub = p.add_subparsers(dest="action", required=True)
    pl = catalog_sub.add_parser("list")
    pl.set_defaults(func=cmd_catalog, action="list")
    ps = catalog_sub.add_parser("show")
    ps.add_argument("entry", type=int)
    ps.set_defaults(func=cmd_catalog, action="show")
    pv = catalog_sub.add_parser("verify")
    pv.add_argument("--entries", help="range like 24-26 or list like 1,5,7")
    pv.add_argument("--mode", choices=("symbolic", "sampled"), default="symbolic")
    pv.add_argument("--samples", type=int, default=5)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--report")
    pv.set_defaults(func=cmd_catalog, action="verify")

    p = sub.add_parser("dsl", help="check identities from a .idl file on a bundle")
    dsl_sub = p.add_subparsers(dest="action", required=True)
    pc = dsl_sub.add_parser("check")
    pc.add_argument("idl_file")
    pc.add_argument("bundle")
    pc.set_defaults(func=cmd_dsl)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep both
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (BihomError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
