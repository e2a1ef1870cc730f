"""Command line interface: compute, defects, construct, verify, betti.

Exit codes: 0 success, 1 verification mismatch, 2 parse/usage errors,
3 standing-hypothesis violations (zero or unit ideal, vanishing power).
"""
from __future__ import annotations

import argparse
import json
import sys

from .betti import betti_table
from .families import FamilySpec, NoClosedFormError, build, supported_predictions, verify
from .modules import NEG_INF
from .regfun import InputError, StandingHypothesisError, defect_report
from .specfile import ParseError, parse_spec, serialize

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3

_FN_BY_FLAG = {
    "reg": "reg_power",
    "regquot": "reg_quotient",
    "regdiff": "reg_diff",
    "sdeg": "sdeg",
    "gendeg": "gen_degree",
}


def _encode_value(v):
    return "-inf" if v == NEG_INF else v


def _report_rows(report):
    rows = []
    for offset, value in enumerate(report.values):
        n = report.n_from + offset
        defect = None if report.defects is None else report.defects[offset]
        rows.append((n, value, defect))
    return rows


def _emit_csv(report, out):
    out.write("n,value,defect\n")
    for n, value, defect in _report_rows(report):
        defect_cell = "" if defect is None else str(defect)
        out.write(f"{n},{_encode_value(value)},{defect_cell}\n")


def _emit_json(report, out):
    payload = {
        "function": report.function,
        "slope": report.slope,
        "values": [
            {"n": n, "value": _encode_value(value), "defect": defect}
            for n, value, defect in _report_rows(report)
        ],
        "stable_suffix_length": report.stable_suffix_length,
    }
    out.write(json.dumps(payload, sort_keys=True) + "\n")


def _load_spec(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read())


def _int_list(flag: str, text):
    """A comma-separated list of ASCII-digit integers, or None when the flag is absent."""
    if not text:
        return None
    items = text.split(",")
    for item in items:
        if not (item.isascii() and item.isdigit()):
            raise InputError(f"--{flag} must be comma-separated non-negative integers, got {item!r}")
    return tuple(map(int, items))


def _family_spec(args) -> FamilySpec:
    c, e = _int_list("c", args.c), _int_list("e", args.e)
    return FamilySpec(args.family, d=args.d, c=c, e=e, r=args.r, t=args.t)


def _cmd_compute(args, out):
    presented = _load_spec(args.input)
    report = defect_report(presented, _FN_BY_FLAG[args.fn], args.n_from, args.n_to)
    if args.format == "json":
        _emit_json(report, out)
    else:
        _emit_csv(report, out)
    return EXIT_OK


def _cmd_construct(args, out):
    spec = _family_spec(args)
    presented = build(spec)
    text = serialize(presented)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        out.write(text)
    return EXIT_OK


def _cmd_verify(args, out):
    spec = _family_spec(args)
    functions = [_FN_BY_FLAG[args.fn]] if args.fn else list(supported_predictions(spec))
    if not functions:
        raise InputError(f"family {spec.family!r} has no closed forms to verify")
    status = EXIT_OK
    for fn in functions:
        report = verify(spec, fn, args.n_from, args.n_to)
        for row in report.rows:
            flag = "ok" if row.ok else "MISMATCH"
            out.write(f"{fn},{row.n},{row.engine},{row.predicted},{flag}\n")
        if not report.ok:
            status = EXIT_MISMATCH
    return status


def _cmd_betti(args, out):
    presented = _load_spec(args.input)
    module = presented.module_of(args.module, args.power)
    table = betti_table(module)
    if args.format == "json":
        payload = {
            "search_bound": table.search_bound,
            "entries": [
                {"i": i, "j": j, "value": b}
                for (i, j), b in sorted(table.entries.items())
            ],
        }
        out.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        out.write("i,j,betti\n")
        for (i, j), b in sorted(table.entries.items()):
            out.write(f"{i},{j},{b}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regpow",
        description="Regularity and saturation-degree functions of powers of monomial ideals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fn(p, required=True):
        p.add_argument("--fn", choices=sorted(_FN_BY_FLAG), required=required)

    def add_range(p, with_from=True):
        if with_from:
            p.add_argument("--from", dest="n_from", type=int, default=1)
        p.add_argument("--to", dest="n_to", type=int, required=True)

    def add_format(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    def add_family(p):
        p.add_argument("--family", required=True)
        p.add_argument("--d", type=int)
        p.add_argument("--c")
        p.add_argument("--e")
        p.add_argument("--r", type=int)
        p.add_argument("--t", type=int)

    # `defects` is `compute` without --from: its window starts at n = 1.
    for name, help_text, with_from in (
        ("compute", "values and defects of one power function", True),
        ("defects", "defect sequence from n = 1", False),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True)
        add_fn(p)
        add_range(p, with_from)
        add_format(p)
        p.set_defaults(handler=_cmd_compute, n_from=1)

    p = sub.add_parser("construct", help="materialize a built-in family instance")
    add_family(p)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("verify", help="engine values against family closed forms")
    add_family(p)
    add_fn(p, required=False)
    add_range(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("betti", help="Betti table of one power module")
    p.add_argument("--input", required=True)
    p.add_argument("--module", choices=("power", "quotient", "diff"), required=True)
    p.add_argument("--power", type=int, required=True)
    add_format(p)
    p.set_defaults(handler=_cmd_betti)
    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, out)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except StandingHypothesisError as exc:
        print(f"input violates standing hypotheses: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (InputError, NoClosedFormError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
