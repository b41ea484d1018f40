"""Command-line frontend.

Subcommands map one-to-one onto the engine entry points:

  dim-secant         projective dimension of sigma_R(X)
  dim-hadamard       dimension of sigma_{r_1}(X) * ... * sigma_{r_m}(X)
  generic-hrank      smallest m with sigma_r(X)^(*m) = P^N
  verify-table       re-run a stored check table, pass/fail per row
  degeneration-demo  exact-rational verification of the scaling family
  binomial-check     Newton-polytope segment test for a support file

Exit codes: 0 when every reported check passes (for dimension queries: the
result is certified, not merely probabilistic), 1 when any check fails, 2 on
usage errors and out of memory.  Identical inputs produce byte-identical
reports; JSON carries a top-level `schema` field, CSV column order is frozen.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from dataclasses import fields
from fractions import Fraction

from .config import RunConfig
from .degeneration import DEFAULT_NUS, demo_points, limit_check
from .exponent import HadamardSpec, VarietyDescriptor, normalize, read_matrix_csv
from .hadamdim import (
    STATUS_EXPECTED,
    STATUS_FOUND,
    STATUS_INFINITE,
    generic_hrank,
    hadamard_dimension,
)
from .secantdim import STATUS_NONDEFECTIVE, secant_dimension
from .tables import TableRow, run_table
from .tropical import VERDICT_BINOMIAL, Support, classify_support

SCHEMA_VERSION = 1

_INT = re.compile(r"-?\d+")


class DescriptorError(ValueError):
    """Malformed variety descriptor; carries the offending position."""

    def __init__(self, text: str, pos: int, message: str):
        self.text = text
        self.pos = pos
        super().__init__(f"descriptor {text!r}: {message} (at position {pos})")


def _int_at(text: str, pos: int) -> tuple[int, int]:
    m = _INT.match(text, pos)
    if not m:
        raise DescriptorError(text, pos, "expected an integer")
    return int(m.group()), m.end()


# kind -> (fields as (literal before it, is a list), checks as (test on the
# field values, message), constructor called with the field values)
_GRAMMAR = {
    "veronese": ((("d=", False), (",n=", False)),
                 ((lambda d, n: min(d, n) >= 1, "d and n must be >= 1"),),
                 VarietyDescriptor.veronese),
    "segre": ((("n=", True),),
              ((lambda n: min(n) >= 1, "factor dimensions must be >= 1"),),
              VarietyDescriptor.segre),
    "sv": ((("d=", True), (";n=", True)),
           ((lambda d, n: len(d) == len(n), "d and n must have equal lengths"),
            (lambda d, n: min(d + n) >= 1, "all entries must be >= 1")),
           VarietyDescriptor.segre_veronese),
    "rnc": ((("", False),), ((lambda d: d >= 1, "degree must be >= 1"),),
            VarietyDescriptor.rnc),
}


def parse_descriptor(text: str) -> VarietyDescriptor:
    """Parse the descriptor grammar.

    veronese:d=<int>,n=<int> | segre:n=<ints> | sv:d=<ints>;n=<ints>
    | rnc:<int> | matrix:<path>
    """
    head, sep, _ = text.partition(":")
    if not sep:
        raise DescriptorError(text, len(text), "expected ':' after the kind")
    pos = len(head) + 1
    if head == "matrix":
        path = text[pos:]
        if not path:
            raise DescriptorError(text, pos, "expected a file path")
        return VarietyDescriptor.custom(read_matrix_csv(path), label=text)
    if head not in _GRAMMAR:
        raise DescriptorError(text, 0, f"unknown kind {head!r}")
    grammar, checks, make = _GRAMMAR[head]
    values = []
    for k, (literal, is_list) in enumerate(grammar):
        if not text.startswith(literal, pos):
            raise DescriptorError(text, pos, f"expected {literal!r}")
        value, pos = _int_at(text, pos + len(literal))
        items = [value]
        # A comma without an integer after it ends a list that another
        # field follows, so the error names that field's literal.
        last = k == len(grammar) - 1
        while is_list and text.startswith(",", pos) and (last or _INT.match(text, pos + 1)):
            value, pos = _int_at(text, pos + 1)
            items.append(value)
        values.append(tuple(items) if is_list else value)
    if pos != len(text):
        raise DescriptorError(text, pos, "unexpected trailing text")
    for test, message in checks:
        if not test(*values):
            raise DescriptorError(text, pos, message)
    return make(*values)


def _r_vector(text: str) -> tuple[int, ...]:
    try:
        vals = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated integer list")
    if not vals or any(v < 1 for v in vals):
        raise argparse.ArgumentTypeError("every r_k must be a positive integer")
    return vals


def _fraction_list(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(x) for x in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated fraction list")


# --- output plumbing ---------------------------------------------------------


def _key(name: str) -> str:
    return "pass" if name == "passed" else name


def _plain(value):
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    return value


def report_dict(report) -> dict:
    """The one serialisation of every report dataclass: its fields in
    declaration order, tuples as lists, Fractions as strings, and
    `TableRow.passed` under the key "pass"."""
    return {_key(f.name): _plain(getattr(report, f.name)) for f in fields(report)}


def _json_doc(payload: dict) -> str:
    return json.dumps({"schema": SCHEMA_VERSION, **payload}, sort_keys=True, indent=2) + "\n"


def _cell(value):
    """One report value as a CSV or text cell: a boolean as true/false, None
    as an empty cell, a list as its items joined by commas (`2,2`), and a
    list of lists as its inner lists joined by colons, those by commas
    (`1:9,2:14,3:15`)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ",".join(":".join(map(str, v)) if isinstance(v, (list, tuple))
                        else str(v) for v in value)
    return "" if value is None else value


def _csv_doc(columns, rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(row[c]) for c in columns])
    return buf.getvalue()


def _text_doc(payload: dict) -> str:
    width = max(len(k) for k in payload)
    return "".join(f"{k.ljust(width)}  {_cell(payload[k])}".rstrip() + "\n"
                   for k in payload)


def _emit(doc: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(doc)
    else:
        sys.stdout.write(doc)


def _render_report(report, fmt: str) -> str:
    payload = report_dict(report)
    if fmt == "json":
        return _json_doc(payload)
    if fmt == "csv":
        return _csv_doc(list(payload.keys()), [payload])
    return _text_doc(payload)


def _output_format(args) -> str:
    """--format, checked against the formats the command declares
    (`set_defaults`), or the first of them when it is not given."""
    if args.format is None:
        return args.formats[0]
    if args.format not in args.formats:
        raise ValueError(f"{args.command} writes {' or '.join(args.formats)}, not {args.format}")
    return args.format


def _config_from(args) -> RunConfig:
    return RunConfig(prime=args.prime, seed=args.seed)


# --- subcommands --------------------------------------------------------------


# probe command -> (its engine, the statuses that exit 0).  The engine is
# named and looked up when the command runs, so that a wrapper bound over
# this module's name in the meantime (perfbench's trace) sees the call.
_PROBES = {
    "dim-secant": ("secant_dimension", (STATUS_NONDEFECTIVE,)),
    "dim-hadamard": ("hadamard_dimension", (STATUS_EXPECTED,)),
    "generic-hrank": ("generic_hrank", (STATUS_FOUND, STATUS_INFINITE)),
}


def _cmd_probe(args) -> int:
    engine, certified = _PROBES[args.command]
    rep = globals()[engine](parse_descriptor(args.descriptor), args.r, _config_from(args))
    _emit(_render_report(rep, args.format), args.out)
    return 0 if rep.status in certified else 1


def _cmd_verify_table(args) -> int:
    rows = run_table(args.table, _config_from(args), extended=args.extended)
    dicts = [report_dict(row) for row in rows]
    if args.format == "json":
        doc = _json_doc(
            {
                "table": args.table,
                "extended": args.extended,
                "rows": dicts,
                "n_rows": len(dicts),
                "n_pass": sum(d["pass"] for d in dicts),
                "all_pass": all(d["pass"] for d in dicts),
            }
        )
    elif args.format == "csv":
        doc = _csv_doc([_key(f.name) for f in fields(TableRow)], dicts)
    else:
        lines = [
            "{descriptor}  r=({r})  computed={computed_dim}  "
            "expected={expected_dim}  {outcome}".format(
                outcome="pass" if d["pass"] else "FAIL",
                **{**d, "r": _cell(d["r"])},
            )
            for d in dicts
        ]
        n_pass = sum(d["pass"] for d in dicts)
        lines.append(f"{n_pass}/{len(dicts)} rows pass")
        doc = "\n".join(lines) + "\n"
    _emit(doc, args.out)
    return 0 if all(d["pass"] for d in dicts) else 1


def _cmd_degeneration_demo(args) -> int:
    desc = parse_descriptor(args.descriptor)
    abar = normalize(desc.matrix())
    spec = HadamardSpec(args.r)
    points = demo_points(abar, spec, args.seed, nus=args.nus)
    rep = limit_check(abar, spec, points, args.nus, label=str(desc))
    if args.format == "json":
        _emit(_json_doc(report_dict(rep)), args.out)
        return 0 if rep.all_pass else 1
    lines = [
        f"degeneration check: {rep.descriptor}  r={spec}  R={spec.total_points}",
        "",
        f"  {'nu':>8}  {'max |M(nu) - limit|':>22}  {'ratio':>8}",
    ]
    for i, nu in enumerate(rep.nus):
        ratio = f"{float(rep.error_ratios[i - 1]):8.2f}" if i else " " * 8
        lines.append(f"  {str(nu):>8}  {float(rep.max_errors[i]):22.3e}  {ratio}")
    band = f"[{rep.ratio_band[0]}, {rep.ratio_band[1]}]"
    checks = [
        ("first row of M(nu) == all-ones, exactly", rep.row0_exact_ok),
        (f"error ratios within {band}", rep.first_order_ok),
        (f"limit rows span the secant rows (rank {rep.secant_rank})", rep.rowspan_ok),
        ("rank semicontinuity at smallest nu", rep.semicontinuity_ok),
    ]
    label_w = max(len(lbl) for lbl, _ in checks)
    lines += [
        "",
        *(f"  {lbl.ljust(label_w)}  {_pf(ok)}" for lbl, ok in checks),
        f"  product rank {rep.limit_kr_rank} => dimension >= {rep.dim_lower_bound}",
        "",
        json.dumps(
            {
                "schema": SCHEMA_VERSION,
                "all_pass": rep.all_pass,
                "dim_lower_bound": rep.dim_lower_bound,
            },
            sort_keys=True,
        ),
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if rep.all_pass else 1


def _pf(ok: bool) -> str:
    return "pass" if ok else "FAIL"


def _read_support(source: str) -> Support:
    if source == "-":
        raw = sys.stdin.read()
    else:
        with open(source) as fh:
            raw = fh.read()
    vectors = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            vectors.append(tuple(int(x) for x in body.replace(",", " ").split()))
        except ValueError:
            raise ValueError(f"{source}:{lineno}: non-integer entry")
    if not vectors:
        raise ValueError(f"{source}: empty support")
    return Support.of(vectors)


def _cmd_binomial_check(args) -> int:
    support = _read_support(args.support)
    verdict = classify_support(support)
    payload = {
        "verdict": verdict,
        "binomial": verdict == VERDICT_BINOMIAL,
        "n_vectors": support.size,
    }
    if args.format == "json":
        _emit(_json_doc(payload), args.out)
    else:
        _emit(f"{verdict} ({support.size} support vectors)\n", args.out)
    return 0 if verdict == VERDICT_BINOMIAL else 1


# --- parser -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    # The options of the F_p rank probes, for the commands that run them.
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--prime", type=int, default=RunConfig().prime,
                       help="modulus for the rank probes "
                            "(probable prime between 2^16 and 2^64)")
    probe.add_argument("--seed", type=int, default=RunConfig().seed,
                       help="base seed; draw i of a probe uses seed + i")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("json", "csv", "text"), default=None,
                        help="output format (default: json; verify-table: csv; "
                             "degeneration-demo, binomial-check: text, and no "
                             "csv)")
    output.add_argument("--out", metavar="FILE", default=None,
                        help="write the report to FILE instead of stdout")
    probing = [probe, output]
    # Each command's output formats, its default first.
    every_format, no_csv = ("json", "csv", "text"), ("text", "json")

    parser = argparse.ArgumentParser(
        prog="toricdim",
        description="dimensions of secant varieties and Hadamard products "
                    "of embedded toric varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim-secant", parents=probing,
                       help="projective dimension of sigma_R(X)")
    p.add_argument("descriptor", help="variety descriptor, e.g. veronese:d=4,n=2")
    p.add_argument("--r", type=int, required=True, metavar="R", dest="r",
                   help="secant index R >= 1")
    p.set_defaults(handler=_cmd_probe, formats=every_format)

    p = sub.add_parser("dim-hadamard", parents=probing,
                       help="dimension of a Hadamard product of secant varieties")
    p.add_argument("descriptor")
    p.add_argument("--r", type=_r_vector, required=True, metavar="R1,R2,...",
                   help="factor indices, e.g. 2,2,2,2")
    p.set_defaults(handler=_cmd_probe, formats=every_format)

    p = sub.add_parser("generic-hrank", parents=probing,
                       help="generic Hadamard rank: smallest filling power of sigma_r")
    p.add_argument("descriptor")
    p.add_argument("--r", type=int, required=True, metavar="R",
                   help="inner secant index r")
    p.set_defaults(handler=_cmd_probe, formats=every_format)

    p = sub.add_parser("verify-table", parents=probing,
                       help="re-run a stored check table")
    p.add_argument("table", choices=("veronese", "binary", "experiments"))
    p.add_argument("--extended", action="store_true",
                   help="experiments only: the full (slow) sweep")
    p.set_defaults(handler=_cmd_verify_table, formats=("csv", "json", "text"))

    p = sub.add_parser("degeneration-demo", parents=[output],
                       help="exact-rational verification of the scaling degeneration")
    p.add_argument("--descriptor", default="rnc:8",
                   help="variety to verify on (default rnc:8)")
    p.add_argument("--r", type=_r_vector, default=(2, 3), metavar="R1,R2,...",
                   help="factor indices (default 2,3)")
    p.add_argument("--nus", type=_fraction_list, default=DEFAULT_NUS,
                   metavar="F1,F2,...",
                   help="two or more strictly decreasing scale values "
                        "(default 1/10,1/100,1/1000)")
    p.add_argument("--seed", type=int, default=RunConfig().seed,
                   help="seed of the demo point draw")
    p.set_defaults(handler=_cmd_degeneration_demo, formats=no_csv)

    p = sub.add_parser("binomial-check", parents=[output],
                       help="is a polynomial support a binomial segment?")
    p.add_argument("support",
                   help="file of integer exponent vectors, one per line ('-' = stdin)")
    p.set_defaults(handler=_cmd_binomial_check, formats=no_csv)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.format = _output_format(args)
        return args.handler(args)
    except (DescriptorError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # which carries no text of its own
        print("error: out of memory: the query's matrices do not fit", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
