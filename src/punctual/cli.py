"""Command line front end.

Subcommands: analyze (local invariants of one ideal), verify (identity
checks for one ideal), census and sweep (partition sweeps over a range of
colengths), sample (randomized trials over a prime field).  Output is
byte-identical for identical invocations; exit codes are 0 success,
2 parse or configuration error, 3 not zero-dimensional, 4 check failure.

Importing this module loads the engine that analyze runs, and verify and
staircase too, since perfbench/tracer.py wraps only the functions of
modules loaded by then.  The json and csv writers are imported by the
output formats that use them.
"""

from __future__ import annotations

import argparse
import functools
import io
import os
import sys

from .artinian import analyze_quotient, quotient_basis
from .errors import ConfigError, LemmaViolation, NotZeroDimensional, ParseError
from .fields import PrimeField, element_text, parse_field
from .groebner import buchberger
from .poly import MonomialOrder, parse_generators
from .staircase import distinct_part_table, socle_bound
from .verify import (
    SamplerConfig,
    check_degeneration,
    check_multiplicity_formula,
    check_socle_identity,
    check_staircase_bound,
    format_table,
    random_ideal_trials,
    socle_census,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_ZERO_DIMENSIONAL = 3
EXIT_CHECK_FAILED = 4

FIELD_ENV_VAR = "PUNCTUAL_FIELD"

# census and sweep refuse larger n up front: one table to n = 1000 takes
# about 0.5 s on a 2-core VM, and the cross-check runs the engine on every
# partition of n (``sweep --n 1..1000 --crosscheck-cutoff 12`` about 4 s)
MAX_RANGE_HI = 1000
MAX_CROSSCHECK_CUTOFF = 12


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="punctual",
        description="Exact local invariants of zero-dimensional ideals in k[x,y].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    def add_ideal_options(p):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--ideal", help="comma-separated generators, e.g. 'y - x^2, x^3'")
        source.add_argument("--file", help="file with one generator per line (commas also allowed)")
        p.add_argument(
            "--field",
            help=f"QQ or Fp:<prime>; default QQ, overridable via ${FIELD_ENV_VAR}",
        )
        p.add_argument("--order", choices=("lex", "deglex", "degrevlex"), default="degrevlex")
        p.add_argument("--vars", choices=("xy", "yx"), default="xy", help="variable precedence")

    analyze = sub.add_parser("analyze", help="local invariants of one ideal")
    add_ideal_options(analyze)
    add_format(analyze)

    verify = sub.add_parser("verify", help="identity checks for one ideal")
    add_ideal_options(verify)
    add_format(verify)

    census = sub.add_parser("census", help="partition census by socle dimension")
    census.add_argument("--n", required=True, help="range lo..hi, or a single n")
    add_format(census)

    sweep = sub.add_parser("sweep", help="staircase bound sweep over a range of n")
    sweep.add_argument("--n", required=True, help="range lo..hi, or a single n")
    sweep.add_argument(
        "--crosscheck-cutoff",
        type=int,
        default=10,
        dest="crosscheck_cutoff",
        help="run the algebra engine against the combinatorics for n up to this value",
    )
    add_format(sweep)

    sample = sub.add_parser("sample", help="randomized trials over a prime field")
    sample.add_argument("--field", help="Fp:<prime>, default Fp:32003")
    sample.add_argument("--degree", type=int, default=3)
    sample.add_argument("--count", type=int, default=100)
    sample.add_argument("--seed", type=int, required=True)
    add_format(sample)
    return parser


def _resolve_field(flag_value: str | None, default_spec: str):
    spec = flag_value or os.environ.get(FIELD_ENV_VAR) or default_spec
    return parse_field(spec)


def _read_ideal_text(args) -> str:
    if args.ideal is not None:
        return args.ideal
    try:
        with open(args.file, encoding="utf-8") as handle:
            content = handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{args.file} is not UTF-8 text: {exc}") from None
    lines = [line.strip() for line in content.splitlines()]
    lines = [line for line in lines if line]
    if not lines:
        raise ParseError(f"no generators in {args.file}")
    return ", ".join(lines)


def _parse_range(text: str) -> tuple[int, int]:
    body = text.strip()
    if ".." in body:
        lo_text, _, hi_text = body.partition("..")
    else:
        lo_text = hi_text = body
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise ConfigError(f"bad range {text!r}; expected lo..hi") from None
    if not 1 <= lo <= hi:
        raise ConfigError(f"range {text!r} must satisfy 1 <= lo <= hi")
    if hi > MAX_RANGE_HI:
        raise ConfigError(f"range {text!r} exceeds the limit n <= {MAX_RANGE_HI}")
    return lo, hi


def _emit(payload: dict, fmt: str, text_renderer, csv_renderer) -> None:
    if fmt == "json":
        import json

        print(json.dumps(payload, indent=2, sort_keys=True))
    elif fmt == "csv":
        print(csv_renderer(payload), end="")
    else:
        print(text_renderer(payload))


def _csv_string(header: list[str], rows: list[list]) -> str:
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _bool_csv(value: bool) -> str:
    return "true" if value else "false"


# ---------------------------------------------------------------- analyze

ANALYZE_CSV_COLUMNS = [
    "point_x",
    "point_y",
    "length",
    "nilpotency",
    "generators",
    "b1",
    "b2",
    "socle",
    "multiplicity",
    "multiplicity_le_length",
    "multiplicity_eq_length",
]


def _analyzed_ideal(args):
    """The ideal's text, reduced basis, printed basis and analysis, shared
    by analyze and verify."""
    coeff_field = _resolve_field(args.field, "QQ")
    text = _read_ideal_text(args)
    gb = buchberger(parse_generators(text, coeff_field), MonomialOrder(args.order, args.vars))
    # zero-dimensionality and colength first; then a basis too large to print
    # exits 2 before the split, which reuses this checked basis
    qb = quotient_basis(gb)
    basis = [str(g) for g in gb.generators]
    return text, gb, basis, analyze_quotient(gb, qb)


def _analyze_payload(args) -> dict:
    text, gb, basis, analysis = _analyzed_ideal(args)
    return {
        "command": "analyze",
        "ideal": text,
        "field": gb.field.label,
        "order": gb.order.label,
        "groebner_basis": basis,
        "colength": analysis.colength,
        "residual_dimension": analysis.residual_dimension,
        "components": [
            {
                "point": list(map(element_text, c.point)),
                "length": c.local_length,
                "nilpotency": c.nilpotency_index,
                "generators": c.generators,
                "b1": c.generators,
                "b2": c.socle,
                "socle": c.socle,
                "multiplicity": c.multiplicity,
                "multiplicity_le_length": c.multiplicity <= c.local_length,
                "multiplicity_eq_length": c.multiplicity == c.local_length,
            }
            for c in analysis.components
        ],
    }


def _analyze_text(payload: dict) -> str:
    lines = [
        f"ideal: {payload['ideal']}",
        f"field: {payload['field']}   order: {payload['order']}   "
        f"colength: {payload['colength']}   residual: {payload['residual_dimension']}",
        "groebner basis: " + "; ".join(payload["groebner_basis"]),
    ]
    if payload["components"]:
        rows = [
            {
                "point": f"({c['point'][0]}, {c['point'][1]})",
                "length": c["length"],
                "r": c["nilpotency"],
                "e": c["generators"],
                "b1": c["b1"],
                "b2": c["b2"],
                "socle": c["socle"],
                "mu": c["multiplicity"],
                "mu<=len": "yes" if c["multiplicity_le_length"] else "NO",
                "mu==len": "yes" if c["multiplicity_eq_length"] else "no",
            }
            for c in payload["components"]
        ]
        lines.extend(format_table(rows))
    else:
        lines.append("no rational support points")
    if payload["residual_dimension"]:
        lines.append(
            f"note: dimension {payload['residual_dimension']} is carried by "
            "non-rational points; no local invariants computed there"
        )
    return "\n".join(lines)


def _analyze_csv(payload: dict) -> str:
    rows = [
        [
            c["point"][0],
            c["point"][1],
            c["length"],
            c["nilpotency"],
            c["generators"],
            c["b1"],
            c["b2"],
            c["socle"],
            c["multiplicity"],
            _bool_csv(c["multiplicity_le_length"]),
            _bool_csv(c["multiplicity_eq_length"]),
        ]
        for c in payload["components"]
    ]
    return _csv_string(ANALYZE_CSV_COLUMNS, rows)


def _cmd_analyze(args) -> int:
    payload = _analyze_payload(args)
    _emit(payload, args.format, _analyze_text, _analyze_csv)
    return EXIT_OK


# ----------------------------------------------------------------- verify


def _cmd_verify(args) -> int:
    text, gb, _, analysis = _analyzed_ideal(args)
    reports = [
        check(text, gb, analysis)
        for check in (check_socle_identity, check_multiplicity_formula, check_degeneration)
    ]
    passed = all(r.passed for r in reports)
    payload = {
        "command": "verify",
        "ideal": text,
        "field": gb.field.label,
        "order": gb.order.label,
        "reports": [r.to_jsonable() for r in reports],
        "passed": passed,
    }

    def as_text(p: dict) -> str:
        verdict = "\nverdict: PASS" if p["passed"] else "\nverdict: FAIL"
        return "\n".join(r.to_text() for r in reports) + verdict

    def as_csv(p: dict) -> str:
        rows = []
        for report in p["reports"]:
            if report["rows"]:
                for row in report["rows"]:
                    detail = "; ".join(f"{k}={v}" for k, v in row.items() if k != "ok")
                    rows.append([report["check"], detail, _bool_csv(row.get("ok", True))])
            else:
                note = "; ".join(f"{k}={v}" for k, v in report["summary"].items())
                rows.append([report["check"], note, _bool_csv(report["passed"])])
        return _csv_string(["check", "case", "ok"], rows)

    _emit(payload, args.format, as_text, as_csv)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


# ----------------------------------------------------------- census/sweep


def _cmd_census(args) -> int:
    lo, hi = _parse_range(args.n)
    table = distinct_part_table(hi)
    results = []
    for n in range(lo, hi + 1):
        census = socle_census(n, table)
        results.append(
            {
                "n": n,
                "partition_count": census.partition_count,
                "counts": {str(k): v for k, v in census.counts.items()},
                "max_b2": census.max_attained,
                "bound": socle_bound(n),
                "passed": census.max_attained == socle_bound(n),
            }
        )
    passed = all(r["passed"] for r in results)
    payload = {"command": "census", "lo": lo, "hi": hi, "results": results, "passed": passed}

    def as_text(p: dict) -> str:
        lines = []
        for r in p["results"]:
            counts = " ".join(f"{k}:{v}" for k, v in r["counts"].items())
            verdict = "pass" if r["passed"] else "FAIL"
            lines.append(
                f"n={r['n']} partitions={r['partition_count']} max_b2={r['max_b2']} "
                f"bound={r['bound']} counts[{counts}] verdict={verdict}"
            )
        return "\n".join(lines)

    def as_csv(p: dict) -> str:
        rows = []
        for r in p["results"]:
            for b2, count in r["counts"].items():
                rows.append([r["n"], b2, count])
        return _csv_string(["n", "b2", "count"], rows)

    _emit(payload, args.format, as_text, as_csv)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_sweep(args) -> int:
    lo, hi = _parse_range(args.n)
    if args.crosscheck_cutoff < 0:
        raise ConfigError("--crosscheck-cutoff must be non-negative")
    if args.crosscheck_cutoff > MAX_CROSSCHECK_CUTOFF:
        raise ConfigError(
            f"--crosscheck-cutoff {args.crosscheck_cutoff} exceeds the limit {MAX_CROSSCHECK_CUTOFF}"
        )
    table = distinct_part_table(hi)
    results = []
    for n in range(lo, hi + 1):
        census = socle_census(n, table)
        report = check_staircase_bound(census, args.crosscheck_cutoff)
        summary = report.summary
        results.append(
            {
                "n": n,
                "partition_count": summary["partition_count"],
                "max_b2": summary["max_b2"],
                "bound": summary["bound"],
                "argmax": summary["argmax"],
                "attaining": summary["attaining"],
                "crosschecked": summary["crosschecked"],
                "census": {str(k): v for k, v in census.counts.items()},
                "passed": report.passed,
            }
        )
    passed = all(r["passed"] for r in results)
    payload = {"command": "sweep", "lo": lo, "hi": hi, "results": results, "passed": passed}

    def as_text(p: dict) -> str:
        lines = []
        for r in p["results"]:
            verdict = "pass" if r["passed"] else "FAIL"
            lines.append(
                f"n={r['n']} partitions={r['partition_count']} max_b2={r['max_b2']} "
                f"bound={r['bound']} argmax={r['argmax']} verdict={verdict}"
            )
        return "\n".join(lines)

    def as_csv(p: dict) -> str:
        rows = [
            [
                r["n"],
                r["partition_count"],
                r["max_b2"],
                r["bound"],
                r["argmax"],
                _bool_csv(r["passed"]),
            ]
            for r in p["results"]
        ]
        return _csv_string(["n", "partitions", "max_b2", "bound", "argmax", "passed"], rows)

    _emit(payload, args.format, as_text, as_csv)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


# ----------------------------------------------------------------- sample


def _cmd_sample(args) -> int:
    coeff_field = _resolve_field(args.field, "Fp:32003")
    if not isinstance(coeff_field, PrimeField):
        raise ConfigError(
            "sampling needs a prime field (Fp:<p>); rational sampling is unsupported "
            "because coefficient growth is unbounded"
        )
    cfg = SamplerConfig(
        prime=coeff_field.p, degree=args.degree, count=args.count, seed=args.seed
    )
    report = random_ideal_trials(cfg)
    payload = {
        "command": "sample",
        "report": report.to_jsonable(),
        "passed": report.passed,
    }

    def as_text(p: dict) -> str:
        summary = p["report"]["summary"]
        inputs = p["report"]["inputs"]
        lines = [
            f"field: {inputs['field']}   degree: {inputs['degree']}   seed: {inputs['seed']}",
            f"accepted: {summary['accepted']} of {summary['requested']} requested "
            f"({summary['draws']} draws)",
            f"socle identity: {summary['socle_identity_passes']}/{summary['accepted']}",
            f"multiplicity bound: {summary['multiplicity_bound_passes']}/{summary['accepted']}",
        ]
        if summary["histogram"]:
            histogram = " ".join(f"{k}:{v}" for k, v in summary["histogram"].items())
            lines.append(f"b2 histogram: {histogram}")
        lines.append("verdict: " + ("PASS" if p["passed"] else "FAIL"))
        return "\n".join(lines)

    def as_csv(p: dict) -> str:
        summary = p["report"]["summary"]
        rows = [
            ["requested", summary["requested"]],
            ["accepted", summary["accepted"]],
            ["draws", summary["draws"]],
            ["socle_identity_passes", summary["socle_identity_passes"]],
            ["multiplicity_bound_passes", summary["multiplicity_bound_passes"]],
        ]
        for k, v in summary["histogram"].items():
            rows.append([f"histogram_b2_{k}", v])
        rows.append(["passed", _bool_csv(p["passed"])])
        return _csv_string(["metric", "value"], rows)

    _emit(payload, args.format, as_text, as_csv)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


_HANDLERS = {
    "analyze": _cmd_analyze,
    "verify": _cmd_verify,
    "census": _cmd_census,
    "sweep": _cmd_sweep,
    "sample": _cmd_sample,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        return _HANDLERS[args.command](args)
    except (ParseError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NotZeroDimensional as exc:
        print(f"error: not zero-dimensional: {exc}", file=sys.stderr)
        return EXIT_NOT_ZERO_DIMENSIONAL
    except LemmaViolation as exc:
        print(f"internal check failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
