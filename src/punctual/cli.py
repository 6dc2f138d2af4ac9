"""Command line front end.

Subcommands: analyze (local invariants of one ideal), verify (identity
checks for one ideal), census and sweep (partition sweeps over a range of
colengths), sample (randomized trials over a prime field).  Output is
byte-identical for identical invocations; exit codes are 0 success,
2 parse or configuration error, 3 not zero-dimensional, 4 check failure.

Every output decision is made here.  Each command builds one payload of
plain values, and text, json and csv are three views of it; the exit code
follows its ``passed``.  A verification report is a plain record and
enters the payload as ``report._asdict()``.

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


def _emit(payload: dict, fmt: str, text_renderer, csv_renderer) -> int:
    """Print one view of ``payload``; the exit code follows its ``passed``,
    and a payload without one (analyze) exits 0."""
    if fmt == "json":
        import json

        print(json.dumps(payload, indent=2, sort_keys=True))
    elif fmt == "csv":
        print(csv_renderer(payload), end="")
    else:
        print(text_renderer(payload))
    return EXIT_OK if payload.get("passed", True) else EXIT_CHECK_FAILED


def _csv_string(header: list[str], rows: list[list]) -> str:
    """CSV with a header; a True or False cell is written true or false."""
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["true" if c is True else "false" if c is False else c for c in row])
    return buffer.getvalue()


def format_table(rows: list[dict]) -> list[str]:
    """Aligned column rendering; column order follows the first row."""
    columns = list(rows[0].keys())
    widths = {
        c: max(len(str(c)), max(len(str(row.get(c, ""))) for row in rows)) for c in columns
    }
    lines = ["  ".join(str(c).ljust(widths[c]) for c in columns)]
    for row in rows:
        lines.append("  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns))
    return lines


# ---------------------------------------------------------------- analyze

# an analyze component's keys after its point, in CSV column order
_COMPONENT_KEYS = (
    "length",
    "nilpotency",
    "generators",
    "b1",
    "b2",
    "socle",
    "multiplicity",
    "multiplicity_le_length",
    "multiplicity_eq_length",
)


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
    rows = [[*c["point"], *(c[k] for k in _COMPONENT_KEYS)] for c in payload["components"]]
    return _csv_string(["point_x", "point_y", *_COMPONENT_KEYS], rows)


def _cmd_analyze(args) -> int:
    text, gb, basis, analysis = _analyzed_ideal(args)
    payload = {
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
                **dict(zip(_COMPONENT_KEYS, (
                    c.local_length,
                    c.nilpotency_index,
                    c.generators,
                    c.generators,
                    c.socle,
                    c.socle,
                    c.multiplicity,
                    c.multiplicity <= c.local_length,
                    c.multiplicity == c.local_length,
                ))),
            }
            for c in analysis.components
        ],
    }
    return _emit(payload, args.format, _analyze_text, _analyze_csv)


# ----------------------------------------------------------------- verify


def _report_text(report: dict) -> str:
    """A verification report (as ``_asdict()``) as an aligned text block."""
    verdict = "PASS" if report["passed"] else "FAIL"
    lines = [f"check: {report['check']}   {verdict}"]
    if report["inputs"]:
        lines.append("  " + "   ".join(f"{k}={v}" for k, v in report["inputs"].items()))
    if report["rows"]:
        lines.extend("  " + line for line in format_table(report["rows"]))
    if report["summary"]:
        lines.append("  " + "   ".join(f"{k}={v}" for k, v in report["summary"].items()))
    return "\n".join(lines)


def _cmd_verify(args) -> int:
    text, gb, _, analysis = _analyzed_ideal(args)
    reports = [
        check(text, gb, analysis)._asdict()
        for check in (check_socle_identity, check_multiplicity_formula, check_degeneration)
    ]
    payload = {
        "command": "verify",
        "ideal": text,
        "field": gb.field.label,
        "order": gb.order.label,
        "reports": reports,
        "passed": all(r["passed"] for r in reports),
    }

    def as_text(p: dict) -> str:
        verdict = "\nverdict: PASS" if p["passed"] else "\nverdict: FAIL"
        return "\n".join(map(_report_text, p["reports"])) + verdict

    def as_csv(p: dict) -> str:
        rows = []
        for report in p["reports"]:
            if report["rows"]:
                for row in report["rows"]:
                    detail = "; ".join(f"{k}={v}" for k, v in row.items() if k != "ok")
                    rows.append([report["check"], detail, row.get("ok", True)])
            else:
                note = "; ".join(f"{k}={v}" for k, v in report["summary"].items())
                rows.append([report["check"], note, report["passed"]])
        return _csv_string(["check", "case", "ok"], rows)

    return _emit(payload, args.format, as_text, as_csv)


# ----------------------------------------------------------- census/sweep


def _range_payload(command: str, lo: int, hi: int, result_of) -> dict:
    """One ``result_of(census of n)`` per n in lo..hi, from one shared table."""
    table = distinct_part_table(hi)
    results = [result_of(socle_census(n, table)) for n in range(lo, hi + 1)]
    passed = all(r["passed"] for r in results)
    return {"command": command, "lo": lo, "hi": hi, "results": results, "passed": passed}


def _range_text(payload: dict, middle) -> str:
    """One line per n: its census figures, ``middle(result)`` and the verdict."""
    return "\n".join(
        f"n={r['n']} partitions={r['partition_count']} max_b2={r['max_b2']} "
        f"bound={r['bound']} {middle(r)} verdict={'pass' if r['passed'] else 'FAIL'}"
        for r in payload["results"]
    )


def _cmd_census(args) -> int:
    lo, hi = _parse_range(args.n)

    def result_of(census) -> dict:
        bound = socle_bound(census.n)
        return {
            "n": census.n,
            "partition_count": census.partition_count,
            "counts": {str(k): v for k, v in census.counts.items()},
            "max_b2": census.max_attained,
            "bound": bound,
            "passed": census.max_attained == bound,
        }

    def counts(r: dict) -> str:
        return "counts[" + " ".join(f"{k}:{v}" for k, v in r["counts"].items()) + "]"

    def as_csv(p: dict) -> str:
        rows = [[r["n"], b2, count] for r in p["results"] for b2, count in r["counts"].items()]
        return _csv_string(["n", "b2", "count"], rows)

    payload = _range_payload("census", lo, hi, result_of)
    return _emit(payload, args.format, lambda p: _range_text(p, counts), as_csv)


def _cmd_sweep(args) -> int:
    lo, hi = _parse_range(args.n)
    if args.crosscheck_cutoff < 0:
        raise ConfigError("--crosscheck-cutoff must be non-negative")
    if args.crosscheck_cutoff > MAX_CROSSCHECK_CUTOFF:
        raise ConfigError(
            f"--crosscheck-cutoff {args.crosscheck_cutoff} exceeds the limit {MAX_CROSSCHECK_CUTOFF}"
        )

    def result_of(census) -> dict:
        report = check_staircase_bound(census, args.crosscheck_cutoff)
        summary = report.summary
        return {
            "n": census.n,
            "partition_count": summary["partition_count"],
            "max_b2": summary["max_b2"],
            "bound": summary["bound"],
            "argmax": summary["argmax"],
            "attaining": summary["attaining"],
            "crosschecked": summary["crosschecked"],
            "census": {str(k): v for k, v in census.counts.items()},
            "passed": report.passed,
        }

    def argmax(r: dict) -> str:
        return f"argmax={r['argmax']}"

    def as_csv(p: dict) -> str:
        keys = ("n", "partition_count", "max_b2", "bound", "argmax", "passed")
        rows = [[r[k] for k in keys] for r in p["results"]]
        return _csv_string(["n", "partitions", "max_b2", "bound", "argmax", "passed"], rows)

    payload = _range_payload("sweep", lo, hi, result_of)
    return _emit(payload, args.format, lambda p: _range_text(p, argmax), as_csv)


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
        "report": report._asdict(),
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
        rows = [[k, v] for k, v in summary.items() if k != "histogram"]
        rows += [[f"histogram_b2_{k}", v] for k, v in summary["histogram"].items()]
        return _csv_string(["metric", "value"], rows + [["passed", p["passed"]]])

    return _emit(payload, args.format, as_text, as_csv)


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
