"""Checks of each op's output that do not use the engine.

``check(op, code, stdout)`` returns None when the output is right and a
one-line reason when it is not.  Everything here is plain integer and
Fraction arithmetic written for the benchmark.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

_TERM = re.compile(r"([+-]?)([^+-]+)")
_FACTOR = re.compile(r"(\d+)|([xy])(?:\^(\d+))?")


def partition_count(n: int) -> int:
    """p(n) by the coin-change recurrence over part sizes."""
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            counts[total] += counts[total - part]
    return counts[n]


def socle_bound(n: int) -> int:
    """Largest k with k(k+1)/2 <= n."""
    k = 0
    while (k + 1) * (k + 2) // 2 <= n:
        k += 1
    return k


def parse_poly(text: str) -> dict:
    """One polynomial of the ideal grammar as {(a, b): int}."""
    poly: dict = {}
    for sign, body in _TERM.findall(text.replace(" ", "")):
        coeff, a, b = -1 if sign == "-" else 1, 0, 0
        for number, var, exponent in _FACTOR.findall(body):
            if number:
                coeff *= int(number)
            elif var == "x":
                a += int(exponent or 1)
            else:
                b += int(exponent or 1)
        poly[(a, b)] = poly.get((a, b), 0) + coeff
    return poly


def vanishes(poly: dict, x, y, modulus: int | None) -> bool:
    value = sum(c * x**a * y**b for (a, b), c in poly.items())
    return value % modulus == 0 if modulus else value == 0


def _point(component, modulus):
    px, py = component["point"]
    if modulus:
        return int(px), int(py)
    return Fraction(px), Fraction(py)


def _check_rows(payload: dict, gens: list, modulus: int | None) -> str | None:
    """Identities every analyze row satisfies, and the generators vanish
    at every reported point."""
    total = payload["residual_dimension"]
    for c in payload["components"]:
        b2 = c["b2"]
        if c["socle"] != c["generators"] - 1 or b2 != c["socle"] or c["b1"] != c["generators"]:
            return f"socle/generator identity fails at {c['point']}"
        if c["multiplicity"] != b2 * (b2 + 1) // 2 or c["multiplicity"] > c["length"]:
            return f"multiplicity {c['multiplicity']} wrong at {c['point']}"
        if not c["multiplicity_le_length"] or c["multiplicity_eq_length"] != (c["multiplicity"] == c["length"]):
            return f"multiplicity flags wrong at {c['point']}"
        x, y = _point(c, modulus)
        if not all(vanishes(g, x, y, modulus) for g in gens):
            return f"a generator does not vanish at {c['point']}"
        total += c["length"]
    if total != payload["colength"]:
        return f"lengths plus residual {total} != colength {payload['colength']}"
    return None


def _gens(op) -> list:
    return [{tuple(m): c for m, c in g} for g in op["gens"]]


def _staircase(op, payload) -> str | None:
    parts = op["parts"]
    n, b2 = sum(parts), len(set(parts))
    expected = {
        "point": ["0", "0"],
        "length": n,
        "nilpotency": max(p - 1 + j for j, p in enumerate(parts)) + 1,
        "generators": b2 + 1,
        "b1": b2 + 1,
        "b2": b2,
        "socle": b2,
        "multiplicity": b2 * (b2 + 1) // 2,
        "multiplicity_le_length": True,
        "multiplicity_eq_length": b2 * (b2 + 1) // 2 == n,
    }
    if (payload["colength"], payload["residual_dimension"]) != (n, 0):
        return f"colength {payload['colength']} != {n}"
    if payload["components"] != [expected]:
        return f"component {payload['components']} != {expected}"
    return None


def _support(op, payload) -> str | None:
    reason = _check_rows(payload, _gens(op), None)
    if reason:
        return reason
    found = sorted(
        [*map(Fraction, c["point"]), c["length"], c["nilpotency"], c["b2"]]
        for c in payload["components"]
    )
    expected = sorted([Fraction(x), Fraction(y), m, m, 1] for x, y, m in op["points"])
    if payload["residual_dimension"] or found != expected:
        return f"components {found} != {expected}"
    return None


def _census(op, payload) -> str | None:
    (result,) = payload["results"]
    n = op["n"]
    counts = result["census"] if op["kind"] == "sweep" else result["counts"]
    p = partition_count(n)
    if result["n"] != n or result["partition_count"] != p or sum(counts.values()) != p:
        return f"partition counts for n={n} disagree with p(n)={p}"
    if result["max_b2"] != socle_bound(n) or max(map(int, counts)) != socle_bound(n):
        return f"max_b2 {result['max_b2']} != bound {socle_bound(n)} for n={n}"
    return None if result["passed"] and payload["passed"] else f"n={n} not passed"


def _verify(op, payload) -> str | None:
    for report in payload["reports"]:
        if not report["passed"] or not all(row.get("ok", True) for row in report["rows"]):
            return f"check {report['check']} failed"
        if report["check"] == "socle_vs_generators":
            if any(r["socle_dim"] != r["generator_count"] - 1 for r in report["rows"]):
                return "socle != generators - 1 in verify rows"
    return None if payload["passed"] else "verify did not pass"


def _sample(op, payload) -> str | None:
    summary = payload["report"]["summary"]
    if not payload["passed"] or summary["accepted"] != 1 or summary["requested"] != 1:
        return f"sample not passed: {summary}"
    return None


def check(op: dict, code, stdout: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    kind = op["kind"]
    if kind == "golden":
        return None if stdout == op["expected"] else "output differs from the golden file"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    if kind == "staircase":
        return _staircase(op, payload)
    if kind == "dense":
        if payload["colength"] != op["colength"]:
            return f"colength {payload['colength']} != {op['colength']}"
        return _check_rows(payload, _gens(op), None)
    if kind == "support":
        return _support(op, payload)
    if kind == "corpus":
        gens = [parse_poly(g) for g in op["text"].split(",")]
        modulus = int(op["field"].split(":")[1]) if op["field"].startswith("Fp:") else None
        return _check_rows(payload, gens, modulus)
    if kind == "verify":
        return _verify(op, payload)
    if kind == "sample":
        return _sample(op, payload)
    return _census(op, payload)
