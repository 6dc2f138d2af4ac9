"""Verification harness for the identities tying the invariants together.

Each check returns a :class:`VerificationReport` with per-case evidence
rows and an aggregate verdict.  Reports are deterministic functions of
their inputs (and seed, for the sampler), so serialized output is
byte-identical across runs.

The per-ideal checks read one Groebner basis and its ``analyze_quotient``,
whose ``LocalInvariants`` already passed the socle and multiplicity guards
of ``local_invariants``; their ``ok`` columns compare those invariants
again, and the sampler calls ``local_invariants`` on each origin factor.
Degeneration adds one basis per distinct order (deglex and degrevlex
coincide in two variables) and still reports all six; the monomial
ideals it and the staircase cross-check analyze get their bases from
``buchberger`` too, and the sampler's origin factor comes from
``local_component_at``, the one-point case of the split.  ``socle_census``
reads the census of n from one row of ``distinct_part_table``, so a range
of n shares one table, and the staircase bound is read off it; the
enumeration of the partitions of n runs only in ``check_staircase_bound``
up to the cross-check cutoff, as the second route to the same census.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from math import isqrt

from .artinian import (
    MAX_COLENGTH,
    Decomposition,
    analyze_quotient,
    local_component_at,
    local_invariants,
    point_text,
    truncation_monomials,
)
from .errors import ConfigError, LemmaViolation, NotZeroDimensional, SupportNotLocal
from .fields import MAX_PRIME, PrimeField, QQ, is_prime
from .groebner import GroebnerBasis, buchberger, initial_ideal
from .poly import ALL_ORDERS, DEFAULT_ORDER, Polynomial
from .staircase import (
    Partition,
    attaining_partition,
    corners,
    distinct_part_table,
    monomial_ideal_of,
    partitions_of,
    socle_bound,
)

# one draw at degree 11 over Fp:32003 takes about 1 s on a 2-core VM, so
# the largest accepted run takes about 17 minutes
MAX_SAMPLE_COUNT = 1000

# Non-monomial ideals over QQ exercised by the test suite: curvilinear
# chains, complete intersections, non-complete-intersections with socle
# dimension 2, a translated fat point, multi-point supports, and one
# ideal carrying a non-rational residual besides the origin.
CURATED_CORPUS: tuple[str, ...] = (
    "y - x^2, x^3",
    "x^2 + y^2, x*y",
    "x^2 - y^2, x*y",
    "y^2 - x^3, x^2*y",
    "x^2 + x*y, y^2",
    "x^2 - x, y",
    "x^2 - 1, y^2 - 1",
    "x - 1, y - 2",
    "x^2 - 2*x + 1, x*y + x - y - 1, y^2 + 2*y + 1",
    "y - x^2, x^4",
    "x^2 - y, y^2",
    "x^3 - y, y^3",
    "x^3 - 2*x, y",
    "x^2 - y^3, x*y^2, y^4",
    "x^3, x*y - y^3, y^4",
    "x^2 + y^3, x*y^3, y^5",
    "x^3, x^2*y, x*y^2 - x^2, y^4",
)

@dataclass
class VerificationReport:
    check: str
    inputs: dict
    rows: list
    summary: dict
    passed: bool

    def to_jsonable(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [f"check: {self.check}   {verdict}"]
        if self.inputs:
            lines.append("  " + "   ".join(f"{k}={v}" for k, v in self.inputs.items()))
        if self.rows:
            lines.extend("  " + line for line in format_table(self.rows))
        if self.summary:
            lines.append("  " + "   ".join(f"{k}={v}" for k, v in self.summary.items()))
        return "\n".join(lines)


@dataclass(frozen=True)
class SocleCensus:
    n: int
    counts: dict
    partition_count: int
    max_attained: int
    argmax: Partition  # the first partition in reverse-lex order with max_attained sizes


@dataclass(frozen=True)
class SamplerConfig:
    prime: int
    degree: int
    count: int
    seed: int

    def __post_init__(self) -> None:
        # the bound first: trial division on a huge modulus does not finish
        if self.prime >= MAX_PRIME:
            raise ConfigError(f"sampler modulus {self.prime} is too large (must be below 2**31)")
        if not is_prime(self.prime):
            raise ConfigError(f"sampler modulus {self.prime} is not prime")
        if self.degree < 1:
            raise ConfigError("sampler degree must be at least 1")
        # by Bezout two curves of degree <= d meet in colength <= d^2; refuse
        # before any draw, since Buchberger runs before the colength check
        if self.degree * self.degree > MAX_COLENGTH:
            raise ConfigError(
                f"sampler degree {self.degree} exceeds the limit degree <= {isqrt(MAX_COLENGTH)}"
            )
        if self.count < 0:
            raise ConfigError("sampler count must be non-negative")
        if self.count > MAX_SAMPLE_COUNT:
            raise ConfigError(
                f"sampler count {self.count} exceeds the limit count <= {MAX_SAMPLE_COUNT}"
            )


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


def check_socle_identity(
    ideal_text: str, gb: GroebnerBasis, analysis: Decomposition
) -> VerificationReport:
    """socle dimension = minimal generators - 1 on every rational local factor.

    ``analysis`` is ``analyze_quotient(gb)``; its invariants already went
    through both routes, and a disagreement raised LemmaViolation there.
    """
    inputs = {"ideal": ideal_text, "field": gb.field.label, "order": gb.order.label}
    rows = [
        {
            "point": point_text(c.point),
            "local_length": c.local_length,
            "socle_dim": c.socle,
            "generator_count": c.generators,
            "ok": c.socle == c.generators - 1,
        }
        for c in analysis.components
    ]
    summary = {
        "colength": analysis.colength,
        "components": len(rows),
        "residual_dimension": analysis.residual_dimension,
    }
    return VerificationReport(
        "socle_vs_generators", inputs, rows, summary, all(r["ok"] for r in rows)
    )


def check_multiplicity_formula(
    ideal_text: str, gb: GroebnerBasis, analysis: Decomposition
) -> VerificationReport:
    """multiplicity = b2*(b2+1)/2 with multiplicity <= local length, per factor.

    Rows record whether the bound is strict; a strict row is the witness
    that multiplicity and length are different invariants.
    """
    inputs = {"ideal": ideal_text, "field": gb.field.label, "order": gb.order.label}
    rows = [
        {
            "point": point_text(c.point),
            "local_length": c.local_length,
            "b2": c.socle,
            "generator_count": c.generators,
            "multiplicity": c.multiplicity,
            "bounded": c.multiplicity <= c.local_length,
            "strict": c.multiplicity < c.local_length,
            "equals_length": c.multiplicity == c.local_length,
            "ok": c.socle == c.generators - 1 and c.multiplicity <= c.local_length,
        }
        for c in analysis.components
    ]
    summary = {
        "colength": analysis.colength,
        "residual_dimension": analysis.residual_dimension,
        "strict_instances": sum(1 for r in rows if r["strict"]),
    }
    return VerificationReport(
        "multiplicity_formula", inputs, rows, summary, all(r["ok"] for r in rows)
    )


def check_staircase_bound(census: SocleCensus, crosscheck_cutoff: int = 10) -> VerificationReport:
    """Bound check over all partitions of n, read off the census of n.

    The maximal inner corner count must equal the integer bound, the
    constructed attaining partition must reach it, and (for n up to the
    cutoff) enumerating the partitions of n must reproduce the census
    (counts, total and argmax) and the algebra engine must reproduce each
    partition's corner counts and colength.
    """
    n = census.n
    inputs = {"n": n, "crosscheck_cutoff": crosscheck_cutoff}
    bound = socle_bound(n)
    max_b2 = census.max_attained
    # b2*(b2+1)/2 increases with b2, so the maximum decides every partition
    mu_bounded = max_b2 * (max_b2 + 1) // 2 <= n
    crosschecked = n <= crosscheck_cutoff
    rows = []
    census_reproduced = True
    if crosschecked:
        tally: dict[int, int] = {}
        best, first_best = 0, None
        for partition in partitions_of(n):
            c = corners(partition)
            tally[c.inner_count] = tally.get(c.inner_count, 0) + 1
            if c.inner_count > best:
                best, first_best = c.inner_count, partition
            gens = [Polynomial.monomial(QQ, m) for m in monomial_ideal_of(partition)]
            analysis = analyze_quotient(buchberger(gens, DEFAULT_ORDER))
            component = analysis.components[0]
            ok = (
                analysis.colength == n
                and len(analysis.components) == 1
                and component.socle == c.inner_count
                and component.generators == c.outer_count
            )
            rows.append(
                {
                    "partition": str(partition),
                    "b2": c.inner_count,
                    "engine_b2": component.socle,
                    "engine_generators": component.generators,
                    "colength": analysis.colength,
                    "ok": ok,
                }
            )
        census_reproduced = (
            sorted(tally.items()) == list(census.counts.items())
            and len(rows) == census.partition_count
            and (best, first_best) == (max_b2, census.argmax)
        )
    attaining = attaining_partition(n)
    attaining_b2 = corners(attaining).inner_count
    passed = (
        max_b2 == bound
        and attaining_b2 == bound
        and attaining.size == n
        and mu_bounded
        and census_reproduced
        and all(r["ok"] for r in rows)
    )
    summary = {
        "partition_count": census.partition_count,
        "bound": bound,
        "max_b2": max_b2,
        "argmax": str(census.argmax),
        "attaining": str(attaining),
        "attaining_b2": attaining_b2,
        "multiplicity_le_n": mu_bounded,
        "crosschecked": crosschecked,
    }
    return VerificationReport("staircase_bound", inputs, rows, summary, passed)


def check_degeneration(
    ideal_text: str, gb: GroebnerBasis, analysis: Decomposition
) -> VerificationReport:
    """Degeneration to the initial ideal preserves colength and cannot
    decrease the socle dimension, for every monomial order.

    Requires all support at the origin, because the comparison is between
    local invariants there.  Colength and b2 come from ``analysis``; each
    distinct key function gets one Groebner basis (``gb`` itself for its
    own order), and orders sharing one share its row data.
    """
    coeff_field = gb.field
    inputs = {"ideal": ideal_text, "field": coeff_field.label, "orders": len(ALL_ORDERS)}
    zero = coeff_field.zero()
    if analysis.residual_dimension or [c.point for c in analysis.components] != [(zero, zero)]:
        raise SupportNotLocal(f"support of ({ideal_text}) is not concentrated at the origin")
    colength = analysis.colength
    base_b2 = analysis.components[0].socle
    degenerations = {}  # key function -> (initial ideal, its analysis)
    rows = []
    for order in ALL_ORDERS:
        key = order.key_func()
        if key not in degenerations:
            order_gb = gb if key is gb.order.key_func() else buchberger(gb.generators, order)
            init = initial_ideal(order_gb)
            monomial_gb = buchberger([Polynomial.monomial(coeff_field, m) for m in init], order)
            degenerations[key] = (init, analyze_quotient(monomial_gb))
        init, init_analysis = degenerations[key]
        init_b2 = init_analysis.components[0].socle
        preserved = init_analysis.colength == colength
        semicontinuous = init_b2 >= base_b2
        rows.append(
            {
                "order": order.label,
                "initial_ideal": "; ".join(str(m) for m in init),
                "colength": colength,
                "initial_colength": init_analysis.colength,
                "length_preserved": preserved,
                "b2": base_b2,
                "initial_b2": init_b2,
                "semicontinuous": semicontinuous,
                "strict": init_b2 > base_b2,
                "ok": preserved and semicontinuous,
            }
        )
    summary = {
        "colength": colength,
        "b2": base_b2,
        "strict_orders": sum(1 for r in rows if r["strict"]),
    }
    return VerificationReport(
        "initial_degeneration", inputs, rows, summary, all(r["ok"] for r in rows)
    )


def socle_census(n: int, table: list[list[int]] | None = None) -> SocleCensus:
    """Partition counts of n grouped by inner corner count, read from row n
    of ``distinct_part_table`` (the inner corner count is the number of
    distinct part sizes).  ``table`` is such a table built to some hi >= n,
    shared across a range of n; without it a table is built to n.

    The argmax follows from the largest size count b alone: a first part above
    n - b(b-1)/2 leaves too little for b - 1 smaller distinct sizes, so the
    first partition in reverse-lex order with b sizes is that first part
    followed by (b-1, ..., 1).
    """
    row = (distinct_part_table(n) if table is None else table)[n]
    counts = {k: count for k, count in enumerate(row) if count}
    b = max(counts)
    first = n - b * (b - 1) // 2
    if first < b:
        raise LemmaViolation(
            f"census of {n} reports {b} distinct part sizes; no partition of {n} has that many"
        )
    argmax = Partition((first,) + tuple(range(b - 1, 0, -1)))
    if corners(argmax).inner_count != b:
        raise LemmaViolation(f"census argmax {argmax} does not have {b} inner corners")
    return SocleCensus(
        n=n,
        counts=counts,
        partition_count=sum(row),
        max_attained=b,
        argmax=argmax,
    )


def random_ideal_trials(cfg: SamplerConfig) -> VerificationReport:
    """Randomized stress of the socle identity and the multiplicity bound.

    Draws pairs of random polynomials of bounded degree with no constant
    term (so the origin is always in the support), rejects pairs that are
    not zero-dimensional, and runs ``local_invariants`` on the origin
    factor of each accepted ideal, so every accepted draw passed both
    checks; a failure raises LemmaViolation naming the drawn ideal.
    Deterministic for a fixed seed.
    """
    coeff_field = PrimeField(cfg.prime)
    rng = random.Random(cfg.seed)
    support = [m for m in truncation_monomials(cfg.degree) if m.degree >= 1]
    origin = (coeff_field.zero(), coeff_field.zero())

    def draw() -> Polynomial:
        terms = {}
        for mono in support:
            c = rng.randrange(cfg.prime)
            if c:
                terms[mono] = coeff_field.from_int(c)
        return Polynomial(coeff_field, terms)

    accepted = draws = 0
    histogram: dict[int, int] = {}
    limit = 1000 * max(cfg.count, 1)
    while accepted < cfg.count:
        if draws >= limit:
            raise ConfigError("sampler rejected too many draws; lower the degree or change seed")
        draws += 1
        f, g = draw(), draw()
        if f.is_zero() or g.is_zero():
            continue
        try:
            lq = local_component_at(buchberger([f, g], DEFAULT_ORDER), origin)
        except NotZeroDimensional:
            continue
        # both generators vanish at the origin, so the factor exists
        try:
            socle = local_invariants(lq).socle
        except LemmaViolation as exc:
            raise LemmaViolation(f"{exc} of the drawn ideal ({f}, {g})") from None
        accepted += 1
        histogram[socle] = histogram.get(socle, 0) + 1
    inputs = {
        "field": coeff_field.label,
        "degree": cfg.degree,
        "count": cfg.count,
        "seed": cfg.seed,
    }
    summary = {
        "requested": cfg.count,
        "accepted": accepted,
        "draws": draws,
        "socle_identity_passes": accepted,
        "multiplicity_bound_passes": accepted,
        "histogram": {str(k): histogram[k] for k in sorted(histogram)},
    }
    return VerificationReport("random_trials", inputs, [], summary, accepted == cfg.count)
