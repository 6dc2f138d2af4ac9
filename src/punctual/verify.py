"""Verification harness for the identities tying the invariants together.

Each check returns a :class:`VerificationReport` with per-case evidence
rows and an aggregate verdict.  Reports are deterministic functions of
their inputs (and seed, for the sampler), so serialized output is
byte-identical across runs.

The per-ideal checks read one Groebner basis and its ``analyze_quotient``;
degeneration adds one basis per distinct order (deglex and degrevlex
coincide in two variables) and still reports all six.  ``socle_census`` is
the one pass over the partitions of n, and the staircase bound is read off
it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .artinian import (
    IdealAnalysis,
    analyze_quotient,
    generator_count,
    local_component_at,
    multiplicity_from_socle,
    socle_dimension,
    truncation_monomials,
)
from .errors import ConfigError, NotZeroDimensional, SupportNotLocal
from .fields import MAX_PRIME, PrimeField, QQ, is_prime
from .groebner import GroebnerBasis, buchberger, groebner_from_monomials, initial_ideal
from .poly import ALL_ORDERS, DEFAULT_ORDER, Polynomial
from .staircase import (
    Partition,
    attaining_partition,
    corners,
    monomial_ideal_of,
    partitions_of,
    socle_bound,
)

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

# The subset supported only at the origin, where degeneration comparisons
# are meaningful.
ORIGIN_CORPUS: tuple[str, ...] = (
    "y - x^2, x^3",
    "x^2 + y^2, x*y",
    "x^2 - y^2, x*y",
    "y^2 - x^3, x^2*y",
    "x^2 + x*y, y^2",
    "y - x^2, x^4",
    "x^2 - y, y^2",
    "x^3 - y, y^3",
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
        return {
            "check": self.check,
            "inputs": dict(self.inputs),
            "rows": [dict(row) for row in self.rows],
            "summary": dict(self.summary),
            "passed": self.passed,
        }

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
    argmax: Partition  # the first partition, in enumeration order, with max_attained


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
        if self.count < 0:
            raise ConfigError("sampler count must be non-negative")


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


def _point_text(point) -> str:
    return f"({point[0]}, {point[1]})"


def check_socle_identity(
    ideal_text: str, gb: GroebnerBasis, analysis: IdealAnalysis
) -> VerificationReport:
    """socle dimension = minimal generators - 1 on every rational local factor.

    ``analysis`` is ``analyze_quotient(gb)``; its Betti data already went
    through both routes, and a disagreement raised LemmaViolation there.
    """
    inputs = {"ideal": ideal_text, "field": gb.field.label, "order": gb.order.label}
    rows = [
        {
            "point": _point_text(c.point),
            "local_length": c.local_length,
            "socle_dim": c.betti.socle_dim,
            "generator_count": c.betti.minimal_generators,
            "ok": c.betti.socle_dim == c.betti.minimal_generators - 1,
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
    ideal_text: str, gb: GroebnerBasis, analysis: IdealAnalysis
) -> VerificationReport:
    """multiplicity = b2*(b2+1)/2 with multiplicity <= local length, per factor.

    Rows record whether the bound is strict; a strict row is the witness
    that multiplicity and length are different invariants.
    """
    inputs = {"ideal": ideal_text, "field": gb.field.label, "order": gb.order.label}
    rows = []
    for c in analysis.components:
        socle = c.betti.socle_dim
        e = c.betti.minimal_generators
        mu = c.multiplicity.multiplicity
        rows.append(
            {
                "point": _point_text(c.point),
                "local_length": c.local_length,
                "b2": socle,
                "generator_count": e,
                "multiplicity": mu,
                "bounded": mu <= c.local_length,
                "strict": mu < c.local_length,
                "equals_length": mu == c.local_length,
                "ok": socle == e - 1 and mu <= c.local_length,
            }
        )
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
    cutoff) the algebra engine must reproduce each partition's corner
    counts and colength.
    """
    n = census.n
    inputs = {"n": n, "crosscheck_cutoff": crosscheck_cutoff}
    bound = socle_bound(n)
    max_b2 = census.max_attained
    # b2*(b2+1)/2 increases with b2, so the maximum decides every partition
    mu_bounded = max_b2 * (max_b2 + 1) // 2 <= n
    crosschecked = n <= crosscheck_cutoff
    rows = []
    if crosschecked:
        for partition in partitions_of(n):
            c = corners(partition)
            gb = groebner_from_monomials(monomial_ideal_of(partition), DEFAULT_ORDER, QQ)
            analysis = analyze_quotient(gb)
            component = analysis.components[0]
            ok = (
                analysis.colength == n
                and len(analysis.components) == 1
                and component.betti.b2 == c.inner_count
                and component.betti.minimal_generators == c.outer_count
            )
            rows.append(
                {
                    "partition": str(partition),
                    "b2": c.inner_count,
                    "engine_b2": component.betti.b2,
                    "engine_generators": component.betti.minimal_generators,
                    "colength": analysis.colength,
                    "ok": ok,
                }
            )
    attaining = attaining_partition(n)
    attaining_b2 = corners(attaining).inner_count
    passed = (
        max_b2 == bound
        and attaining_b2 == bound
        and attaining.size == n
        and mu_bounded
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
    ideal_text: str, gb: GroebnerBasis, analysis: IdealAnalysis
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
    base_b2 = analysis.components[0].betti.b2
    degenerations = {}  # key function -> (initial ideal, its analysis)
    rows = []
    for order in ALL_ORDERS:
        key = order.key_func()
        if key not in degenerations:
            order_gb = gb if key is gb.order.key_func() else buchberger(gb.generators, order)
            init = initial_ideal(order_gb)
            monomial_gb = groebner_from_monomials(init, order, coeff_field)
            degenerations[key] = (init, analyze_quotient(monomial_gb))
        init, init_analysis = degenerations[key]
        init_b2 = init_analysis.components[0].betti.b2
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


def socle_census(n: int) -> SocleCensus:
    """Partition counts of n grouped by inner corner count, from the only
    pass over the partitions of n that tallies b2."""
    counts: dict[int, int] = {}
    total = 0
    max_b2, argmax = 0, None
    for partition in partitions_of(n):
        total += 1
        b2 = corners(partition).inner_count
        counts[b2] = counts.get(b2, 0) + 1
        if b2 > max_b2:
            max_b2, argmax = b2, partition
    return SocleCensus(
        n=n,
        counts=dict(sorted(counts.items())),
        partition_count=total,
        max_attained=max_b2,
        argmax=argmax,
    )


def random_ideal_trials(cfg: SamplerConfig) -> VerificationReport:
    """Randomized stress of the socle identity and the multiplicity bound.

    Draws pairs of random polynomials of bounded degree with no constant
    term (so the origin is always in the support), rejects pairs that are
    not zero-dimensional, and checks the origin factor of each accepted
    ideal.  Deterministic for a fixed seed.
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
    socle_passes = mu_passes = 0
    histogram: dict[int, int] = {}
    limit = 1000 * max(cfg.count, 1)
    while accepted < cfg.count:
        if draws >= limit:
            raise ConfigError("sampler rejected too many draws; lower the degree or change seed")
        draws += 1
        f, g = draw(), draw()
        if f.is_zero() or g.is_zero():
            continue
        gb = buchberger([f, g], DEFAULT_ORDER)
        lq = None
        try:
            lq = local_component_at(gb, origin)
        except NotZeroDimensional:
            continue
        # both generators vanish at the origin, so the factor exists
        socle = socle_dimension(lq)
        e = generator_count(lq)
        mu = multiplicity_from_socle(socle)
        accepted += 1
        if socle == e - 1:
            socle_passes += 1
        if mu <= lq.dimension:
            mu_passes += 1
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
        "socle_identity_passes": socle_passes,
        "multiplicity_bound_passes": mu_passes,
        "histogram": {str(k): histogram[k] for k in sorted(histogram)},
    }
    passed = socle_passes == accepted == cfg.count and mu_passes == accepted
    return VerificationReport("random_trials", inputs, [], summary, passed)
