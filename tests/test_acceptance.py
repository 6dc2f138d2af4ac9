"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  Every check is exact (integer or exact-field equality); the
stated runtime ceilings are asserted where a criterion carries one.
"""

import json
import time
from dataclasses import dataclass

import pytest
from conftest import ORIGIN_CORPUS, staircase_witness

from punctual.artinian import analyze_quotient, quotient_basis
from punctual.cli import main
from punctual.fields import QQ
from punctual.groebner import buchberger, spolynomial_certificate
from punctual.poly import ALL_ORDERS, DEFAULT_ORDER, Polynomial, parse_generators
from punctual.staircase import (
    Partition,
    corners,
    monomial_ideal_of,
    partitions_of,
    socle_bound,
)
from punctual.verify import (
    CURATED_CORPUS,
    SamplerConfig,
    check_degeneration,
    check_multiplicity_formula,
    check_socle_identity,
    random_ideal_trials,
)

MAX_EXHAUSTIVE = 10

# 500 random ideals spread over three primes
SAMPLER_RUNS = (
    SamplerConfig(prime=101, degree=3, count=200, seed=42),
    SamplerConfig(prime=32003, degree=3, count=200, seed=7),
    SamplerConfig(prime=7, degree=2, count=100, seed=1),
)


def prepared(text):
    """The (text, Groebner basis, analysis) triple the checks take, over QQ."""
    gb = buchberger(parse_generators(text, QQ), DEFAULT_ORDER)
    return text, gb, analyze_quotient(gb)


@dataclass(frozen=True)
class MonomialRecord:
    n: int
    parts: tuple
    corner_e: int
    corner_b2: int
    engine_e: int
    engine_b2: int
    engine_length: int
    certified: bool


@pytest.fixture(scope="module")
def monomial_sweep():
    """Engine and staircase data for every monomial ideal of colength <= 10."""
    start = time.perf_counter()
    records = []
    for n in range(1, MAX_EXHAUSTIVE + 1):
        for partition in partitions_of(n):
            gens = [Polynomial.monomial(QQ, m) for m in monomial_ideal_of(partition)]
            gb = buchberger(gens, DEFAULT_ORDER)
            analysis = analyze_quotient(gb)
            assert len(analysis.components) == 1
            component = analysis.components[0]
            c = corners(partition)
            records.append(
                MonomialRecord(
                    n=n,
                    parts=partition.parts,
                    corner_e=c.outer_count,
                    corner_b2=c.inner_count,
                    engine_e=component.generators,
                    engine_b2=component.socle,
                    engine_length=analysis.colength,
                    certified=spolynomial_certificate(gb),
                )
            )
    return records, time.perf_counter() - start


def _announce(number: int, name: str, elapsed: float) -> None:
    print(f"\nACCEPTANCE {number} ({name}): PASS ({elapsed:.1f}s)")


def test_criterion_1_socle_identity_everywhere(monomial_sweep):
    records, build_time = monomial_sweep
    start = time.perf_counter()

    # exhaustive monomial ideals, colength 1..10
    assert len(records) == 138
    for record in records:
        assert record.engine_b2 == record.engine_e - 1, record.parts

    # curated non-monomial corpus over the rationals
    assert len(CURATED_CORPUS) >= 10
    for text in CURATED_CORPUS:
        report = check_socle_identity(*prepared(text))
        assert report.passed, text
        assert report.rows, text

    # at least 500 random ideals across at least 3 primes
    total = 0
    primes = set()
    for cfg in SAMPLER_RUNS:
        report = random_ideal_trials(cfg)
        assert report.passed, cfg
        assert report.summary["socle_identity_passes"] == cfg.count
        total += report.summary["accepted"]
        primes.add(cfg.prime)
    assert total >= 500 and len(primes) >= 3

    elapsed = build_time + time.perf_counter() - start
    assert elapsed < 60.0
    _announce(1, "socle dim = generators - 1, exhaustive + corpus + random", elapsed)


def test_criterion_2_staircase_bound_to_thirty():
    start = time.perf_counter()
    for n in range(1, 31):
        best = max(corners(p).inner_count for p in partitions_of(n))
        assert best == socle_bound(n), n
    # the staircase witness attains the bound at every triangular number
    for b in range(1, 8):
        triangular = b * (b + 1) // 2
        if triangular > 30:
            break
        witness = staircase_witness(b)
        assert witness.size == triangular
        assert corners(witness).inner_count == b == socle_bound(triangular)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _announce(2, "max b2 equals the integer bound for n = 1..30", elapsed)


def test_criterion_3_multiplicity_bounds(monomial_sweep):
    records, _ = monomial_sweep
    start = time.perf_counter()

    # engine route on every exhaustive monomial ideal
    for record in records:
        mu = record.engine_b2 * (record.engine_b2 + 1) // 2
        assert mu <= record.engine_length <= record.n

    # combinatorial route out to n = 30 (the criterion-2 population)
    for n in range(1, 31):
        for partition in partitions_of(n):
            b2 = corners(partition).inner_count
            assert b2 * (b2 + 1) // 2 <= n

    # corpus, per local component
    strict_seen = False
    for text in CURATED_CORPUS:
        report = check_multiplicity_formula(*prepared(text))
        assert report.passed, text
        strict_seen = strict_seen or report.summary["strict_instances"] > 0

    # the recorded strict witness: colength 5 with multiplicity 1
    witness = check_multiplicity_formula(*prepared("y, x^5"))
    row = witness.rows[0]
    assert row["multiplicity"] == 1 and row["local_length"] == 5 and row["strict"]
    assert strict_seen

    elapsed = time.perf_counter() - start
    _announce(3, "multiplicity <= local length <= n, with a strict witness", elapsed)


def test_criterion_4_degeneration_semicontinuity():
    start = time.perf_counter()
    for text in ORIGIN_CORPUS:
        report = check_degeneration(*prepared(text))
        assert report.passed, text
        for row in report.rows:
            assert row["length_preserved"] and row["semicontinuous"]
    pinned = check_degeneration(*prepared("y - x^2, x^3"))
    strict = {row["order"]: row for row in pinned.rows}["degrevlex:xy"]
    assert strict["initial_b2"] == 2 and strict["b2"] == 1 and strict["strict"]
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _announce(4, "initial-ideal degeneration: lengths flat, b2 semicontinuous", elapsed)


def test_criterion_5_engine_self_consistency(monomial_sweep):
    records, _ = monomial_sweep
    start = time.perf_counter()
    for record in records:
        assert record.engine_e == record.corner_e, record.parts
        assert record.engine_b2 == record.corner_b2, record.parts
        assert record.engine_length == record.n, record.parts
        assert record.certified, record.parts
    # colength is blind to the order configuration
    for record in records:
        gens = [
            Polynomial.monomial(QQ, m)
            for m in monomial_ideal_of(Partition(record.parts))
        ]
        for order in ALL_ORDERS:
            gb = buchberger(gens, order)
            assert len(quotient_basis(gb)) == record.n
            assert spolynomial_certificate(gb)
    elapsed = time.perf_counter() - start
    _announce(5, "staircase corners = engine Betti data, all orders certified", elapsed)


def test_criterion_6_two_points_are_smooth():
    start = time.perf_counter()
    partitions = list(partitions_of(2))
    assert [p.parts for p in partitions] == [(2,), (1, 1)]
    for partition in partitions:
        assert corners(partition).inner_count == 1
        gens = [Polynomial.monomial(QQ, m) for m in monomial_ideal_of(partition)]
        analysis = analyze_quotient(buchberger(gens, DEFAULT_ORDER))
        component = analysis.components[0]
        assert component.socle == 1
        assert component.multiplicity == 1
    elapsed = time.perf_counter() - start
    _announce(6, "every length-2 scheme has b2 = 1 and multiplicity 1", elapsed)


def test_criterion_7_cli_determinism_and_goldens(capsys, tmp_path):
    start = time.perf_counter()
    golden = {
        "analyze_square_max_ideal.json": "x^2, x*y, y^2",
        "analyze_curvilinear.json": "y, x^5",
        "analyze_single_point.json": "x, y",
    }
    from pathlib import Path

    golden_dir = Path(__file__).parent / "golden"
    for name, ideal in sorted(golden.items()):
        code = main(["analyze", "--ideal", ideal, "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == (golden_dir / name).read_text(encoding="utf-8"), name
        assert json.loads(json.dumps(json.loads(out), sort_keys=True)) == json.loads(out)

    seeded = ["sample", "--field", "Fp:101", "--count", "25", "--seed", "42", "--format", "json"]
    main(seeded)
    first = capsys.readouterr().out
    main(seeded)
    second = capsys.readouterr().out
    assert first == second

    elapsed = time.perf_counter() - start
    _announce(7, "fixed seeds give byte-identical CLI output, goldens match", elapsed)
