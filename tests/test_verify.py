"""The verification harness: reports, determinism, pinned hand-checked values."""

import json
from pathlib import Path

import pytest
from conftest import ORIGIN_CORPUS

import punctual.cli as cli
import punctual.staircase as staircase
import punctual.verify as verify
from punctual.artinian import analyze_quotient
from punctual.errors import ConfigError, LemmaViolation
from punctual.fields import PrimeField, QQ
from punctual.groebner import buchberger
from punctual.poly import DEFAULT_ORDER, MonomialOrder, parse_generators
from punctual.staircase import (
    Partition,
    corners,
    distinct_part_table,
    partitions_of,
    socle_bound,
)
from punctual.verify import (
    CURATED_CORPUS,
    SamplerConfig,
    VerificationReport,
    check_degeneration,
    check_multiplicity_formula,
    check_socle_identity,
    check_staircase_bound,
    random_ideal_trials,
    socle_census,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def census_by_enumeration(n):
    """The enumeration loop ``socle_census`` ran before the table: counts,
    total, maximum and first argmax over the partitions of n."""
    counts = {}
    total = 0
    max_b2, argmax = 0, None
    for partition in partitions_of(n):
        total += 1
        b2 = corners(partition).inner_count
        counts[b2] = counts.get(b2, 0) + 1
        if b2 > max_b2:
            max_b2, argmax = b2, partition
    return dict(sorted(counts.items())), total, max_b2, argmax


def pentagonal_partition_counts(hi):
    """p(0..hi) by Euler's pentagonal number recurrence."""
    p = [1] + [0] * hi
    for n in range(1, hi + 1):
        k = 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            p[n] += sign * p[n - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= n:
                p[n] += sign * p[n - k * (3 * k + 1) // 2]
            k += 1
    return p


def prepared(text, coeff_field=QQ, order=DEFAULT_ORDER):
    """The (text, Groebner basis, analysis) triple the checks take."""
    gb = buchberger(parse_generators(text, coeff_field), order)
    return text, gb, analyze_quotient(gb)


def test_socle_identity_known_cases():
    for text in ("x, y", "x^2, x*y, y^2", "y - x^2, x^3"):
        report = check_socle_identity(*prepared(text))
        assert report.passed, text
    rows = check_socle_identity(*prepared("x^2, x*y, y^2")).rows
    assert rows[0]["socle_dim"] == 2 and rows[0]["generator_count"] == 3


def test_socle_identity_on_corpus():
    for text in CURATED_CORPUS:
        report = check_socle_identity(*prepared(text))
        assert report.passed, text
        assert all(row["ok"] for row in report.rows)


def test_multiplicity_formula_examples():
    report = check_multiplicity_formula(*prepared("x^2, x*y, y^2"))
    row = report.rows[0]
    assert (row["b2"], row["multiplicity"], row["local_length"]) == (2, 3, 3)
    assert report.passed

    report = check_multiplicity_formula(*prepared("y, x^5"))
    row = report.rows[0]
    assert (row["b2"], row["multiplicity"], row["local_length"]) == (1, 1, 5)
    assert row["strict"] and report.summary["strict_instances"] == 1

    report = check_multiplicity_formula(*prepared("x, y"))
    assert report.rows[0]["equals_length"]


def test_staircase_bound_small_n():
    report = check_staircase_bound(socle_census(3))
    assert report.passed
    assert [row["b2"] for row in report.rows] == [1, 2, 1]
    assert report.summary["max_b2"] == 2 == report.summary["bound"]
    assert report.summary["argmax"] == "(2,1)"

    report = check_staircase_bound(socle_census(10))
    assert report.passed
    assert report.summary["max_b2"] == 4
    assert report.summary["argmax"] == "(4,3,2,1)"

    report = check_staircase_bound(socle_census(1))
    assert report.passed and report.summary["max_b2"] == 1


def test_staircase_bound_beyond_cutoff_has_no_engine_rows():
    report = check_staircase_bound(socle_census(14), crosscheck_cutoff=10)
    assert report.passed
    assert report.rows == []
    assert not report.summary["crosschecked"]


def test_degeneration_known_cases():
    report = check_degeneration(*prepared("y - x^2, x^3"))
    assert report.passed
    by_order = {row["order"]: row for row in report.rows}
    strict = by_order["degrevlex:xy"]
    assert strict["initial_b2"] == 2 and strict["b2"] == 1 and strict["strict"]
    flat = by_order["lex:yx"]
    assert flat["initial_b2"] == 1 and not flat["strict"]
    assert set(flat["initial_ideal"].split("; ")) == {"y", "x^3"}
    assert all(row["length_preserved"] for row in report.rows)


def test_degeneration_reads_initial_ideals_without_the_engine(monkeypatch):
    # (x^2, x*y, y^2) and (y, x^3) over six orders, read as staircases: the
    # only bases built are the ideal's own under the other orders
    analyzed, built = [], []

    def counted(gb):
        analyzed.append(gb)
        return analyze_quotient(gb)

    def recorded(generators, order):
        built.append(generators)
        return buchberger(generators, order)

    text, gb, analysis = prepared("y - x^2, x^3")
    monkeypatch.setattr(verify, "analyze_quotient", counted)
    monkeypatch.setattr(verify, "buchberger", recorded)
    report = check_degeneration(text, gb, analysis)
    assert analyzed == []
    assert built and all(generators == gb.generators for generators in built)
    golden = json.loads((GOLDEN_DIR / "verify_origin_only.json").read_text(encoding="utf-8"))
    pinned = next(r for r in golden["reports"] if r["check"] == "initial_degeneration")
    assert json.loads(json.dumps(report._asdict())) == pinned


def test_degeneration_fixed_point_for_monomial_ideals():
    report = check_degeneration(*prepared("x^2, x*y, y^2"))
    assert report.passed
    assert all(not row["strict"] for row in report.rows)


def test_degeneration_requires_local_support():
    # a second rational point, then a non-rational residual beside the origin
    for text in ("x^2 - x, y", "x^3 - 2*x, y"):
        skipped = f"support of ({text}) is not concentrated at the origin"
        assert check_degeneration(*prepared(text)) == VerificationReport(
            "initial_degeneration", {"ideal": text, "field": "QQ"}, [], {"skipped": skipped}, True
        )


def test_degeneration_across_origin_corpus():
    strict_seen = False
    for text in ORIGIN_CORPUS:
        report = check_degeneration(*prepared(text))
        assert report.passed, text
        strict_seen = strict_seen or any(row["strict"] for row in report.rows)
    assert strict_seen


def test_census_small_values():
    assert socle_census(3).counts == {1: 2, 2: 1}
    assert socle_census(4).counts == {1: 3, 2: 2}
    assert socle_census(1).counts == {1: 1}
    census = socle_census(4)
    assert census.max_attained == socle_bound(4)
    assert sum(census.counts.values()) == census.partition_count
    assert list(census.counts.items()) == [(1, 3), (2, 2)]
    assert str(census.argmax) == "(3,1)"


def test_census_totals_and_max():
    for n in range(1, 31):
        census = socle_census(n)
        assert sum(census.counts.values()) == census.partition_count
        assert census.max_attained == socle_bound(n)


def test_census_matches_enumeration_oracle():
    table = distinct_part_table(30)
    for n in range(1, 31):
        counts, total, max_b2, argmax = census_by_enumeration(n)
        for census in (socle_census(n), socle_census(n, table)):
            assert list(census.counts.items()) == list(counts.items()), n
            assert census.partition_count == total
            assert census.max_attained == max_b2
            assert census.argmax == argmax


def test_census_row_sums_are_partition_numbers():
    p = pentagonal_partition_counts(500)
    table = distinct_part_table(500)
    assert [sum(row) for row in table] == p
    assert p[100] == 190569292 and p[200] == 3972999029388
    assert socle_census(100, table).partition_count == 190569292
    assert socle_census(200, table).partition_count == 3972999029388
    assert socle_census(500, table).max_attained == socle_bound(500)


def test_census_rejects_a_maximum_no_partition_reaches(monkeypatch):
    # row 3 claims one partition with 3 distinct sizes; 1+2+3 > 3
    rows = [[1], [0, 1], [0, 1, 1], [0, 2, 0, 1]]
    monkeypatch.setattr(verify, "distinct_part_table", lambda hi: rows)
    with pytest.raises(LemmaViolation, match="distinct part sizes"):
        socle_census(3)


@pytest.mark.parametrize(
    "field,value",
    [
        ("counts", {1: 4, 2: 2}),  # one count changed, the total left as it was
        ("counts", {1: 3, 2: 1, 3: 1}),  # same total, a wrong maximum
        ("partition_count", 6),
        ("argmax", Partition((2, 1, 1))),  # reaches the maximum, but is not the first
    ],
)
def test_enumeration_catches_a_wrong_census(field, value):
    census = socle_census(4)
    wrong = census._replace(**{field: value})
    assert check_staircase_bound(census, crosscheck_cutoff=4).passed
    assert not check_staircase_bound(wrong, crosscheck_cutoff=4).passed


def test_beyond_cutoff_never_enumerates(monkeypatch):
    def refuse(n):
        raise AssertionError("partitions_of entered beyond the cutoff")

    monkeypatch.setattr(verify, "partitions_of", refuse)
    monkeypatch.setattr(staircase, "partitions_of", refuse)
    for n in (11, 14, 38):
        report = check_staircase_bound(socle_census(n), crosscheck_cutoff=10)
        assert report.passed and report.rows == []


def test_sampler_config_validation():
    with pytest.raises(ConfigError):
        SamplerConfig(prime=6, degree=3, count=1, seed=0)
    with pytest.raises(ConfigError, match="too large"):
        SamplerConfig(prime=2**61 - 1, degree=3, count=1, seed=0)
    with pytest.raises(ConfigError):
        SamplerConfig(prime=7, degree=0, count=1, seed=0)
    with pytest.raises(ConfigError):
        SamplerConfig(prime=7, degree=2, count=-1, seed=0)


def test_sampler_empty_run_passes():
    report = random_ideal_trials(SamplerConfig(prime=101, degree=3, count=0, seed=9))
    assert report.passed
    assert report.summary["accepted"] == 0 and report.summary["draws"] == 0


def test_sampler_all_identities_hold():
    report = random_ideal_trials(SamplerConfig(prime=101, degree=3, count=60, seed=42))
    assert report.passed
    assert report.summary["socle_identity_passes"] == 60
    assert report.summary["multiplicity_bound_passes"] == 60
    assert sum(report.summary["histogram"].values()) == 60


def test_sampler_char_two():
    report = random_ideal_trials(SamplerConfig(prime=2, degree=2, count=50, seed=1))
    assert report.passed
    assert report.summary["accepted"] == 50


def test_sampler_is_deterministic():
    cfg = SamplerConfig(prime=32003, degree=3, count=25, seed=7)
    first = random_ideal_trials(cfg)
    second = random_ideal_trials(cfg)
    assert json.dumps(first._asdict(), sort_keys=True) == json.dumps(
        second._asdict(), sort_keys=True
    )
    different = random_ideal_trials(SamplerConfig(prime=32003, degree=3, count=25, seed=8))
    assert different.summary["draws"] >= 25


def test_report_serialization_round_trip():
    report = check_socle_identity(*prepared("x^2, x*y, y^2"))
    payload = report._asdict()
    assert json.loads(json.dumps(payload)) == payload
    # the command line renders reports; its text view reads the same dict
    text = cli._report_text(payload)
    assert "PASS" in text and "socle_vs_generators" in text


def test_checks_work_over_prime_fields():
    report = check_socle_identity(*prepared("x^2 - 2, y", PrimeField(7)))
    assert report.passed and len(report.rows) == 2
    report = check_multiplicity_formula(*prepared("x^2, x*y, y^2", PrimeField(101)))
    assert report.passed


def test_check_respects_order_argument():
    report = check_socle_identity(*prepared("y - x^2, x^3", QQ, MonomialOrder("lex", "yx")))
    assert report.passed
    assert report.inputs["order"] == "lex:yx"
