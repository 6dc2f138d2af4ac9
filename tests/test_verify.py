"""The verification harness: reports, determinism, pinned hand-checked values."""

import json

import pytest

from punctual.artinian import analyze_quotient
from punctual.errors import ConfigError, SupportNotLocal
from punctual.fields import PrimeField, QQ
from punctual.groebner import buchberger
from punctual.poly import DEFAULT_ORDER, MonomialOrder, parse_generators
from punctual.staircase import socle_bound
from punctual.verify import (
    CURATED_CORPUS,
    ORIGIN_CORPUS,
    SamplerConfig,
    check_degeneration,
    check_multiplicity_formula,
    check_socle_identity,
    check_staircase_bound,
    random_ideal_trials,
    socle_census,
)


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


def test_degeneration_fixed_point_for_monomial_ideals():
    report = check_degeneration(*prepared("x^2, x*y, y^2"))
    assert report.passed
    assert all(not row["strict"] for row in report.rows)


def test_degeneration_requires_local_support():
    with pytest.raises(SupportNotLocal):
        check_degeneration(*prepared("x^2 - x, y"))
    with pytest.raises(SupportNotLocal):
        check_degeneration(*prepared("x^3 - 2*x, y"))


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
    assert json.dumps(first.to_jsonable(), sort_keys=True) == json.dumps(
        second.to_jsonable(), sort_keys=True
    )
    different = random_ideal_trials(SamplerConfig(prime=32003, degree=3, count=25, seed=8))
    assert different.summary["draws"] >= 25


def test_report_serialization_round_trip():
    report = check_socle_identity(*prepared("x^2, x*y, y^2"))
    payload = report.to_jsonable()
    assert json.loads(json.dumps(payload)) == payload
    text = report.to_text()
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
