"""Command line behavior: exit codes, formats, determinism, golden files."""

import importlib.util
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import punctual.artinian as artinian
import punctual.cli as cli
import punctual.staircase as staircase
import punctual.verify as verify
from punctual.cli import main
from punctual.fields import QQ
from punctual.groebner import buchberger
from punctual.poly import DEFAULT_ORDER, parse_generators

GOLDEN_DIR = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_fat_point(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--ideal", "x^2, x*y, y^2")
    assert code == 0
    assert "colength: 3" in out
    row = [line for line in out.splitlines() if line.startswith("(0, 0)")][0]
    fields = row.split()
    assert fields[2:8] == ["3", "2", "3", "3", "2", "2"]  # length r e b1 b2 socle


def test_analyze_single_point(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--ideal", "x, y", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    component = payload["components"][0]
    assert component["length"] == 1 and component["b2"] == 1 and component["multiplicity"] == 1


def test_analyze_not_zero_dimensional(capsys):
    code, out, err = run_cli(capsys, "analyze", "--ideal", "x")
    assert code == 3
    assert "not zero-dimensional" in err


def test_analyze_parse_error(capsys):
    code, _, err = run_cli(capsys, "analyze", "--ideal", "x^ + y")
    assert code == 2 and "error" in err


def test_analyze_bad_field(capsys):
    code, _, err = run_cli(capsys, "analyze", "--ideal", "x, y", "--field", "Fp:10")
    assert code == 2


def test_huge_prime_is_refused_before_primality_test(capsys):
    # 2^61 - 1 is prime; trial division up to its square root would not finish
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "analyze", "--ideal", "x, y", "--field", f"Fp:{2**61 - 1}"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "too large" in err


@pytest.mark.parametrize(
    "argv,point",
    [
        (["--ideal", "x-1, y-2", "--field", "Fp:2147483647"], ["1", "2"]),
        (
            ["--ideal", "x - 1000000000000000000000000000057, y"],
            ["1000000000000000000000000000057", "0"],
        ),
    ],
)
def test_root_search_is_fast_for_a_huge_field_or_root(capsys, argv, point):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "analyze", *argv, "--format", "json")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    payload = json.loads(out)
    assert payload["colength"] == 1 and payload["residual_dimension"] == 0
    assert [c["point"] for c in payload["components"]] == [point]


def test_oversized_quotient_is_refused_before_its_basis_is_listed(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", "--ideal", "x^99999999, y")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == "error: colength 99999999 exceeds the limit colength <= 121\n"


def test_analyze_lists_the_quotient_basis_once(capsys, monkeypatch):
    calls = []
    original = artinian.quotient_basis
    counted = lambda gb: calls.append(gb) or original(gb)  # noqa: E731
    monkeypatch.setattr(artinian, "quotient_basis", counted)
    monkeypatch.setattr(cli, "quotient_basis", counted)
    code, out, _ = run_cli(capsys, "analyze", "--ideal", "x^2, x*y, y^2", "--format", "csv")
    assert code == 0 and out.count("\n") == 2
    assert len(calls) == 1


def test_colength_limit_is_inclusive(capsys, monkeypatch):
    assert artinian.MAX_COLENGTH == 121
    monkeypatch.setattr(artinian, "MAX_COLENGTH", 9)
    assert run_cli(capsys, "analyze", "--ideal", "x^3, y^3")[0] == 0
    assert run_cli(capsys, "verify", "--ideal", "x^3, x*y, y^4")[0] == 0
    code, out, err = run_cli(capsys, "analyze", "--ideal", "x^5, y^2")
    assert code == 2 and out == "" and "colength 10 exceeds the limit colength <= 9" in err


def test_analyze_residual_note(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--ideal", "x^3 - 2*x, y")
    assert code == 0
    assert "non-rational" in out


def test_analyze_file_input(capsys, tmp_path):
    path = tmp_path / "ideal.txt"
    path.write_text("y - x^2\nx^3\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "analyze", "--file", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["colength"] == 3
    code, _, err = run_cli(capsys, "analyze", "--file", str(tmp_path / "missing.txt"))
    assert code == 2


def test_analyze_file_not_utf8(capsys, tmp_path):
    path = tmp_path / "ideal.txt"
    path.write_bytes(b"\xff\xfex^2\n")
    code, out, err = run_cli(capsys, "analyze", "--file", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "UTF-8" in err


@pytest.mark.parametrize("source", ["--ideal", "--file"])
def test_integer_past_the_digit_limit_is_a_parse_error(capsys, tmp_path, source):
    # int() refuses strings of more than 4300 digits by default
    text = "x - " + "7" * 5000 + ", y"
    if source == "--file":
        path = tmp_path / "ideal.txt"
        path.write_text(text.replace(", ", "\n"), encoding="utf-8")
        text = str(path)
    code, out, err = run_cli(capsys, "analyze", source, text)
    assert code == 2 and out == ""
    assert err == "error: unreadable integer of 5000 digits at position 4\n"


@pytest.mark.parametrize(
    "text,message",
    [
        ("x^2, y, z", "unexpected character 'z' at position 8"),
        ("x^2, y + 3*w", "unexpected character 'w' at position 11"),
        ("x^2, y^2 ^ 3", "unexpected '^' at position 9"),
        ("y, 3^2", "exponent applies only to a variable (position 4)"),
        ("x, y, * x", "'*' with no preceding factor (position 6)"),
        ("x^3, y - " + "7" * 5000, "unreadable integer of 5000 digits at position 9"),
    ],
    ids=["character", "after-a-term", "caret", "integer-exponent", "star", "long-integer"],
)
@pytest.mark.parametrize("source", ["--ideal", "--file"])
def test_parse_error_positions_are_offsets_into_the_ideal_text(
    capsys, tmp_path, source, text, message
):
    # --file reads one generator per line and joins the lines with ", "
    if source == "--file":
        path = tmp_path / "ideal.txt"
        path.write_text(text.replace(", ", "\n"), encoding="utf-8")
        text = str(path)
    code, out, err = run_cli(capsys, "analyze", source, text)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


# each literal is readable, but the point (A, A*B) has a 6000-digit coordinate
HUGE_POINT_IDEAL = f"x - {'3' * 3000}, y - {'5' * 3000}*x"


def test_huge_point_is_analyzed_without_printing_it():
    gb = buchberger(parse_generators(HUGE_POINT_IDEAL, QQ), DEFAULT_ORDER)
    (c,) = artinian.analyze_quotient(gb).components
    a = int("3" * 3000)
    assert c.point == (a, a * int("5" * 3000))
    assert (c.local_length, c.socle, c.multiplicity) == (1, 1, 1)


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_unprintable_basis_is_refused_before_the_analysis(command):
    # a dense pair of degree 5 with 150-digit coefficients: Buchberger takes
    # about a second, its basis has coefficients past the digit limit, and
    # the local split of that basis ran for over a minute before the basis
    # was printed; refused first, either command exits 2 within seconds
    rng = random.Random(1)
    pair = [
        " + ".join(
            f"{rng.randint(10**149, 10**150)}*x^{a}*y^{b}" for a in range(6) for b in range(6 - a)
        )
        for _ in range(2)
    ]
    run = subprocess.run(
        [sys.executable, "-m", "punctual.cli", command, "--ideal", ", ".join(pair)],
        cwd=Path(cli.__file__).resolve().parents[1],
        capture_output=True,
        text=True,
        timeout=20,
    )
    limit = sys.get_int_max_str_digits()
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr == (
        f"error: coordinate or coefficient too large to print (over {limit} digits)\n"
    )


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_coordinate_past_the_digit_limit_is_a_config_error(capsys, command):
    code, out, err = run_cli(capsys, command, "--ideal", HUGE_POINT_IDEAL)
    assert code == 2 and out == ""
    limit = sys.get_int_max_str_digits()
    assert err == f"error: coordinate or coefficient too large to print (over {limit} digits)\n"


def test_analyze_env_var_field(capsys, monkeypatch):
    monkeypatch.setenv("PUNCTUAL_FIELD", "Fp:7")
    code, out, _ = run_cli(capsys, "analyze", "--ideal", "x^2 - 2, y", "--format", "json")
    assert code == 0
    assert json.loads(out)["field"] == "Fp:7"
    # the flag wins over the environment
    code, out, _ = run_cli(
        capsys, "analyze", "--ideal", "x^2 - 2, y", "--field", "QQ", "--format", "json"
    )
    assert json.loads(out)["field"] == "QQ"


def test_analyze_csv_columns(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--ideal", "x^2 - x, y", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == (
        "point_x,point_y,length,nilpotency,generators,b1,b2,socle,"
        "multiplicity,multiplicity_le_length,multiplicity_eq_length"
    )
    assert lines[1] == "0,0,1,1,2,2,1,1,1,true,true"
    assert lines[2] == "1,0,1,1,2,2,1,1,1,true,true"


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify", "--ideal", "y - x^2, x^3")
    assert code == 0
    assert "verdict: PASS" in out
    code, out, _ = run_cli(capsys, "verify", "--ideal", "x^2 - x, y", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    degeneration = [r for r in payload["reports"] if r["check"] == "initial_degeneration"][0]
    assert "skipped" in degeneration["summary"]


def test_verify_exit_codes(capsys):
    assert run_cli(capsys, "verify", "--ideal", "x*y")[0] == 3
    assert run_cli(capsys, "verify", "--ideal", "x +")[0] == 2


SAMPLE_ARGV = ("sample", "--field", "Fp:101", "--count", "5", "--seed", "1")


@pytest.mark.parametrize("command", ["analyze", "verify", "verify --field Fp:7", "sample"])
@pytest.mark.parametrize(
    "ideal,shifted",
    [
        ("y, x^5", ("generator_count",)),  # socle != generators - 1
        ("x^2, x*y, y^2", ("generator_count", "socle_dimension")),  # mu > length
    ],
)
def test_route_disagreement_exits_4(capsys, monkeypatch, command, ideal, shifted):
    # sample draws its own ideals; its first accepted draw trips the same guard
    for name in shifted:
        route = getattr(artinian, name)
        monkeypatch.setattr(artinian, name, lambda lq, route=route: route(lq) + 1)
    argv = SAMPLE_ARGV if command == "sample" else (*command.split(), "--ideal", ideal)
    code, out, err = run_cli(capsys, *argv)
    assert code == 4
    assert out == ""
    assert "internal check failure" in err
    assert "at point (0, 0)" in err
    assert "Fraction(" not in err and "GFElement(" not in err
    guard = "minimal generators" if len(shifted) == 1 else "exceeds local length"
    assert guard in err
    if command == "sample":
        assert "of the drawn ideal (" in err


def test_sweep_range(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n", "1..12")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 12
    assert all("verdict=pass" in line for line in lines)


def test_sweep_single_n_json_census(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n", "3..3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"][0]["census"] == {"1": 2, "2": 1}
    assert payload["results"][0]["argmax"] == "(2,1)"


def test_sweep_range_error(capsys):
    code, _, err = run_cli(capsys, "sweep", "--n", "0..1")
    assert code == 2 and "range" in err
    assert run_cli(capsys, "sweep", "--n", "5..2")[0] == 2
    assert run_cli(capsys, "sweep", "--n", "abc")[0] == 2


def test_census_command(capsys):
    code, out, _ = run_cli(capsys, "census", "--n", "3..4", "--format", "csv")
    assert code == 0
    assert out == "n,b2,count\n3,1,2\n3,2,1\n4,1,3\n4,2,2\n"
    code, out, _ = run_cli(capsys, "census", "--n", "5")
    assert code == 0 and "n=5" in out


def test_census_reaches_n_100(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "census", "--n", "100")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out.startswith("n=100 partitions=190569292 max_b2=13 bound=13 ")


def test_range_and_cutoff_limits():
    assert cli.MAX_RANGE_HI == 1000 and cli.MAX_CROSSCHECK_CUTOFF == 12


@pytest.mark.parametrize(
    "argv,limit",
    [
        (["census", "--n", "1001"], "n <= 1000"),
        (["census", "--n", "1..100000000000"], "n <= 1000"),
        (["sweep", "--n", "999..1001", "--crosscheck-cutoff", "0"], "n <= 1000"),
        (["sweep", "--n", "1..100000000000"], "n <= 1000"),
        (["sweep", "--n", "60", "--crosscheck-cutoff", "60"], "limit 12"),
        (["sweep", "--n", "5", "--crosscheck-cutoff", "13"], "limit 12"),
    ],
)
def test_oversized_census_and_sweep_are_refused_up_front(capsys, argv, limit):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and limit in err


def test_limits_are_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_RANGE_HI", 40)
    assert run_cli(capsys, "census", "--n", "40")[0] == 0
    assert run_cli(capsys, "sweep", "--n", "40", "--crosscheck-cutoff", "12")[0] == 0
    assert run_cli(capsys, "census", "--n", "41")[0] == 2
    monkeypatch.setattr(cli, "MAX_CROSSCHECK_CUTOFF", 5)
    assert run_cli(capsys, "sweep", "--n", "1..6", "--crosscheck-cutoff", "5")[0] == 0
    assert run_cli(capsys, "sweep", "--n", "1..6", "--crosscheck-cutoff", "6")[0] == 2


def test_sweep_exits_4_when_enumeration_disagrees_with_the_table(capsys, monkeypatch):
    build = staircase.distinct_part_table

    def one_count_changed(hi):
        table = build(hi)
        table[5][1] += 1  # 3 partitions of 5 with one part size instead of 2
        return table

    monkeypatch.setattr(cli, "distinct_part_table", one_count_changed)
    code, out, _ = run_cli(capsys, "sweep", "--n", "4..6", "--crosscheck-cutoff", "6")
    assert code == 4
    assert [line.endswith("verdict=FAIL") for line in out.splitlines()] == [False, True, False]


def test_census_and_sweep_beyond_cutoff_never_enumerate(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError("partitions_of entered beyond the cutoff")

    monkeypatch.setattr(verify, "partitions_of", refuse)
    monkeypatch.setattr(staircase, "partitions_of", refuse)
    assert run_cli(capsys, "census", "--n", "1..38")[0] == 0
    assert run_cli(capsys, "sweep", "--n", "1..32", "--crosscheck-cutoff", "0")[0] == 0
    assert run_cli(capsys, "sweep", "--n", "11..40")[0] == 0


def test_sample_command(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--field", "Fp:101", "--degree", "3", "--count", "40", "--seed", "42"
    )
    assert code == 0
    assert "socle identity: 40/40" in out
    assert "verdict: PASS" in out


def test_sample_rejects_rationals(capsys):
    code, _, err = run_cli(
        capsys, "sample", "--field", "QQ", "--count", "5", "--seed", "1"
    )
    assert code == 2 and "prime field" in err


def test_sample_zero_count(capsys):
    code, out, _ = run_cli(capsys, "sample", "--count", "0", "--seed", "5")
    assert code == 0
    assert "accepted: 0 of 0" in out


@pytest.mark.parametrize("degree", ["12", str(10**6)])
def test_sample_degree_above_the_colength_limit_is_refused(capsys, degree):
    # two curves of degree d meet in colength up to d^2, so d = 11 is the
    # largest degree under MAX_COLENGTH = 121
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "sample", "--degree", degree, "--count", "1", "--seed", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == f"error: sampler degree {degree} exceeds the limit degree <= 11\n"
    code, out, _ = run_cli(capsys, "sample", "--degree", "11", "--count", "0", "--seed", "1")
    assert code == 0 and "accepted: 0 of 0" in out


def test_sample_count_above_its_limit_is_refused(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "sample", "--count", str(10**12), "--seed", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == f"error: sampler count {10**12} exceeds the limit count <= 1000\n"
    code, out, _ = run_cli(capsys, "sample", "--degree", "1", "--count", "1000", "--seed", "1")
    assert code == 0 and "accepted: 1000 of 1000" in out


def test_sample_requires_seed(capsys):
    code, _, _ = run_cli(capsys, "sample", "--count", "5")
    assert code == 2


def test_repeated_runs_are_byte_identical(capsys):
    args = ("sample", "--field", "Fp:101", "--count", "30", "--seed", "42", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    args = ("analyze", "--ideal", "x^2, x*y, y^2", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_json_round_trips(capsys):
    for args in (
        ("analyze", "--ideal", "y, x^5"),
        ("sweep", "--n", "2..4"),
        ("sample", "--count", "10", "--seed", "3"),
    ):
        _, out, _ = run_cli(capsys, *args, "--format", "json")
        payload = json.loads(out)
        assert json.loads(json.dumps(payload, sort_keys=True)) == payload


GOLDEN_CASES = {
    "analyze_square_max_ideal.json": "x^2, x*y, y^2",
    "analyze_curvilinear.json": "y, x^5",
    "analyze_single_point.json": "x, y",
}


@pytest.mark.parametrize("name,ideal", sorted(GOLDEN_CASES.items()))
def test_golden_analyze_output(capsys, name, ideal):
    code, out, _ = run_cli(capsys, "analyze", "--ideal", ideal, "--format", "json")
    assert code == 0
    expected = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert out == expected


COMMAND_GOLDEN_CASES = {
    "verify_origin_only.json": ["verify", "--ideal", "y - x^2, x^3", "--format", "json"],
    "verify_four_points_lex_yx.json": [
        "verify", "--ideal", "x^2 - 1, y^2 - 1", "--order", "lex", "--vars", "yx",
        "--format", "json",
    ],
    "verify_socle_two.txt": ["verify", "--ideal", "x^2 + y^3, x*y^3, y^5", "--format", "text"],
    # support off the origin: the degeneration check reports itself skipped
    "verify_skipped_degeneration.txt": ["verify", "--ideal", "x^2 - x, y", "--format", "text"],
    "verify_skipped_degeneration.csv": ["verify", "--ideal", "x^2 - x, y", "--format", "csv"],
    "sweep_1_8_crosscheck.json": [
        "sweep", "--n", "1..8", "--crosscheck-cutoff", "8", "--format", "json",
    ],
    "census_1_38.json": ["census", "--n", "1..38", "--format", "json"],
    "census_1_38.csv": ["census", "--n", "1..38", "--format", "csv"],
    "sweep_1_32.txt": ["sweep", "--n", "1..32", "--crosscheck-cutoff", "0", "--format", "text"],
    # prime fields: root order, point sort, and coefficients printed as residues
    "analyze_four_points_fp7.json": [
        "analyze", "--ideal", "x^2 - 1, y^2 - 1", "--field", "Fp:7", "--format", "json",
    ],
    "analyze_translated_fp7.txt": [
        "analyze", "--ideal", "x^2 - 2*x + 1, x*y + x - y - 1, y^2 + 2*y + 1",
        "--field", "Fp:7",
    ],
    "verify_fp32003.csv": [
        "verify", "--ideal", "x^3, x*y - y^3, y^4", "--field", "Fp:32003", "--format", "csv",
    ],
    "sample_fp101_deg3.json": [
        "sample", "--field", "Fp:101", "--degree", "3", "--count", "20", "--seed", "7",
        "--format", "json",
    ],
    # QQ analyze as csv, and a support with no rational point at all
    "analyze_four_points.csv": ["analyze", "--ideal", "x^2 - 1, y^2 - 1", "--format", "csv"],
    "analyze_no_rational_points.txt": ["analyze", "--ideal", "x^2 + 1, y"],
    "census_1_12.txt": ["census", "--n", "1..12"],
    "sweep_1_9_crosscheck7.csv": [
        "sweep", "--n", "1..9", "--crosscheck-cutoff", "7", "--format", "csv",
    ],
    "sample_fp101_deg3_seed4.txt": [
        "sample", "--field", "Fp:101", "--degree", "3", "--count", "15", "--seed", "4",
    ],
    "sample_fp101_deg3_seed4.csv": [
        "sample", "--field", "Fp:101", "--degree", "3", "--count", "15", "--seed", "4",
        "--format", "csv",
    ],
}


@pytest.mark.parametrize("name", sorted(COMMAND_GOLDEN_CASES))
def test_golden_command_output(capsys, name):
    code, out, _ = run_cli(capsys, *COMMAND_GOLDEN_CASES[name])
    assert code == 0
    assert out == (GOLDEN_DIR / name).read_text(encoding="utf-8")


def test_every_traced_function_exists():
    # perfbench/tracer.py wraps these by module and name; a renamed one
    # would be reported absent and its benchmark metrics read as 0
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module_name, func_name, _ in tracer.TARGETS:
        module = importlib.import_module(f"punctual.{module_name}")
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"
