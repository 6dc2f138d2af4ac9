"""The package surface: lazy exports, start-up imports, and record semantics."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import punctual
from punctual.artinian import (
    analyze_quotient,
    local_component_at,
    local_components,
    multiplication_matrices,
    quotient_basis,
    socle_dimension,
)
from punctual.errors import ConfigError
from punctual.fields import QQ
from punctual.groebner import buchberger
from punctual.linalg import krylov_dependence
from punctual.poly import ALL_ORDERS, DEFAULT_ORDER, MonomialOrder, parse_generators
from punctual.staircase import Partition, corners
from punctual.verify import SamplerConfig, check_socle_identity, socle_census

SRC = Path(__file__).resolve().parent.parent / "src"

# every name the package exports
EXPORTS = """
    ALL_ORDERS CURATED_CORPUS ConfigError Corners DEFAULT_ORDER Decomposition GroebnerBasis
    LemmaViolation LocalInvariants LocalQuotient Monomial MonomialOrder MultiplicationPair
    NotZeroDimensional ParseError Partition Polynomial PrimeField PunctualError QQ
    RationalField SamplerConfig SocleCensus VerificationReport
    analyze_quotient attaining_partition buchberger check_degeneration
    check_multiplicity_formula check_socle_identity check_staircase_bound corners
    generator_count is_zero_dimensional local_component_at local_components
    local_invariants monomial_ideal_of multiplication_matrices multiplicity_from_socle
    nilpotency_index normal_form parse_field parse_generators parse_polynomial
    partitions_of quotient_basis random_ideal_trials socle_bound socle_census
    socle_dimension spolynomial spolynomial_certificate
""".split()

# run in a fresh interpreter: what importing the package, importing the
# command line and one analyze add to sys.modules, then census and verify
STARTUP_PROBE = """
import contextlib, io, sys
before = set(sys.modules)
import punctual
package_only = sorted(set(sys.modules) - before)
import punctual.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["analyze", "--ideal", "x^2, y"])]
    added = sorted(set(sys.modules) - before)
    codes += [cli.main(["census", "--n", "1..6"]), cli.main(["verify", "--ideal", "x^2, y"])]
print(repr((package_only, added, codes)))
"""


def test_importing_the_package_or_analyzing_loads_no_dataclass_machinery():
    result = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    package_only, added, codes = ast.literal_eval(result.stdout)
    assert [name for name in package_only if name.startswith("punctual.")] == []
    # the text output of analyze needs neither the csv nor the json writer
    assert {"dataclasses", "inspect", "csv", "json"}.isdisjoint(added), added
    assert codes == [0, 0, 0]


def test_every_export_is_its_defining_modules_object():
    assert sorted(punctual.__all__) == sorted(EXPORTS)
    for name in punctual.__all__:
        module = importlib.import_module(f"punctual.{punctual._MODULE_OF[name]}")
        assert getattr(punctual, name) is getattr(module, name), name


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from punctual import *", namespace)
    assert all(namespace[name] is getattr(punctual, name) for name in EXPORTS)
    assert set(EXPORTS) <= set(dir(punctual))
    assert "__version__" in dir(punctual) and punctual.__version__ == "0.1.0"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; a name in an annotation,
    quoted or not, counts as read, and ``from __future__`` is exempt."""
    tree = ast.parse(source)
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            read.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    read |= {n.id for n in ast.walk(ast.parse(part.value)) if isinstance(n, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_are_found():
    source = """
from __future__ import annotations
import os.path
from .errors import ConfigError, SupportNotLocal
from .verify import VerificationReport as Report
def f(x: "Monomial") -> Report:
    raise ConfigError(os.sep)
"""
    assert unused_imports(source) == ["SupportNotLocal"]
    assert unused_imports("from .poly import Monomial\ndef g(m: 'Monomial'): pass") == []


@pytest.mark.parametrize("path", sorted((SRC / "punctual").glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def dead_definitions(sources: dict[str, str], exempt: set[str]) -> list[str]:
    """``module.name`` of each module-level function, class and constant in
    ``sources`` (module name -> source) that its own module never reads and
    no other module imports by name; dunder names and ``exempt`` are kept."""
    defined, read = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(f"{module}.{node.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {
                    f"{module}.{n.id}" for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
                }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(f"{module}.{node.id}")
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                read |= {f"{node.module}.{a.name}" for a in node.names}
    dunder = lambda qualified: qualified.partition(".")[2].startswith("__")  # noqa: E731
    return sorted(qualified for qualified in defined - read - exempt if not dunder(qualified))


def test_dead_definitions_are_found():
    sources = {
        "a": "from .b import used\nLIMIT = 3\ndef helper(): return used(LIMIT)\n__all__ = []",
        "b": "def used(n): return n\ndef _leftover(): pass\nclass Kept: pass\nCOLS, ROWS = [], []",
        # a copy of a.helper that only the other module reads
        "c": "def helper(): pass\ndef table(): return helper()",
    }
    dead = ["a.helper", "b.COLS", "b.ROWS", "b._leftover", "c.table"]
    assert dead_definitions(sources, {"b.Kept"}) == dead
    assert dead_definitions(sources, {"b.Kept", *dead}) == []


def test_every_module_level_definition_is_read():
    # the package exports and the functions perfbench/tracer.py wraps are
    # read from outside src/; everything else must be read inside it
    path = SRC.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    exempt = {f"{punctual._MODULE_OF[name]}.{name}" for name in punctual.__all__}
    exempt |= {f"{module}.{name}" for module, name, _ in tracer.TARGETS}
    sources = {p.stem: p.read_text(encoding="utf-8") for p in (SRC / "punctual").glob("*.py")}
    assert dead_definitions(sources, exempt) == []


def test_an_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_export'"):
        punctual.no_such_export
    assert not hasattr(punctual, "dataclass")


def frozen_records():
    gb = buchberger(parse_generators("x^2 - x, y", QQ), DEFAULT_ORDER)
    qb = quotient_basis(gb)
    analysis = analyze_quotient(gb, qb)
    partition = Partition((2, 1))
    return [
        gb,
        DEFAULT_ORDER,
        multiplication_matrices(qb, gb),
        local_components(gb),
        analysis,
        analysis.components[0],
        partition,
        corners(partition),
        socle_census(4),
        SamplerConfig(prime=101, degree=3, count=1, seed=0),
        check_socle_identity("x^2 - x, y", gb, analysis),
    ]


def test_frozen_records_refuse_attribute_assignment():
    for record in frozen_records():
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.new_attribute = 1


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: MonomialOrder("bogus"), "unknown order tag 'bogus'"),
        (lambda: MonomialOrder("lex", "zx"), "unknown precedence 'zx'"),
        (lambda: Partition((1, 2)), "weakly decreasing"),
        (lambda: Partition(()), "at least one part"),
        (lambda: Partition((2, 0)), "positive"),
    ],
)
def test_invalid_orders_and_partitions_are_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"prime": 2**31}, "too large"),
        ({"prime": 6}, "not prime"),
        ({"degree": 0}, "at least 1"),
        ({"degree": 12}, "limit degree <= 11"),
        ({"count": -1}, "non-negative"),
        ({"count": 1001}, "limit count <= 1000"),
    ],
)
def test_invalid_sampler_configs_are_refused(fields, message):
    with pytest.raises(ConfigError, match=message):
        SamplerConfig(**{"prime": 101, "degree": 3, "count": 1, "seed": 0, **fields})


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: SamplerConfig(101, 3, 1, 0)._replace(prime=6), ConfigError, "not prime"),
        (lambda: SamplerConfig._make([6, 3, 1, 0]), ConfigError, "not prime"),
        (lambda: MonomialOrder()._replace(tag="bogus"), ValueError, "unknown order tag"),
        (lambda: MonomialOrder._make(["lex", "zx"]), ValueError, "unknown precedence"),
        (lambda: Partition((3, 1))._replace(parts=(1, 3)), ValueError, "weakly decreasing"),
    ],
)
def test_replace_and_make_validate_like_the_constructor(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_a_valid_replace_returns_an_equal_record():
    assert SamplerConfig(101, 3, 1, 0)._replace(seed=5) == SamplerConfig(101, 3, 1, 5)
    assert MonomialOrder()._replace(tag="lex") == MonomialOrder("lex", "xy")
    assert Partition((3, 1))._replace(parts=(3, 3)) == Partition((3, 3))
    assert type(Partition._make([(2, 1)])) is Partition


def test_order_and_basis_equality_and_hash():
    assert MonomialOrder() == DEFAULT_ORDER == MonomialOrder("degrevlex", "xy")
    assert MonomialOrder("lex") != MonomialOrder("lex", "yx")
    assert len(set(ALL_ORDERS)) == len(ALL_ORDERS) == 6
    # the hash of the field values, as a frozen dataclass computed it
    assert hash(MonomialOrder("lex", "yx")) == hash(("lex", "yx"))
    assert repr(MonomialOrder("lex")) == "MonomialOrder(tag='lex', precedence='xy')"
    gens = parse_generators("y - x^2, x^3", QQ)
    a, b = buchberger(gens, DEFAULT_ORDER), buchberger(gens, DEFAULT_ORDER)
    assert a == b and hash(a) == hash(b) == hash((a.order, a.field, a.generators, a.lms))
    assert a != buchberger(gens, MonomialOrder("lex", "yx"))


def test_cached_records_compare_without_their_caches():
    gb = buchberger(parse_generators("x^2, x*y, y^2", QQ), DEFAULT_ORDER)
    qb = quotient_basis(gb)
    pair, again = multiplication_matrices(qb, gb), multiplication_matrices(qb, gb)
    krylov_dependence(pair.on_x.columns, [1] * len(qb), 32003, pair.on_x.packed)
    assert pair.on_x.packed[32003] and not again.on_x.packed and pair == again
    # a LocalQuotient is built complete and compares by every field
    (lq,) = local_components(gb).components
    other = local_component_at(gb, (QQ.zero(), QQ.zero()))
    assert lq.x_kernel and lq == other and socle_dimension(lq) == 2
    for name in lq._fields:
        assert lq != other._replace(**{name: None}), name
    for record in (lq, pair.on_x):
        with pytest.raises(TypeError):
            hash(record)
        with pytest.raises(AttributeError):
            record.new_attribute = 1
    assert len(pair.on_x) == len(qb) == 3
