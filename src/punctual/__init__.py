"""Exact local invariants of zero-dimensional subschemes of the affine plane.

Everything runs over exact coefficient fields (arbitrary-precision
rationals or a prime field): reduced Groebner bases are the canonical
ideal representatives, Artinian quotients are split into local factors by
pure linear algebra on commuting multiplication operators, and the local
invariants (colength, socle dimension, minimal generator count, Betti
numbers, the triangular multiplicity attached to the socle) come out of
exact rank and kernel computations.  Staircase combinatorics of monomial
ideals and a verification harness tie the two routes together.

``nilpotency_index`` returns the index r of a local factor together with
the words Nx^a Ny^b w of degree <= r that span it, built in one pass;
the factor's local ideal is read off those words.  The slower oracles
the tests check the package against (an explicit-generator count,
reducedness and staircase checks, the origin corpus) live with the tests
and are not exported.

Importing the package loads none of its modules: each name in
``__all__`` is resolved on first access (PEP 562) from the module that
defines it, so ``import punctual.cli`` pays only for what the command
line imports.
"""

from importlib import import_module

_EXPORTS = {
    "artinian": """Decomposition LocalInvariants LocalQuotient MultiplicationPair
        analyze_quotient generator_count local_component_at local_components local_invariants
        multiplication_matrices multiplicity_from_socle nilpotency_index quotient_basis
        socle_dimension""",
    "errors": "ConfigError LemmaViolation NotZeroDimensional ParseError PunctualError",
    "fields": "PrimeField QQ RationalField parse_field",
    "groebner": """GroebnerBasis buchberger is_zero_dimensional normal_form spolynomial
        spolynomial_certificate""",
    "poly": """ALL_ORDERS DEFAULT_ORDER Monomial MonomialOrder Polynomial parse_generators
        parse_polynomial""",
    "staircase": """Corners Partition attaining_partition corners monomial_ideal_of
        partitions_of socle_bound""",
    "verify": """CURATED_CORPUS SamplerConfig SocleCensus VerificationReport check_degeneration
        check_multiplicity_formula check_socle_identity check_staircase_bound
        random_ideal_trials socle_census""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
