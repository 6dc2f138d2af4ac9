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
"""

from .artinian import (
    Decomposition,
    LocalInvariants,
    LocalQuotient,
    MultiplicationPair,
    QuotientBasis,
    analyze_quotient,
    generator_count,
    local_component_at,
    local_components,
    local_invariants,
    multiplication_matrices,
    multiplicity_from_socle,
    nilpotency_index,
    quotient_basis,
    socle_dimension,
)
from .errors import (
    ConfigError,
    LemmaViolation,
    NotZeroDimensional,
    ParseError,
    PunctualError,
    SupportNotLocal,
)
from .fields import PrimeField, QQ, RationalField, parse_field
from .groebner import (
    GroebnerBasis,
    buchberger,
    groebner_from_monomials,
    initial_ideal,
    is_zero_dimensional,
    normal_form,
    spolynomial,
    spolynomial_certificate,
)
from .poly import (
    ALL_ORDERS,
    DEFAULT_ORDER,
    Monomial,
    MonomialOrder,
    Polynomial,
    parse_generators,
    parse_polynomial,
)
from .staircase import (
    Corners,
    Partition,
    attaining_partition,
    corners,
    monomial_ideal_of,
    partitions_of,
    socle_bound,
)
from .verify import (
    CURATED_CORPUS,
    SamplerConfig,
    SocleCensus,
    VerificationReport,
    check_degeneration,
    check_multiplicity_formula,
    check_socle_identity,
    check_staircase_bound,
    random_ideal_trials,
    socle_census,
)

__version__ = "0.1.0"
