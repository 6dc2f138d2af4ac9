"""Exception types shared across the package."""


class PunctualError(Exception):
    """Base class for every error raised by this package."""


class ParseError(PunctualError):
    """Polynomial, field, or option text that cannot be parsed."""


class NotZeroDimensional(PunctualError):
    """The ideal does not cut out finitely many points."""


class LemmaViolation(PunctualError):
    """Two independent routes to the same invariant disagreed.

    The identities cross-checked this way are theorems, so a violation
    always indicates an engine bug, never bad input.
    """


class ConfigError(PunctualError):
    """Invalid run configuration for the sampler or the command line."""
