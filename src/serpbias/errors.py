"""Exception types shared across the package, and the check of a choice-valued setting."""


class SerpBiasError(Exception):
    """Base class for every error raised by this package."""


class InputError(SerpBiasError):
    """Invalid input data: malformed records, broken list invariants, bad sample sizes."""


class ConfigError(SerpBiasError):
    """Invalid measure or test configuration (cutoff, persistence, log base, ...)."""


class MeasureUndefinedError(InputError):
    """The requested measure has no defined value for this data.

    Raised for degenerate group sizes that leave nothing to normalize
    against, for infinite divergences, and for ratio measures applied
    outside their minority-group preconditions.
    """


class DegenerateSampleError(InputError):
    """A zero-variance sample whose mean differs from the null value.

    The test outcome is certain rather than statistical, so no p-value is
    reported.
    """


def check_choice(what: str, value, choices) -> None:
    """Raise ConfigError unless value is one of choices."""
    if value not in choices:
        raise ConfigError(f"unknown {what} {value!r} (expected one of: {', '.join(choices)})")
