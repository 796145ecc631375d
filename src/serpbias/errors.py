"""Exception types shared across the package, and the checks of setting values."""


class SerpBiasError(Exception):
    """Base class for every error raised by this package."""


class InputError(SerpBiasError):
    """Invalid input data: malformed records, broken list invariants, bad sample sizes."""


class ConfigError(SerpBiasError):
    """Invalid measure or test configuration (cutoff, persistence, log base, ...)."""


class MeasureUndefinedError(InputError):
    """The requested measure has no defined value for this data.

    Raised for degenerate group sizes that leave nothing to normalize
    against, and for ratio measures applied outside their minority-group
    preconditions.
    """


class DegenerateSampleError(InputError):
    """A zero-variance sample whose mean differs from the null value.

    The test outcome is certain rather than statistical, so no p-value is
    reported.
    """


class ConvergenceError(InputError, ArithmeticError):
    """An iterative method, such as the t-test's continued fraction, ran out of
    iterations on values that came from the data. Also an ArithmeticError."""


def check_choice(what: str, value, choices) -> None:
    """Raise ConfigError unless value is one of choices."""
    if value not in choices:
        raise ConfigError(f"unknown {what} {value!r} (expected one of: {', '.join(choices)})")


def check_positive_int(what: str, value) -> None:
    """Raise ConfigError unless value is an int of at least 1; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{what} must be a positive integer, got {value!r}")


def check_fraction(what: str, value) -> None:
    """Raise ConfigError unless value is a number strictly between 0 and 1."""
    try:
        if 0.0 < value < 1.0:
            return
    except TypeError:  # not a number
        pass
    raise ConfigError(f"{what} must lie strictly between 0 and 1, got {value!r}")
