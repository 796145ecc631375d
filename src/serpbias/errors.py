"""Exception types shared across the package; `real`, `integer`, `choice`, `collection`
and `instance`, the one reading of each kind of argument; setting checks and the text
of a refused value."""

import math
import sys
from collections.abc import Iterator


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


def digit_limit() -> str:
    """Names Python's limit on the digits of an integer read from text. json's
    own message for it advises programs (sys.set_int_max_str_digits)."""
    return f"an integer exceeds the limit of {sys.get_int_max_str_digits()} digits"


def shown(value, form=repr) -> str:
    """form(value) for a refusal's message, or a short stand-in when value is or
    holds an integer too long for Python to write in decimal."""
    try:
        return form(value)
    except ValueError:
        digits = f"an integer of more than {sys.get_int_max_str_digits()} digits"
        return digits if isinstance(value, int) else f"a {type(value).__name__} holding {digits}"


def real(value) -> float | None:
    """value as a float, or an infinity past its range; None for text or what float() refuses."""
    try:
        return None if isinstance(value, (str, bytes, bytearray)) else float(value)
    except OverflowError:  # an int or a Fraction past the float range
        return -math.inf if value < 0 else math.inf
    except (TypeError, ValueError):
        return None


def integer(what: str, value, low: int = 1, error: type = ConfigError) -> int:
    """value as a plain int; error unless it is an int, and a bool is not one, from
    low up to the largest float, as it may enter float arithmetic."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise error(f"{what} must be an integer >= {low}, got {shown(value)}")
    if value > sys.float_info.max:
        raise error(f"{what} must lie in the float range, up to 1.8e308")
    return int(value)


def choice(what: str, value, choices, error: type = ConfigError):
    """choices[value] for a dict of choices, else value; error unless value is one of them."""
    try:
        if value in choices:
            return choices[value] if type(choices) is dict else value
    except TypeError:  # an unhashable value tested against a dict
        pass
    raise error(f"unknown {what} {shown(value)} (expected one of: {', '.join(choices)})")


def collection(what: str, items: str, value, error: type = InputError) -> Iterator:
    """iter(value); error if value is one whole text (str, bytes, bytearray) or not iterable."""
    if isinstance(value, (str, bytes, bytearray)):
        got = f"one whole text ({type(value).__name__})"
    else:
        try:
            return iter(value)
        except TypeError:
            got = shown(value)
    raise error(f"{what} must be an iterable of {items}, got {got}")


def instance(what: str, value, kind, noun: str):
    """value; InputError unless it is a kind (a type or a tuple of types), which noun names."""
    if isinstance(value, kind):
        return value
    raise InputError(f"{what} must be {noun}, got {type(value).__name__} {shown(value)}")


def check_fraction(what: str, value) -> float:
    """value as a float; ConfigError unless it is a number strictly between 0 and 1."""
    number = real(value)
    if number is not None and 0.0 < number < 1.0:
        return number
    raise ConfigError(f"{what} must lie strictly between 0 and 1, got {shown(value)}")
