"""One-sample and paired Student t-tests with exact two-tailed p-values.

The two-tailed tail probability comes from the identity
P(|T_df| >= t) = I_x(df/2, 1/2) with x = df/(df + t^2), where I_x is the
regularized incomplete beta function, evaluated here with a modified Lentz
continued fraction. Absolute accuracy is far below 1e-10 over the degrees
of freedom this package encounters.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from itertools import repeat
from operator import sub

from .errors import ConfigError, ConvergenceError, DegenerateSampleError, InputError, check_fraction
from .record import Record

_MAX_ITER = 300
_CF_EPS = 1e-15
_TINY = 1e-300


class TTestResult(Record):
    """Outcome of a two-tailed t-test.

    reject_at holds the significance level at which the null hypothesis was
    rejected, or None when it was not rejected (or no level was requested).
    """

    t_stat: float
    df: int
    p_value: float
    sample_mean: float
    std_err: float
    reject_at: float | None

    def __init__(
        self, t_stat: float, df: int, p_value: float, sample_mean: float, std_err: float,
        reject_at: float | None = None,
    ):
        fields = self.__dict__
        fields["t_stat"], fields["df"] = t_stat, df
        fields["p_value"], fields["sample_mean"] = p_value, sample_mean
        fields["std_err"], fields["reject_at"] = std_err, reject_at


def _betacf(a: float, b: float, x: float) -> float:
    # Modified Lentz evaluation of the incomplete beta continued fraction.
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    # Lentz's clamp, _TINY in place of a near-zero term, keeps the ratios off zero.
    c = 1.0
    d = 1.0 / (_TINY if abs(d := 1.0 - qab * x / qap) < _TINY else d)
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        # Each iteration takes one even and one odd term of the fraction.
        for coeff in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 / (_TINY if abs(d := 1.0 + coeff * d) < _TINY else d)
            c = _TINY if abs(c := 1.0 + coeff / c) < _TINY else c
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ConvergenceError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]; other arguments raise ValueError."""
    try:
        if not (a > 0.0 and b > 0.0):  # NaN included
            raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"x must lie in [0, 1], got {x}")
    except TypeError:  # text or another non-number
        raise ValueError(f"a, b and x must be numbers, got a={a!r}, b={b!r}, x={x!r}") from None
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # The continued fraction converges fast only on one side of the mean;
    # use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) for the other side.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf(t: float, df: int) -> float:
    """Two-tailed tail probability P(|T_df| >= |t|).

    df must be an int of at least 1, and a bool is not one, else ConfigError;
    t must be a number other than NaN, and text is not one, else InputError.
    """
    if isinstance(df, bool) or not isinstance(df, int) or df < 1:
        raise ConfigError(f"degrees of freedom must be an integer >= 1, got {df!r}")
    try:
        number = math.nan if isinstance(t, (str, bytes, bytearray)) else float(t)
    except OverflowError:  # an int past the float range
        number = math.inf
    except (TypeError, ValueError):
        number = math.nan
    if math.isnan(number):
        raise InputError(f"t statistic must be a number other than NaN, got {t!r}")
    x = df / (df + number * number)
    return regularized_incomplete_beta(0.5 * df, 0.5, x)


def _finite(values: Iterable, what: str = "observation") -> list[float]:
    """values as floats; InputError naming the first one that is not a finite
    number (text is not one)."""
    values = list(values)
    try:
        # Text makes sum raise, and a NaN or an infinity makes it non-finite.
        if math.isfinite(sum(values)):
            return list(map(float, values))
    except (TypeError, ValueError, OverflowError):
        pass
    floats = []
    for value in values:
        try:
            x = math.nan if isinstance(value, (str, bytes, bytearray)) else float(value)
        except (TypeError, ValueError, OverflowError):
            x = math.nan
        if not math.isfinite(x):
            raise InputError(f"t-test {what} must be a finite number, got {value!r}")
        floats.append(x)
    return floats


def one_sample_ttest(
    values: Sequence[float], mu0: float = 0.0, alpha: float | None = None
) -> TTestResult:
    """Two-tailed t-test of the null hypothesis that the true mean equals mu0.

    A zero-variance sample sitting exactly on mu0 yields the degenerate
    result t = 0, p = 1; a zero-variance sample anywhere else makes the
    outcome certain and raises DegenerateSampleError instead of faking p = 0.
    An observation or mu0 that is not a finite number raises InputError, and
    an alpha that is neither None nor a number in (0, 1) raises ConfigError.
    """
    if alpha is not None:
        check_fraction("alpha", alpha)
    vals = _finite(values)
    [mu0] = _finite([mu0], "null mean")
    return _ttest(vals, mu0, alpha)


def _ttest(vals: list[float], mu0: float, alpha: float | None) -> TTestResult:
    """one_sample_ttest on checked values: finite floats, as is mu0."""
    n = len(vals)
    if n < 2:
        raise InputError(f"t-test needs at least 2 observations, got {n}")
    df = n - 1
    # Constancy is checked on the values themselves: the rounded mean of a
    # constant sample need not equal the constant, so a variance test alone
    # would let a zero-spread sample through with an absurd t statistic.
    if vals.count(vals[0]) == n:
        if vals[0] == mu0:
            return TTestResult(0.0, df, 1.0, vals[0], 0.0, None)
        raise DegenerateSampleError(
            f"all {n} observations equal {vals[0]!r} while the null mean is {mu0!r}; "
            "the sample has no variance and the outcome is certain"
        )
    # A sample whose largest magnitude, mu0 included, is below 2**-421 or from
    # 2**480 up is scaled by a power of two first, so its mean and squares stay
    # clear of subnormals and overflow, and unscaled at the end; both steps are
    # exact. Others keep their bits, as pow(x, 2) is not always correctly rounded.
    _, exponent = math.frexp(max(abs(mu0), max(vals), -min(vals)))
    if -421 < exponent <= 480:
        exponent = 0
    else:
        vals = [math.ldexp(v, -exponent) for v in vals]
    mean = math.fsum(vals) / n
    variance = math.fsum(map(pow, map(sub, vals, repeat(mean)), repeat(2))) / (n - 1)
    std_err = math.sqrt(variance / n)
    sample_mean, sample_err = math.ldexp(mean, exponent), math.ldexp(std_err, exponent)
    if sample_err == 0.0:
        raise DegenerateSampleError(
            f"sample spread is below floating-point resolution around {sample_mean!r}; "
            "the sample has no variance and the outcome is certain"
        )
    t_stat = (mean - math.ldexp(mu0, -exponent)) / std_err
    p_value = student_t_sf(t_stat, df)
    reject_at = alpha if alpha is not None and p_value < alpha else None
    return TTestResult(t_stat, df, p_value, sample_mean, sample_err, reject_at)


def paired_ttest(
    a: Sequence[float], b: Sequence[float], alpha: float | None = None
) -> TTestResult:
    """Two-tailed paired t-test: one-sample test on the per-position differences.
    Observations and their differences must be finite numbers, else InputError;
    alpha is checked as in one_sample_ttest."""
    if alpha is not None:
        check_fraction("alpha", alpha)
    a, b = _finite(a), _finite(b)
    if len(a) != len(b):
        raise InputError(f"paired samples differ in length: {len(a)} vs {len(b)}")
    diffs = list(map(sub, a, b))
    # Differences of finite observations are finite unless one overflows, so
    # each is checked only when their sum is not finite.
    return _ttest(diffs if math.isfinite(sum(diffs)) else _finite(diffs), 0.0, alpha)
