"""t-test numerics against published critical values and scipy."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import serpbias.stats
from serpbias import (
    ConfigError,
    ConvergenceError,
    DegenerateSampleError,
    InputError,
    TTestResult,
    one_sample_ttest,
    paired_ttest,
    regularized_incomplete_beta,
    student_t_sf,
)
from serpbias.stats import Sample


class TestSurvivalFunction:
    def test_zero_statistic(self):
        for df in (1, 2, 5, 30, 100):
            assert student_t_sf(0.0, df) == 1.0

    def test_huge_statistic_vanishes(self):
        assert student_t_sf(1e6, 5) < 1e-10

    def test_critical_values_from_tables(self):
        # Two-tailed 5% critical points of the Student t distribution.
        assert student_t_sf(4.303, 2) == pytest.approx(0.05, abs=5e-4)
        assert student_t_sf(2.776, 4) == pytest.approx(0.05, abs=5e-4)
        assert student_t_sf(2.045, 29) == pytest.approx(0.05, abs=5e-4)
        assert student_t_sf(1.960, 10**6) == pytest.approx(0.05, abs=5e-4)

    def test_symmetric_in_t(self):
        for t in (0.3, 1.7, 4.2):
            assert student_t_sf(-t, 7) == student_t_sf(t, 7)

    def test_matches_scipy_everywhere(self):
        for df in (1, 2, 3, 4, 5, 10, 29, 56, 100, 500):
            for t in (0.0, 0.25, 0.5, 1.0, 2.0, 2.776, 4.303, 8.0, 20.0, 100.0):
                expected = 2.0 * scipy.stats.t.sf(t, df)
                assert student_t_sf(t, df) == pytest.approx(expected, abs=1e-12)
        # The bounds the module docstring states for larger df, over its grid of t.
        grid = [i / 1000 for i in range(1, 8001)]
        for df, bound in ((10**3, 1.1e-11), (10**4, 1.6e-10)):
            expected = 2.0 * scipy.stats.t.sf(grid, df)
            assert max(abs(student_t_sf(t, df) - e) for t, e in zip(grid, expected)) <= bound

    def test_strictly_decreasing_in_t(self):
        for df in (1, 2, 5, 30):
            grid = [0.0, 0.1, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0]
            values = [student_t_sf(t, df) for t in grid]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_df_validation(self):
        with pytest.raises(ConfigError):
            student_t_sf(1.0, 0)

    def test_df_past_the_float_range_is_refused(self):
        assert student_t_sf(1.0, 10**308) == 1.0
        for df in (10**309, 10**400):
            with pytest.raises(ConfigError, match="^degrees of freedom must lie in the float"):
                student_t_sf(1.0, df)

    @pytest.mark.parametrize("df", [True, False, 2.0, "3"])
    def test_df_must_be_an_int_and_not_a_bool(self, df):
        with pytest.raises(ConfigError, match="degrees of freedom"):
            student_t_sf(1.0, df)

    @pytest.mark.parametrize("t", ["1", b"1", None, math.nan, 1j])
    def test_t_must_be_a_number_other_than_nan(self, t):
        with pytest.raises(InputError, match="t statistic must be a number"):
            student_t_sf(t, 3)

    def test_infinite_t_has_no_tail(self):
        assert student_t_sf(math.inf, 3) == student_t_sf(-math.inf, 3) == 0.0
        assert student_t_sf(10**400, 3) == 0.0


class TestIncompleteBeta:
    def test_endpoints(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_matches_scipy_grid(self):
        for a in (0.5, 1.0, 2.5, 10.0, 28.0):
            for b in (0.5, 1.0, 3.5, 12.0):
                for x in (1e-8, 0.01, 0.2, 0.5, 0.8, 0.99, 1 - 1e-8):
                    expected = scipy.special.betainc(a, b, x)
                    assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                        expected, abs=1e-12
                    )

    def test_non_convergence_is_an_input_and_arithmetic_error(self, monkeypatch):
        monkeypatch.setattr(serpbias.stats, "_MAX_ITER", 1)
        with pytest.raises(ConvergenceError) as info:
            regularized_incomplete_beta(10.0, 0.5, 0.9)
        assert isinstance(info.value, ArithmeticError)
        assert isinstance(info.value, InputError)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)
        for a, b in ((math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError, match="must be positive"):
                regularized_incomplete_beta(a, b, 0.5)

    @pytest.mark.parametrize("args", [("1", 1.0, 0.5), (1.0, None, 0.5), (1.0, 1.0, "0.5")])
    def test_non_numbers_are_value_errors(self, args):
        with pytest.raises(ValueError, match="must be numbers"):
            regularized_incomplete_beta(*args)


def exact_t_squared(values):
    """n * mean**2 / variance of the floats in values, computed exactly; None if constant."""
    xs = [Fraction(v) for v in values]
    mean = sum(xs) / len(xs)
    variance = sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)
    return len(xs) * mean**2 / variance if variance else None


class TestOneSample:
    def test_symmetric_pair_is_null(self):
        res = one_sample_ttest([-1.0, 1.0])
        assert res.t_stat == 0.0
        assert res.p_value == 1.0
        assert res.df == 1

    def test_three_point_example(self):
        res = one_sample_ttest([0.2, 0.4, 0.6])
        assert res.t_stat == pytest.approx(3.4641, abs=1e-4)
        assert res.df == 2
        assert res.p_value == pytest.approx(0.0742, abs=1e-4)
        scipy_res = scipy.stats.ttest_1samp([0.2, 0.4, 0.6], 0.0)
        assert res.t_stat == pytest.approx(scipy_res.statistic, abs=1e-10)
        assert res.p_value == pytest.approx(scipy_res.pvalue, abs=1e-12)

    def test_nonzero_null_mean(self):
        res = one_sample_ttest([0.2, 0.4, 0.6], mu0=0.4)
        assert res.t_stat == pytest.approx(0.0, abs=1e-12)
        assert res.p_value == pytest.approx(1.0, abs=1e-12)

    def test_too_few_observations(self):
        with pytest.raises(InputError, match="at least 2"):
            one_sample_ttest([0.5])

    def test_zero_variance_on_null_is_degenerate_unit(self):
        res = one_sample_ttest([0.0, 0.0, 0.0])
        assert res.t_stat == 0.0
        assert res.p_value == 1.0
        assert res.std_err == 0.0

    def test_zero_variance_off_null_is_certain(self):
        with pytest.raises(DegenerateSampleError, match="no variance"):
            one_sample_ttest([0.2, 0.2, 0.2])

    def test_reject_flag(self):
        strong = one_sample_ttest([1.0, 1.1, 0.9, 1.05, 0.95], alpha=0.05)
        assert strong.reject_at == 0.05
        weak = one_sample_ttest([-1.0, 1.0, 0.5], alpha=0.05)
        assert weak.reject_at is None

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=3,
            max_size=30,
        ),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=80)
    # Squared deviations of this sample are subnormal unless scaled first.
    @example(values=[0.0, 0.0, 1.7147755278590442e-155], c=0.001953125)
    # The mean of these subnormal values rounds coarsely unless scaled first.
    @example(values=[0.0, 2.2250738585e-313, 2.2250738585e-313], c=0.03125)
    # Multiplying by 3 rounds the one-ulp spread, so the scaled sample's exact
    # variance is 1.78 c**2 times the original's: not a scaled copy.
    @example(values=[100.0, 100.0, 99.99999999999999], c=3.0)
    def test_scale_invariance(self, values, c):
        try:
            base = one_sample_ttest(values)
        except DegenerateSampleError:
            return
        if base.std_err == 0.0:
            return
        scaled_values = [v * c for v in values]
        # The premise: rounding v * c left the sample's exact t statistic as it was.
        t2, scaled_t2 = exact_t_squared(values), exact_t_squared(scaled_values)
        assume(scaled_t2 is not None and abs(scaled_t2 - t2) <= 1e-12 * max(t2, 1))
        scaled = one_sample_ttest(scaled_values)
        assert scaled.t_stat == pytest.approx(base.t_stat, rel=1e-9, abs=1e-9)
        assert scaled.p_value == pytest.approx(base.p_value, rel=1e-9, abs=1e-12)

    def test_finite_observations_whose_sum_overflows(self):
        # Each value is finite and their float sum is not, so each is checked
        # on its own; the test then runs on a copy scaled by a power of two.
        values = [1e308, 1.7e308, 1.2e308, 1.5e308]
        scaled_values = [math.ldexp(v, -600) for v in values]
        res, scaled = one_sample_ttest(values), one_sample_ttest(scaled_values)
        assert (res.t_stat, res.p_value) == (scaled.t_stat, scaled.p_value)
        assert res.sample_mean == math.ldexp(scaled.sample_mean, 600)
        ref = scipy.stats.ttest_1samp(scaled_values, 0.0)
        assert scaled.t_stat == pytest.approx(ref.statistic, rel=1e-10)
        assert scaled.p_value == pytest.approx(ref.pvalue, abs=1e-12)

    def test_matches_scipy_on_random_samples(self):
        rng = random.Random(8)
        for _ in range(50):
            values = [rng.gauss(0.1, 1.0) for _ in range(rng.randrange(3, 40))]
            res = one_sample_ttest(values)
            ref = scipy.stats.ttest_1samp(values, 0.0)
            assert res.t_stat == pytest.approx(ref.statistic, rel=1e-10)
            assert res.p_value == pytest.approx(ref.pvalue, abs=1e-12)


class TestPaired:
    def test_identical_samples(self):
        res = paired_ttest([0.3, 0.1, 0.4], [0.3, 0.1, 0.4])
        assert res.t_stat == 0.0
        assert res.p_value == 1.0

    def test_reduces_to_one_sample_on_differences(self):
        res = paired_ttest([0.1, 0.2, 0.3], [0.0, 0.0, 0.0])
        direct = one_sample_ttest([0.1, 0.2, 0.3])
        assert res == direct

    def test_swap_negates_t(self):
        a = [0.5, 0.7, 0.2, 0.9]
        b = [0.1, 0.4, 0.3, 0.2]
        fwd = paired_ttest(a, b)
        rev = paired_ttest(b, a)
        assert rev.t_stat == -fwd.t_stat
        assert rev.p_value == fwd.p_value

    def test_length_mismatch(self):
        with pytest.raises(InputError, match="differ in length"):
            paired_ttest([1.0, 2.0], [1.0])

    def test_matches_scipy(self):
        rng = random.Random(9)
        a = [rng.gauss(0.0, 1.0) for _ in range(25)]
        b = [rng.gauss(0.2, 1.0) for _ in range(25)]
        res = paired_ttest(a, b)
        ref = scipy.stats.ttest_rel(a, b)
        assert res.t_stat == pytest.approx(ref.statistic, rel=1e-10)
        assert res.p_value == pytest.approx(ref.pvalue, abs=1e-12)


@pytest.mark.parametrize(
    "call",
    [
        lambda: one_sample_ttest([math.nan, 1.0, 2.0]),
        lambda: one_sample_ttest([math.inf, 1.0, 2.0]),
        lambda: one_sample_ttest([1.0, 2.0, 3.0], mu0=math.nan),
        lambda: paired_ttest([1e308, 0.0], [-1e308, 0.0]),
        lambda: one_sample_ttest(["a", 1.0]),
        lambda: one_sample_ttest(["1.5", 1.0]),
        lambda: paired_ttest([1.0, 2.0], [1.0, None]),
    ],
    ids=["nan", "inf", "nan-null-mean", "overflowing-difference", "text", "numeric-text", "none"],
)
def test_observations_must_be_finite_numbers(call):
    with pytest.raises(InputError, match="must be a finite number, got "):
        call()


@pytest.mark.parametrize("alpha", ["0.05", True, 0.0, 1.0, 2.0, math.nan])
@pytest.mark.parametrize(
    "test",
    [
        lambda alpha: one_sample_ttest([0.1, 0.2, 0.4], alpha=alpha),
        lambda alpha: paired_ttest([0.1, 0.2, 0.4], [0.0, 0.0, 0.0], alpha=alpha),
    ],
    ids=["one-sample", "paired"],
)
def test_alpha_must_lie_strictly_between_0_and_1(test, alpha):
    with pytest.raises(ConfigError, match="^alpha must lie strictly between 0 and 1, got "):
        test(alpha)


def test_alpha_is_checked_before_the_observations():
    with pytest.raises(ConfigError, match="^alpha"):
        one_sample_ttest([math.nan], mu0=math.nan, alpha=2.0)
    with pytest.raises(ConfigError, match="^alpha"):
        paired_ttest([1.0], [None, 2.0], alpha="0.05")


def test_null_rejection_rate_is_calibrated():
    # Smaller sibling of the acceptance check: 2000 null samples at alpha=0.05.
    rng = np.random.default_rng(1234)
    samples = rng.normal(0.0, 1.0, size=(2000, 20))
    rejections = sum(1 for row in samples if one_sample_ttest(row).p_value < 0.05)
    assert rejections / 2000 == pytest.approx(0.05, abs=0.02)


# Reference copies of the t-tests as they were written with a Python step
# per value; the library must agree with them bit for bit.

def reference_betacf(a, b, x):
    def nonzero(v):
        return 1e-300 if abs(v) < 1e-300 else v

    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 / nonzero(1.0 - qab * x / qap)
    h = d
    for m in range(1, 301):
        m2 = 2 * m
        for coeff in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 / nonzero(1.0 + coeff * d)
            c = nonzero(1.0 + coeff / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise ConvergenceError("incomplete beta continued fraction did not converge")


def reference_one_sample(values, mu0=0.0, alpha=None):
    vals = serpbias.stats._finite(values)
    [mu0] = serpbias.stats._finite([mu0], "null mean")
    n = len(vals)
    if n < 2:
        raise InputError(f"t-test needs at least 2 observations, got {n}")
    df = n - 1
    if all(v == vals[0] for v in vals):
        if vals[0] == mu0:
            return serpbias.stats.TTestResult(0.0, df, 1.0, vals[0], 0.0, None)
        raise DegenerateSampleError(
            f"all {n} observations equal {vals[0]!r} while the null mean is {mu0!r}; "
            "the sample has no variance and the outcome is certain"
        )
    _, exponent = math.frexp(max(abs(mu0), *map(abs, vals)))
    if -421 < exponent <= 480:
        exponent = 0
    else:
        vals = [math.ldexp(v, -exponent) for v in vals]
    mean = math.fsum(vals) / n
    variance = math.fsum((v - mean) ** 2 for v in vals) / (n - 1)
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
    return serpbias.stats.TTestResult(t_stat, df, p_value, sample_mean, sample_err, reject_at)


def reference_paired(a, b, alpha=None):
    a, b = serpbias.stats._finite(a), serpbias.stats._finite(b)
    if len(a) != len(b):
        raise InputError(f"paired samples differ in length: {len(a)} vs {len(b)}")
    return reference_one_sample([x - y for x, y in zip(a, b)], 0.0, alpha)


def outcome(test, *args):
    """Every field of test(*args) (floats by float.hex), or the exception's type and text."""
    try:
        result = test(*args)
    except Exception as exc:  # the reference and the library must fail alike
        return type(exc), str(exc)
    if isinstance(result, TTestResult):
        fields = [getattr(result, name) for name in result._fields]
    else:
        fields = [result]
    return [v.hex() if isinstance(v, float) else v for v in fields]


def _signed(magnitudes):
    return st.tuples(magnitudes, st.booleans()).map(lambda m: -m[0] if m[1] else m[0])


# One regime per sample: ordinary values, a few repeated values (ties and
# constant runs), signed zeros, magnitudes below 2**-421 (subnormals too),
# and magnitudes from 2**480 up, whose sums can overflow.
REGIMES = (
    st.floats(-10.0, 10.0),
    st.sampled_from((0.25, -0.5, 0.1, 3.0)),
    st.sampled_from((0.0, -0.0)),
    _signed(st.floats(0.0, 2.0**-421, exclude_max=True)),
    _signed(st.floats(2.0**480, 1.7976931348623157e308)),
)


@st.composite
def t_samples(draw, size=None):
    regime = draw(st.sampled_from(REGIMES))
    n = size if size is not None else draw(st.integers(2, 300))
    if draw(st.booleans()):
        return [draw(regime)] * n  # a constant sample
    return draw(st.lists(regime, min_size=n, max_size=n))


@st.composite
def one_sample_args(draw):
    values = draw(t_samples())
    mu0 = draw(st.one_of(st.sampled_from((0.0, -0.0, values[0], values[-1])), *REGIMES))
    return values, mu0, draw(st.sampled_from((None, 0.05)))


@st.composite
def paired_args(draw):
    a = draw(t_samples())
    b = list(a) if draw(st.booleans()) else draw(t_samples(len(a)))
    return a, b, draw(st.sampled_from((None, 0.05)))


# The largest magnitude is the least value, of a sample that must be scaled.
@given(one_sample_args())
@example(([-1e308, -1.7e308, -1.2e308, -1.5e308], 0.0, None))
@example(([-(2.0**-500), -(2.0**-510), -(2.0**-505)], 0.0, 0.05))
def test_one_sample_matches_the_per_value_reference_bit_for_bit(args):
    assert outcome(one_sample_ttest, *args) == outcome(reference_one_sample, *args)


@given(paired_args())
def test_paired_matches_the_per_value_reference_bit_for_bit(args):
    assert outcome(paired_ttest, *args) == outcome(reference_paired, *args)


@given(
    st.floats(0.5, 500.0),
    st.sampled_from((0.5, 1.0, 3.5)),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_betacf_matches_the_reference_bit_for_bit(a, b, x):
    assert outcome(serpbias.stats._betacf, a, b, x) == outcome(reference_betacf, a, b, x)


# A Sample is a column checked once; every t-test must read it as it reads the
# values it was built from, and building it must fail as the t-test would.
observations = st.one_of(
    st.integers(-(10**400), 10**400),
    st.floats(-1e300, 1e300),
    st.fractions(max_denominator=1000),
    st.sampled_from([0.25, -0.5, 3, Fraction(1, 3)]),
)
faults = st.sampled_from([math.nan, math.inf, -math.inf, "1.5", "a", b"1", None, 10**400])


@st.composite
def observation_lists(draw, size=None):
    n = size if size is not None else draw(st.integers(0, 12))
    values = draw(st.lists(observations, min_size=n, max_size=n))
    if values and draw(st.integers(0, 3)) == 0:
        values[draw(st.integers(0, n - 1))] = draw(faults)
    return values


@given(
    values=observation_lists(),
    mu0=st.sampled_from([0.0, -0.0, 0.25]),
    alpha=st.sampled_from([None, 0.05]),
)
@example(values=[1, Fraction(1, 2), 0.25], mu0=0.0, alpha=0.05)
@example(values=[2, 2, 2], mu0=2.0, alpha=None)
@example(values=[1.0, math.nan, "x"], mu0=0.0, alpha=None)
@example(values=[10**400, -(10**400)], mu0=0.0, alpha=None)
def test_one_sample_reads_a_sample_as_its_values(values, mu0, alpha):
    def on_sample(values, mu0, alpha):
        return one_sample_ttest(Sample(values), mu0, alpha)

    assert outcome(on_sample, values, mu0, alpha) == outcome(one_sample_ttest, values, mu0, alpha)


@st.composite
def observation_pairs(draw):
    a = draw(observation_lists())
    return a, draw(st.one_of(observation_lists(len(a)), observation_lists()))


@given(pair=observation_pairs(), sample_a=st.booleans(), sample_b=st.booleans())
@example(pair=([1e308, 0.0, 2], [-1e308, 1, Fraction(1, 4)]), sample_a=True, sample_b=True)
@example(pair=([1.0, 2.0], [0.5, "x"]), sample_a=True, sample_b=True)
def test_paired_reads_samples_as_their_values(pair, sample_a, sample_b):
    columns = []
    for values, as_sample in zip(pair, (sample_a, sample_b)):
        if as_sample:
            try:
                values = Sample(values)
            except InputError as exc:
                # Building it fails as a t-test of the column does.
                assert (InputError, str(exc)) == outcome(paired_ttest, values, values)
                return
        columns.append(values)
    assert outcome(paired_ttest, *columns, 0.05) == outcome(paired_ttest, *pair, 0.05)


def test_a_sample_holds_floats_and_is_checked_once(monkeypatch):
    sample = Sample([1, Fraction(1, 2), 0.25])
    assert sample == (1.0, 0.5, 0.25) and all(type(v) is float for v in sample)
    assert serpbias.stats._finite(sample) is sample
    with pytest.raises(InputError, match=r"^t-test observation must be a finite number, got 'a'$"):
        Sample([1.0, "a"])
    seen = []
    finite = serpbias.stats._finite
    monkeypatch.setattr(serpbias.stats, "_finite", lambda *args: seen.append(args) or finite(*args))
    one_sample_ttest(sample)
    paired_ttest(sample, sample[::-1])
    # _finite returns the sample as it is; only the null mean, a list, and the
    # reversed copy, a plain tuple, take its list path.
    assert [type(args[0]) for args in seen] == [Sample, list, Sample, tuple]
