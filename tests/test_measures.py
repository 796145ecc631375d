"""Utility measures checked against hand-enumerated values and order properties."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_list
from serpbias import (
    BaselineConfig,
    ConfigError,
    Dataset,
    MeasureConfig,
    StanceLabel,
    dcg_at,
    evaluate,
    precision_at,
    rbp,
)

P, N, A, X = (
    StanceLabel.PRO,
    StanceLabel.NEUTRAL,
    StanceLabel.AGAINST,
    StanceLabel.NOT_RELEVANT,
)

stance_seqs = st.lists(st.sampled_from(list(StanceLabel)), max_size=25)


class TestPrecision:
    def test_all_pro(self):
        assert precision_at(make_list([P] * 10), P, 10) == 1.0

    def test_empty_list(self):
        assert precision_at(make_list([]), P, 10) == 0.0

    def test_mixed_top_ten(self):
        # 3 pro among [pro, against, pro, neutral, pro, nr, against, neutral x3]
        r = make_list([P, A, P, N, P, X, A, N, N, N])
        assert precision_at(r, P, 10) == pytest.approx(0.3, abs=1e-12)
        assert precision_at(r, A, 10) == pytest.approx(0.2, abs=1e-12)

    def test_short_list_counts_missing_ranks_as_misses(self):
        assert precision_at(make_list([P, P]), P, 10) == pytest.approx(0.2, abs=1e-12)

    def test_cutoff_validation(self):
        with pytest.raises(ConfigError):
            precision_at(make_list([P]), P, 0)

    @given(stance_seqs, st.integers(min_value=1, max_value=15))
    def test_within_unit_interval(self, stances, n):
        value = precision_at(make_list(stances), P, n)
        assert 0.0 <= value <= 1.0

    @given(stance_seqs, st.integers(min_value=1, max_value=15), st.randoms())
    def test_top_n_permutation_invariance(self, stances, n, rnd):
        r = make_list(stances)
        head = list(stances[:n])
        rnd.shuffle(head)
        shuffled = make_list(head + list(stances[n:]))
        assert precision_at(shuffled, P, n) == precision_at(r, P, n)


class TestRbp:
    def test_single_pro_at_rank_one(self):
        assert rbp(make_list([P]), P, 0.8) == pytest.approx(0.2, abs=1e-12)

    def test_empty_list(self):
        assert rbp(make_list([]), P, 0.8) == 0.0

    def test_all_pro_matches_geometric_closed_form(self):
        assert rbp(make_list([P] * 10), P, 0.8) == pytest.approx(1.0 - 0.8**10, abs=1e-12)

    def test_persistence_validation(self):
        for bad in (0.0, 1.0, -0.3, 1.5):
            with pytest.raises(ConfigError):
                rbp(make_list([P]), P, bad)

    @given(stance_seqs, st.floats(min_value=0.05, max_value=0.95))
    def test_bounded_by_truncated_mass(self, stances, p):
        value = rbp(make_list(stances), P, p)
        assert 0.0 <= value <= 1.0 - p ** len(stances) + 1e-12


class TestDcg:
    def test_single_pro_at_rank_one(self):
        assert dcg_at(make_list([P]), P, 10, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_empty_list(self):
        assert dcg_at(make_list([]), P, 10, 2.0) == 0.0

    def test_two_pros(self):
        expected = 1.0 + 1.0 / math.log2(3)
        assert dcg_at(make_list([P, P]), P, 10, 2.0) == pytest.approx(expected, abs=1e-12)

    def test_base_validation(self):
        for bad in (1.0, 0.5, math.inf, math.nan):
            with pytest.raises(ConfigError):
                dcg_at(make_list([P]), P, 10, bad)

    def test_cutoff_truncates(self):
        r = make_list([N, N, N, P])
        assert dcg_at(r, P, 3, 2.0) == 0.0
        assert dcg_at(r, P, 4, 2.0) == pytest.approx(1.0 / math.log2(5), abs=1e-12)


MEASURES = [
    ("precision", lambda r, label: precision_at(r, label, 10)),
    ("rbp", lambda r, label: rbp(r, label, 0.8)),
    ("dcg", lambda r, label: dcg_at(r, label, 10, 2.0)),
]


@pytest.mark.parametrize("name,measure", MEASURES)
@given(stances=stance_seqs, position=st.integers(min_value=0, max_value=24))
@settings(max_examples=60)
def test_adding_a_match_never_decreases(name, measure, stances, position):
    r = make_list(stances)
    position = min(position, len(stances))
    grown = make_list(stances[:position] + [P] + stances[position:])
    assert measure(grown, P) >= measure(r, P) - 1e-12


@pytest.mark.parametrize(
    "name,measure",
    [(n, m) for n, m in MEASURES if n != "precision"],
)
def test_upward_swap_strictly_increases(name, measure):
    # Moving the pro doc above a non-pro doc must strictly raise its utility.
    low = make_list([N, N, P, N])
    high = make_list([N, P, N, N])
    assert measure(high, P) > measure(low, P)


@pytest.mark.parametrize("name,measure", MEASURES)
@given(stances=stance_seqs)
@settings(max_examples=60)
def test_subadditive_over_disjoint_labels(name, measure, stances):
    r = make_list(stances)
    both_sides = measure(r, P) + measure(r, A)
    every_doc = sum(measure(r, label) for label in StanceLabel)
    assert both_sides <= every_doc + 1e-12
    if all(s in (P, A) for s in stances):
        assert both_sides == pytest.approx(every_doc, abs=1e-12)


def test_config_defaults():
    cfg = MeasureConfig()
    assert cfg.cutoff == 10
    assert cfg.persistence == 0.8
    assert cfg.log_base == 2.0


def test_a_cutoff_past_the_float_range_is_refused():
    text = "^cutoff must lie in the float range, up to 1.8e308$"
    with pytest.raises(ConfigError, match=text):
        MeasureConfig(cutoff=10**400)
    with pytest.raises(ConfigError, match=text):
        precision_at(make_list([P]), P, 10**400)
    # One range for the setting, whichever measure reads it.
    with pytest.raises(ConfigError, match=text):
        dcg_at(make_list([P]), P, 10**400)
    with pytest.raises(ConfigError, match=text):
        MeasureConfig(cutoff=10**400, measure_kind="rbp")
    assert precision_at(make_list([P]), P, 10**308) == 1e-308


def test_config_validation():
    with pytest.raises(ConfigError):
        MeasureConfig(cutoff=0)
    with pytest.raises(ConfigError):
        MeasureConfig(persistence=1.0)
    with pytest.raises(ConfigError):
        MeasureConfig(log_base=1.0)
    with pytest.raises(ConfigError):
        MeasureConfig(log_base=math.inf)
    with pytest.raises(ConfigError):
        MeasureConfig(measure_kind="bm25")


@pytest.mark.parametrize(
    "make, text",
    [
        (lambda: BaselineConfig(step=True), "step must be an integer >= 1, got True"),
        (lambda: MeasureConfig(cutoff=True), "cutoff must be an integer >= 1, got True"),
        (lambda: precision_at(make_list([P]), P, False), "cutoff must be an integer >= 1"),
        (lambda: MeasureConfig(persistence="0.8"), "persistence must lie strictly between"),
        (lambda: rbp(make_list([P]), P, None), "persistence must lie strictly between"),
        (lambda: MeasureConfig(log_base="2"), "log base must be a finite number"),
        (lambda: dcg_at(make_list([P]), P, 10, "2"), "log base must be a finite number"),
        (lambda: evaluate(Dataset((), {}), alpha="0.05"), "alpha must lie strictly between"),
    ],
    ids=[
        "bool-step", "bool-cutoff", "bool-n", "text-persistence",
        "none-p", "text-log-base", "text-base", "text-alpha",
    ],
)
def test_settings_reject_bools_and_text_with_config_error(make, text):
    with pytest.raises(ConfigError, match=f"^{text}"):
        make()
