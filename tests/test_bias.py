"""Slant scores and aggregates against independent summation oracles."""

import itertools
import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import make_list, random_stances, run_of
from serpbias import (
    EngineRun,
    InputError,
    LeaningLabel,
    MeasureConfig,
    StanceLabel,
    beta_max,
    bias,
    dcg_at,
    mean_abs_bias,
    mean_bias,
    mirror,
    per_query_bias,
    precision_at,
    rbp,
    summarize_run,
    transform_list,
)
from serpbias.model import SIDES

P, N, A, X = (
    StanceLabel.PRO,
    StanceLabel.NEUTRAL,
    StanceLabel.AGAINST,
    StanceLabel.NOT_RELEVANT,
)

CFG_P = MeasureConfig(measure_kind="precision")
CFG_R = MeasureConfig(measure_kind="rbp")
CFG_D = MeasureConfig(measure_kind="dcg")
ALL_CFGS = (CFG_P, CFG_R, CFG_D)


# Independent oracles: one joint pass over the stance sequence, summing the
# per-rank gain difference directly.

def oracle_precision(stances, n):
    total = 0.0
    for s in stances[:n]:
        if s is P:
            total += 1.0 / n
        elif s is A:
            total -= 1.0 / n
    return total


def oracle_rbp(stances, p):
    total = 0.0
    for i, s in enumerate(stances, start=1):
        sign = 1.0 if s is P else -1.0 if s is A else 0.0
        total += (1.0 - p) * p ** (i - 1) * sign
    return total


def oracle_dcg(stances, n, base):
    total = 0.0
    for i, s in enumerate(stances[:n], start=1):
        sign = 1.0 if s is P else -1.0 if s is A else 0.0
        total += sign / (math.log(i + 1) / math.log(base))
    return total


class TestBiasExamples:
    def test_one_sided_list_is_maximal(self):
        assert bias(make_list([P] * 10), CFG_P) == 1.0

    def test_dcg_pro_then_against(self):
        expected = 1.0 - 1.0 / math.log2(3)
        assert bias(make_list([P, A]), CFG_D) == pytest.approx(expected, abs=1e-12)

    def test_precision_counts_not_positions(self):
        rng = random.Random(0)
        for _ in range(20):
            stances = [P] * 3 + [A] * 2 + [N] * 5
            rng.shuffle(stances)
            assert bias(make_list(stances), CFG_P) == pytest.approx(0.1, abs=1e-12)

    def test_empty_list_scores_zero(self):
        for cfg in ALL_CFGS:
            assert bias(make_list([]), cfg) == 0.0

    def test_ideology_lists_count_conservative_minus_liberal(self):
        r = transform_list(make_list([P, A, N]))
        assert bias(r, CFG_P) == pytest.approx(0.0, abs=1e-12)
        r2 = transform_list(make_list([P, P, N]))
        assert bias(r2, CFG_P) == pytest.approx(0.2, abs=1e-12)


def test_oracle_equivalence_all_short_sequences():
    # Every stance sequence of length <= 5 against the brute-force oracles.
    for length in range(0, 6):
        for stances in itertools.product(StanceLabel, repeat=length):
            r = make_list(list(stances))
            assert abs(bias(r, CFG_P) - oracle_precision(stances, 10)) <= 1e-12
            assert abs(bias(r, CFG_R) - oracle_rbp(stances, 0.8)) <= 1e-12
            assert abs(bias(r, CFG_D) - oracle_dcg(stances, 10, 2.0)) <= 1e-12


def test_antisymmetry_neutrality_boundedness():
    rng = random.Random(99)
    for _ in range(300):
        r = make_list(random_stances(rng, rng.randrange(0, 21)))
        for cfg in ALL_CFGS:
            value = bias(r, cfg)
            assert bias(mirror(r), cfg) == pytest.approx(-value, abs=1e-12)
            assert abs(value) <= beta_max(cfg.measure_kind, cfg, len(r)) + 1e-12
    quiet = make_list([N, X, N])
    for cfg in ALL_CFGS:
        assert bias(quiet, cfg) == 0.0


class TestAggregates:
    def test_opposite_slants_cancel_in_mb(self):
        r = make_list([P, P, A, N] * 2, query="q1")
        run = run_of("e", {"q1": [P, P, A, N] * 2, "q2": [A, A, P, N] * 2})
        assert bias(r, CFG_P) != 0.0
        assert mean_bias(run, CFG_P) == 0.0
        assert mean_abs_bias(run, CFG_P) == pytest.approx(abs(bias(r, CFG_P)), abs=1e-12)

    def test_all_neutral_run_is_zero(self):
        run = run_of("e", {"q1": [N] * 5, "q2": [N] * 3})
        assert mean_bias(run, CFG_P) == 0.0
        assert mean_abs_bias(run, CFG_P) == 0.0

    def test_arithmetic_means(self):
        # betas 0.2 and 0.4 under P@10
        run = run_of("e", {"q1": [P, P] + [N] * 8, "q2": [P, P, P, P] + [N] * 6})
        assert mean_bias(run, CFG_P) == pytest.approx(0.3, abs=1e-12)
        assert mean_abs_bias(run, CFG_P) == pytest.approx(0.3, abs=1e-12)

    def test_mab_splits_from_mb_on_mixed_signs(self):
        # betas 0.2 and -0.4
        run = run_of("e", {"q1": [P, P] + [N] * 8, "q2": [A, A, A, A] + [N] * 6})
        assert mean_bias(run, CFG_P) == pytest.approx(-0.1, abs=1e-12)
        assert mean_abs_bias(run, CFG_P) == pytest.approx(0.3, abs=1e-12)

    def test_empty_query_set_rejected(self):
        from serpbias import EngineRun

        run = EngineRun(engine_id="e", lists={})
        with pytest.raises(InputError, match="empty query set"):
            mean_bias(run, CFG_P)

    def test_empty_serp_contributes_zero(self):
        run = run_of("e", {"q1": [], "q2": [P] * 10})
        assert mean_bias(run, CFG_P) == pytest.approx(0.5, abs=1e-12)

    def test_mab_dominates_mb_on_random_runs(self):
        rng = random.Random(4)
        for _ in range(60):
            queries = {
                f"q{k}": random_stances(rng, rng.randrange(0, 15))
                for k in range(rng.randrange(1, 8))
            }
            run = run_of("e", queries)
            for cfg in ALL_CFGS:
                summary = summarize_run(run, cfg)
                assert summary.mab >= abs(summary.mb)
                betas = [rec.beta for rec in summary.per_query]
                if all(b >= 0 for b in betas) or all(b <= 0 for b in betas):
                    assert summary.mab == pytest.approx(abs(summary.mb), abs=1e-12)

    def test_single_signed_run_has_equal_aggregates(self):
        rng = random.Random(17)
        queries = {
            f"q{k}": [rng.choice([P, N, X]) for _ in range(10)] for k in range(9)
        }
        run = run_of("e", queries)
        for cfg in ALL_CFGS:
            assert mean_abs_bias(run, cfg) == pytest.approx(abs(mean_bias(run, cfg)), abs=1e-12)


class TestBetaMax:
    def test_precision_bound(self):
        assert beta_max("precision", CFG_P, 7) == 1.0

    def test_rbp_bound(self):
        assert beta_max("rbp", CFG_R, 10) == pytest.approx(1.0 - 0.8**10, abs=1e-12)
        assert beta_max("rbp", CFG_R, 10) == pytest.approx(0.8926258, abs=1e-7)

    def test_dcg_bound(self):
        cfg = MeasureConfig(cutoff=2, measure_kind="dcg")
        assert beta_max("dcg", cfg, 5) == pytest.approx(1.0 + 1.0 / math.log2(3), abs=1e-12)

    def test_bounds_are_attained_by_one_sided_lists(self):
        # rbp and dcg bounds are length-aware and attained at every length;
        # the precision bound of 1 needs the list to reach the cutoff.
        for cfg in ALL_CFGS:
            for length in (0, 1, 5, 10, 15):
                r = make_list([P] * length)
                value = bias(r, cfg)
                bound = beta_max(cfg.measure_kind, cfg, length)
                assert value <= bound + 1e-12
                if cfg.measure_kind != "precision" or length >= cfg.cutoff:
                    assert value == pytest.approx(bound, abs=1e-12)


def test_summary_records_are_sorted_by_query():
    run = run_of("e", {"q3": [P], "q1": [A], "q2": [N]})
    summary = summarize_run(run, CFG_P)
    assert [rec.query_id for rec in summary.per_query] == ["q1", "q2", "q3"]


def reference_bias(r, cfg):
    """The per-list slant as two calls into the measures, one per side."""
    positive, negative = SIDES[r.label_type or StanceLabel]
    if cfg.measure_kind == "precision":
        return precision_at(r, positive, cfg.cutoff) - precision_at(r, negative, cfg.cutoff)
    if cfg.measure_kind == "rbp":
        return rbp(r, positive, cfg.persistence) - rbp(r, negative, cfg.persistence)
    return dcg_at(r, positive, cfg.cutoff, cfg.log_base) - dcg_at(
        r, negative, cfg.cutoff, cfg.log_base
    )


# Lists in either label space (ideology ones relabeled through the list's
# leaning), empty or shorter than the cutoff too.
list_specs = st.tuples(
    st.lists(st.sampled_from(StanceLabel), max_size=40),
    st.sampled_from(LeaningLabel),
    st.booleans(),
)
measure_configs = st.builds(
    MeasureConfig,
    cutoff=st.integers(1, 30),
    persistence=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    log_base=st.floats(1.0, 1e3, exclude_min=True),
    measure_kind=st.sampled_from(("precision", "rbp", "dcg")),
)


# Under P@10 neither the float sum of these slants nor that of their
# magnitudes equals its fsum.
MIXED_SPECS = [
    ([P], LeaningLabel.CONSERVATIVE, False),
    ([P, P], LeaningLabel.CONSERVATIVE, False),
    ([P, P, P], LeaningLabel.CONSERVATIVE, False),
    ([P, P, P, A, N] * 3, LeaningLabel.CONSERVATIVE, False),
    ([A, P, X, P, P, P, A], LeaningLabel.LIBERAL, True),
    ([P, P, A], LeaningLabel.BOTH_OR_NEITHER, True),
    ([], LeaningLabel.CONSERVATIVE, False),
    ([A] * 7, LeaningLabel.CONSERVATIVE, False),
    ([A] * 7, LeaningLabel.LIBERAL, False),
]


@given(st.lists(list_specs, min_size=1, max_size=12), measure_configs)
@example(MIXED_SPECS, CFG_P)
@example(MIXED_SPECS, CFG_R)
@example(MIXED_SPECS, CFG_D)
def test_slants_and_aggregates_match_the_per_list_reference_bit_for_bit(specs, cfg):
    lists = {}
    for i, (stances, leaning, ideology) in enumerate(specs):
        r = make_list(stances, engine="e", query=f"q{i:02d}", leaning=leaning)
        lists[r.query_id] = transform_list(r) if ideology else r
    run = EngineRun("e", lists)
    expected = [reference_bias(r, cfg) for r in run.lists.values()]
    summary = summarize_run(run, cfg)
    assert [rec.beta.hex() for rec in summary.per_query] == [b.hex() for b in expected]
    assert [bias(r, cfg).hex() for r in run.lists.values()] == [b.hex() for b in expected]
    assert per_query_bias(run, cfg) == list(summary.per_query)
    assert summary.mb.hex() == (math.fsum(expected) / len(expected)).hex()
    assert summary.mab.hex() == (math.fsum(abs(b) for b in expected) / len(expected)).hex()
