"""Slant scores and aggregates against independent summation oracles."""

import functools
import itertools
import math
import operator
import random
import weakref

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import make_list, random_stances, run_of
from serpbias import (
    Dataset,
    EngineRun,
    IdeologyLabel,
    InputError,
    LeaningLabel,
    MeasureConfig,
    StanceLabel,
    bias,
    dcg_at,
    evaluate,
    mirror,
    precision_at,
    rbp,
    summarize_run,
    transform_list,
)
from serpbias import report
from serpbias.model import LABELS, NEGATIVE_MASK, POSITIVE_MASK, SIDES

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
            assert abs(value) <= bias(make_list([P] * len(r)), cfg) + 1e-12
    quiet = make_list([N, X, N])
    for cfg in ALL_CFGS:
        assert bias(quiet, cfg) == 0.0


class TestAggregates:
    def test_opposite_slants_cancel_in_mb(self):
        r = make_list([P, P, A, N] * 2, query="q1")
        run = run_of("e", {"q1": [P, P, A, N] * 2, "q2": [A, A, P, N] * 2})
        summary = summarize_run(run, CFG_P)
        assert bias(r, CFG_P) != 0.0
        assert summary.mb == 0.0
        assert summary.mab == pytest.approx(abs(bias(r, CFG_P)), abs=1e-12)

    def test_all_neutral_run_is_zero(self):
        run = run_of("e", {"q1": [N] * 5, "q2": [N] * 3})
        summary = summarize_run(run, CFG_P)
        assert summary.mb == summary.mab == 0.0

    def test_arithmetic_means(self):
        # betas 0.2 and 0.4 under P@10
        run = run_of("e", {"q1": [P, P] + [N] * 8, "q2": [P, P, P, P] + [N] * 6})
        summary = summarize_run(run, CFG_P)
        assert summary.mb == pytest.approx(0.3, abs=1e-12)
        assert summary.mab == pytest.approx(0.3, abs=1e-12)

    def test_mab_splits_from_mb_on_mixed_signs(self):
        # betas 0.2 and -0.4
        run = run_of("e", {"q1": [P, P] + [N] * 8, "q2": [A, A, A, A] + [N] * 6})
        summary = summarize_run(run, CFG_P)
        assert summary.mb == pytest.approx(-0.1, abs=1e-12)
        assert summary.mab == pytest.approx(0.3, abs=1e-12)

    def test_empty_query_set_rejected(self):
        from serpbias import EngineRun

        run = EngineRun(engine_id="e", lists={})
        with pytest.raises(InputError, match="empty query set"):
            summarize_run(run, CFG_P)

    def test_empty_serp_contributes_zero(self):
        run = run_of("e", {"q1": [], "q2": [P] * 10})
        assert summarize_run(run, CFG_P).mb == pytest.approx(0.5, abs=1e-12)

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
            summary = summarize_run(run, cfg)
            assert summary.mab == pytest.approx(abs(summary.mb), abs=1e-12)


class TestBetaMax:
    """The largest slant of a list of a given length: that of a one-sided list."""

    def test_precision_bound(self):
        # A one-sided list shorter than the cutoff fills only its own ranks.
        assert bias(make_list([P] * 7), CFG_P) == pytest.approx(0.7, abs=1e-12)
        assert bias(make_list([P] * 12), CFG_P) == 1.0

    def test_rbp_bound(self):
        value = bias(make_list([P] * 10), CFG_R)
        assert value == pytest.approx(1.0 - 0.8**10, abs=1e-12)
        assert value == pytest.approx(0.8926258, abs=1e-7)

    def test_dcg_bound(self):
        cfg = MeasureConfig(cutoff=2, measure_kind="dcg")
        value = bias(make_list([P] * 5), cfg)
        assert value == pytest.approx(1.0 + 1.0 / math.log2(3), abs=1e-12)

    def test_bounds_are_attained_by_one_sided_lists(self):
        # The closed forms: min(len, n)/n for precision, 1 - p**len for RBP and
        # the sum of 1/log2(i+1) over the first min(len, n) ranks for DCG. The
        # mirrored list attains the negative bound, and no list of the length
        # goes beyond either.
        rng = random.Random(5)
        for cfg in ALL_CFGS:
            for length in (0, 1, 5, 10, 15):
                depth = min(length, cfg.cutoff)
                expected = {
                    "precision": depth / cfg.cutoff,
                    "rbp": 1.0 - cfg.persistence**length,
                    "dcg": sum(1.0 / math.log2(i + 1) for i in range(1, depth + 1)),
                }[cfg.measure_kind]
                bound = bias(make_list([P] * length), cfg)
                assert bound == pytest.approx(expected, abs=1e-12)
                assert bias(make_list([A] * length), cfg) == -bound
                for _ in range(20):
                    value = bias(make_list(random_stances(rng, length)), cfg)
                    assert abs(value) <= bound + 1e-12


def test_summary_records_are_sorted_by_query():
    run = run_of("e", {"q3": [P], "q1": [A], "q2": [N]})
    summary = summarize_run(run, CFG_P)
    assert [rec.query_id for rec in summary.per_query] == ["q1", "q2", "q3"]


# The measures as they were written with one branch per measure: a discount
# table per (kind, parameter, cutoff, length), then one scaling per measure.
# The library must agree with them bit for bit.

def reference_discounts(kind, parameter, cutoff, length):
    if kind == "rbp":
        return tuple(parameter**i for i in range(length))
    depth = min(cutoff, length)
    if kind == "precision":
        return (1.0,) * depth
    return tuple(1.0 / math.log(i + 1, parameter) for i in range(1, depth + 1))


def reference_hits(r, label, weights):
    return math.fsum(itertools.compress(weights, (LABELS[code] is label for code in r.codes)))


def reference_precision(r, label, n):
    return reference_hits(r, label, reference_discounts("precision", None, n, len(r))) / n


def reference_rbp(r, label, p):
    return (1.0 - p) * reference_hits(r, label, reference_discounts("rbp", p, None, len(r)))


def reference_dcg(r, label, n, base):
    return reference_hits(r, label, reference_discounts("dcg", base, n, len(r)))


def reference_bias(r, cfg):
    """The per-list slant as two calls into the reference measures, one per side."""
    positive, negative = SIDES[type(LABELS[r.codes[0]]) if r.codes else StanceLabel]
    if cfg.measure_kind == "precision":
        return reference_precision(r, positive, cfg.cutoff) - reference_precision(
            r, negative, cfg.cutoff
        )
    if cfg.measure_kind == "rbp":
        return reference_rbp(r, positive, cfg.persistence) - reference_rbp(
            r, negative, cfg.persistence
        )
    return reference_dcg(r, positive, cfg.cutoff, cfg.log_base) - reference_dcg(
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


def run_from_specs(specs):
    lists = {}
    for i, (stances, leaning, ideology) in enumerate(specs):
        r = make_list(stances, engine="e", query=f"q{i:02d}", leaning=leaning)
        lists[r.query_id] = transform_list(r) if ideology else r
    return EngineRun("e", lists)


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
    run = run_from_specs(specs)
    expected = [reference_bias(r, cfg) for r in run.lists.values()]
    summary = summarize_run(run, cfg)
    assert [rec.beta.hex() for rec in summary.per_query] == [b.hex() for b in expected]
    assert [bias(r, cfg).hex() for r in run.lists.values()] == [b.hex() for b in expected]
    assert summary.mb.hex() == (math.fsum(expected) / len(expected)).hex()
    assert summary.mab.hex() == (math.fsum(abs(b) for b in expected) / len(expected)).hex()


@given(list_specs, measure_configs)
@example(([P, A, N, X] * 5, LeaningLabel.LIBERAL, True), CFG_D)
@example(([], LeaningLabel.CONSERVATIVE, False), CFG_R)
def test_measures_match_the_reference_bit_for_bit(spec, cfg):
    stances, leaning, ideology = spec
    r = make_list(stances, leaning=leaning)
    r = transform_list(r) if ideology else r
    n, p, base = cfg.cutoff, cfg.persistence, cfg.log_base
    for label in LABELS:
        assert precision_at(r, label, n).hex() == reference_precision(r, label, n).hex()
        assert rbp(r, label, p).hex() == reference_rbp(r, label, p).hex()
        assert dcg_at(r, label, n, base).hex() == reference_dcg(r, label, n, base).hex()


# The utility form as it was stated before measures.utilities: a memoized
# discount table per (config, length), an (operator, factor) scaling, one
# utility per list and label, and the slant read from one table for the
# longest list of a run.

@functools.lru_cache(maxsize=1024)
def former_discounts(cfg, length):
    if cfg.measure_kind == "rbp":
        return tuple(cfg.persistence ** i for i in range(length))
    depth = min(cfg.cutoff, length)
    if cfg.measure_kind == "precision":
        return (1.0,) * depth
    return tuple(1.0 / math.log(i + 1, cfg.log_base) for i in range(1, depth + 1))


def former_scale(cfg):
    if cfg.measure_kind == "precision":
        return operator.truediv, cfg.cutoff
    if cfg.measure_kind == "rbp":
        return operator.mul, 1.0 - cfg.persistence
    return operator.mul, 1.0


def former_utility(r, label, cfg):
    op, factor = former_scale(cfg)
    return op(math.fsum(itertools.compress(former_discounts(cfg, len(r)), r.mask(label))), factor)


def former_betas(lists, cfg):
    positives = [r.codes.translate(POSITIVE_MASK) for r in lists]
    negatives = [r.codes.translate(NEGATIVE_MASK) for r in lists]
    op, factor = former_scale(cfg)
    weights = former_discounts(cfg, max(map(len, positives), default=0))
    return [
        op(math.fsum(itertools.compress(weights, pos)), factor)
        - op(math.fsum(itertools.compress(weights, neg)), factor)
        for pos, neg in zip(positives, negatives)
    ]


# Runs mixing list lengths 0-40, so one table for the longest list serves
# lists shorter and longer than the cutoff, in either label space.
@given(st.lists(list_specs, min_size=1, max_size=12), measure_configs)
@example(MIXED_SPECS, CFG_P)
@example(MIXED_SPECS, CFG_R)
@example(MIXED_SPECS, CFG_D)
@example(MIXED_SPECS, MeasureConfig(cutoff=3, persistence=0.3, log_base=10.0, measure_kind="dcg"))
def test_utilities_match_the_former_discounts_scale_and_betas_bit_for_bit(specs, cfg):
    run = run_from_specs(specs)
    lists = run.lists.values()
    expected = [b.hex() for b in former_betas(lists, cfg)]
    assert [rec.beta.hex() for rec in summarize_run(run, cfg).per_query] == expected
    assert [bias(r, cfg).hex() for r in lists] == expected
    n, p, base = cfg.cutoff, cfg.persistence, cfg.log_base
    measures = (
        (precision_at, (n,), MeasureConfig(cutoff=n)),
        (rbp, (p,), MeasureConfig(persistence=p, measure_kind="rbp")),
        (dcg_at, (n, base), MeasureConfig(cutoff=n, log_base=base, measure_kind="dcg")),
    )
    for r in lists:
        for label in LABELS:
            for measure, args, former_cfg in measures:
                assert measure(r, label, *args).hex() == former_utility(r, label, former_cfg).hex()


# Hand-built datasets for evaluate, with the mode to evaluate them in: per
# query a leaning, per engine and query a stance list (empty ones too). In
# stance mode some lists are relabeled to ideology first, and that mode reads
# them as labeled; ideology mode relabels stance lists only.
@st.composite
def mode_datasets(draw):
    mode = draw(st.sampled_from(("stance", "ideology")))
    leanings = draw(st.lists(st.sampled_from(LeaningLabel), min_size=1, max_size=6))
    table = {f"q{k}": (f"topic {k}", leaning) for k, leaning in enumerate(leanings)}
    runs = []
    for engine in ("e0", "e1", "e2")[: draw(st.integers(1, 3))]:
        lists = {}
        for query_id, (_, leaning) in table.items():
            stances = draw(st.lists(st.sampled_from(StanceLabel), max_size=25))
            r = make_list(stances, engine=engine, query=query_id, leaning=leaning)
            relabel = mode == "stance" and draw(st.booleans())
            lists[query_id] = transform_list(r) if relabel else r
        runs.append(EngineRun(engine, lists))
    return mode, Dataset(tuple(runs), table)


@given(mode_datasets(), measure_configs)
def test_evaluate_scores_match_the_per_list_bias_bit_for_bit(mode_ds, cfg):
    mode, ds = mode_ds
    rep = evaluate(ds, cfg, mode=mode)
    runs = {run.engine_id: run for run in ds.runs}
    assert len(rep.bias_summaries) == 3 * len(runs)
    for summary in rep.bias_summaries:
        kind_cfg = MeasureConfig(cfg.cutoff, cfg.persistence, cfg.log_base, summary.measure)
        lists = runs[summary.engine].lists.values()
        expected = [bias(transform_list(r) if mode == "ideology" else r, kind_cfg) for r in lists]
        assert [rec.beta.hex() for rec in summary.per_query] == [b.hex() for b in expected]
        assert summary.mb.hex() == (math.fsum(expected) / len(expected)).hex()
        assert summary.mab.hex() == (math.fsum(map(abs, expected)) / len(expected)).hex()


def test_evaluate_in_ideology_mode_rejects_ideology_labeled_lists():
    stance = make_list([P, A], engine="e", query="q1", leaning=LeaningLabel.LIBERAL)
    labeled = transform_list(stance)
    ds = Dataset((EngineRun("e", {"q1": labeled}),), {"q1": ("topic", LeaningLabel.LIBERAL)})
    with pytest.raises(InputError) as relabel:
        transform_list(labeled)
    assert str(relabel.value).startswith("only stance labels map to ideology, got ")
    with pytest.raises(InputError) as info:
        evaluate(ds, mode="ideology")
    assert str(info.value) == str(relabel.value)
    # Stance mode reads the list as labeled: liberal at rank 1, conservative at 2.
    summaries = {s.measure: s for s in evaluate(ds, mode="stance").bias_summaries}
    assert summaries["dcg"].mb < 0.0


@pytest.mark.parametrize("mode", ["stance", "ideology"])
def test_evaluate_rejects_an_empty_query_set(mode):
    ds = Dataset((EngineRun("e", {}),), {})
    with pytest.raises(InputError, match="^engine 'e' has an empty query set$"):
        evaluate(ds, mode=mode)


def three_engines():
    runs = [run_of(engine, {"q1": [P, X], "q2": [A, P, N], "q3": []}) for engine in "abc"]
    table = {q: ("", LeaningLabel.CONSERVATIVE) for q in ("q1", "q2", "q3")}
    return Dataset(tuple(runs), table)


@pytest.mark.parametrize("mode", ["stance", "ideology"])
def test_evaluate_summarizes_each_run_once_per_measure(monkeypatch, mode):
    """evaluate scores each engine's run, labeled for the mode, once per
    measure; in ideology mode one relabeled run is alive at a time."""
    expected = evaluate(three_engines(), mode=mode)
    summarized, seen, alive = [], [], []

    def summarize(run, cfg, real=report.summarize_run):
        labels = {type(LABELS[code]) for r in run.lists.values() for code in r.codes}
        summarized.append((run.engine_id, cfg.measure_kind, labels))
        seen.append(weakref.ref(run))
        alive.append(len({id(ref()) for ref in seen if ref() is not None}))
        return real(run, cfg)

    monkeypatch.setattr(report, "summarize_run", summarize)
    assert evaluate(three_engines(), mode=mode) == expected
    labels = {IdeologyLabel if mode == "ideology" else StanceLabel}
    kinds = ("dcg", "precision", "rbp")
    assert summarized == [(engine, kind, labels) for engine in "abc" for kind in kinds]
    assert alive == ([1] * 9 if mode == "ideology" else [1, 1, 1, 2, 2, 2, 3, 3, 3])


@pytest.mark.parametrize("cfg", ALL_CFGS, ids=lambda c: c.measure_kind)
def test_a_list_replaced_after_scoring_is_scored_as_replaced(cfg):
    """summarize_run reads the run's lists at each call: a list replaced in
    run.lists after one call scores as it would in a fresh run."""
    run = run_of("e", {"q1": [P, X], "q2": [P, P, A, N], "q3": [A]})
    before = summarize_run(run, cfg)
    run.lists["q2"] = mirror(run.lists["q2"])
    after = summarize_run(run, cfg)
    assert after == summarize_run(EngineRun("e", dict(run.lists)), cfg)
    assert after.mb < 0.0 < before.mb


@pytest.mark.parametrize("mode", ["stance", "ideology"])
def test_scoring_adds_nothing_to_a_run(mode):
    """A run's instance dict holds its fields only, after evaluate and summarize_run."""
    ds = three_engines()
    evaluate(ds, mode=mode)
    for run in ds.runs:
        for cfg in ALL_CFGS:
            summarize_run(run, cfg)
        assert set(vars(run)) == set(run._fields)
