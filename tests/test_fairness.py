"""Prefix-fairness baselines: scores, normalizer, and their documented blind spots."""

import itertools
import math
import random
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import make_list
from serpbias import (
    BaselineConfig,
    ConfigError,
    InputError,
    MeasureConfig,
    MeasureUndefinedError,
    StanceLabel,
    baseline_score,
    bias,
    distance_rkl,
    distance_rnd,
    distance_rrd,
    mirror,
    normalizer_z,
    precision_at,
    transform_list,
)
from serpbias.fairness import _eval_points, _raw_score
from serpbias.model import LABELS

P, N, A, X = (
    StanceLabel.PRO,
    StanceLabel.NEUTRAL,
    StanceLabel.AGAINST,
    StanceLabel.NOT_RELEVANT,
)


def _d_rnd(p, q):
    return abs(p - q)


def _d_rkl(p, q):
    # Binary KL divergence in bits, with 0*log(0/x) taken as 0. Positive
    # mass against a zero reference diverges, which has no usable value.
    total = 0.0
    for a, b in ((p, q), (1.0 - p, 1.0 - q)):
        if a == 0.0:
            continue
        if b == 0.0:
            raise MeasureUndefinedError(
                f"KL distance diverges: prefix share {p:.6g} against whole-list share {q:.6g}"
            )
        total += a * math.log2(a / b)
    # True divergence is >= 0; tiny negatives are rounding residue.
    return max(total, 0.0)


def _d_rrd(p, q):
    if q >= 0.5:
        raise MeasureUndefinedError(
            f"rRD needs g1 to be a strict minority of the list; its share is {q:.6g}"
        )
    if p == 1.0:
        raise MeasureUndefinedError(
            "rRD is undefined for a prefix consisting entirely of g1 documents"
        )
    return abs(p / (1.0 - p) - q / (1.0 - q))


PER_PREFIX = {"rnd": _d_rnd, "rkl": _d_rkl, "rrd": _d_rrd}


def per_prefix_raw_score(member, kind, step):
    """Reference raw score: one distance call and one discount per evaluation point."""
    if not member:
        return 0.0
    distance = PER_PREFIX[kind]
    q = sum(member) / len(member)
    prefix = list(itertools.accumulate(member))
    points = [i for i in range(step, len(member) + 1, step) if i > 1]
    return math.fsum(distance(prefix[i - 1] / i, q) / math.log2(i) for i in points)


def brute_force_max(kind, n, k, step):
    """Independent normalizer oracle: max raw score over all arrangements."""
    best = 0.0
    for positions in itertools.combinations(range(n), k):
        member = [i in positions for i in range(n)]
        try:
            best = max(best, per_prefix_raw_score(member, kind, step))
        except MeasureUndefinedError:
            continue
    return best


def _outcome(score, *args):
    """The score's exact bits, or the type and text of the error it raised."""
    try:
        return score(*args).hex()
    except Exception as exc:  # any error, so that any difference shows
        return type(exc).__name__, str(exc)


def _count_of(k, n=12):
    """A list of n documents, k of them in g1, spread evenly."""
    return [i * k // n != (i + 1) * k // n for i in range(n)]


@pytest.mark.parametrize("kind", ["rnd", "rkl", "rrd"])
@given(
    member=st.lists(st.booleans(), max_size=60),
    as_bytes=st.booleans(),
    step=st.integers(min_value=1, max_value=6),
)
@example(member=_count_of(0), as_bytes=True, step=1)
@example(member=_count_of(1), as_bytes=True, step=1)
@example(member=_count_of(11), as_bytes=False, step=1)
@example(member=_count_of(12), as_bytes=False, step=2)
# No evaluation points: the score is 0.0, and rRD's q / (1 - q) at q = 1 is never taken.
@example(member=[True], as_bytes=False, step=1)
@example(member=[], as_bytes=True, step=3)
def test_one_pass_score_matches_the_per_prefix_sum(kind, member, as_bytes, step):
    if as_bytes:
        member = bytes(member)
    assert _outcome(_raw_score, member, kind, step) == _outcome(
        per_prefix_raw_score, member, kind, step
    )


@given(
    stances=st.lists(st.sampled_from(StanceLabel), min_size=1, max_size=40),
    ideology=st.booleans(),
)
@example(stances=[P] * 4, ideology=False)
@example(stances=[A, N, X], ideology=False)
def test_distances_match_the_per_prefix_reference_at_every_rank(stances, ideology):
    r = make_list(stances)
    if ideology:
        r = transform_list(r)
    for g1 in LABELS:
        member = [doc.stance == g1 for doc in r.docs]
        q = sum(member) / len(member)
        for distance, reference in (
            (distance_rnd, _d_rnd),
            (distance_rkl, _d_rkl),
            (distance_rrd, _d_rrd),
        ):
            for i in range(1, len(member) + 1):
                assert _outcome(distance, r, g1, i) == _outcome(reference, sum(member[:i]) / i, q)


def test_undefined_rrd_names_the_list_not_the_normalizer():
    # Both arrangements of a g1 majority are undefined, so the normalizer is
    # 0.0; the list's own score fails first and says why.
    r = make_list([P] * 6 + [A] * 4)
    with pytest.raises(MeasureUndefinedError, match="strict minority"):
        baseline_score(r, P, BaselineConfig(step=5, kind="rrd"))


class TestDistances:
    def test_rnd_zero_at_equality(self):
        r = make_list([P, A] * 5)
        assert distance_rnd(r, P, 2) == 0.0

    def test_rnd_first_rank_is_half_for_balanced_lists(self):
        # With five g1 in ten, the top-1 distance is 0.5 whichever group leads.
        for stances in ([P] * 5 + [A] * 5, [A] * 5 + [P] * 5):
            assert distance_rnd(make_list(stances), P, 1) == 0.5

    def test_rkl_blind_to_direction_on_balanced_lists(self):
        r = make_list([P, P, A, A, P, A, A, P])
        for i in range(1, 9):
            assert distance_rkl(r, P, i) == pytest.approx(
                distance_rkl(mirror(r), P, i), abs=1e-12
            )

    def test_rkl_zero_log_zero_convention(self):
        # All-g2 prefix against an interior overall share is finite.
        r = make_list([A, A, P, P])
        assert distance_rkl(r, P, 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("stances", [[A, N, X, A], [P] * 4])
    def test_rkl_zero_when_one_group_holds_the_whole_list(self, stances):
        # A whole-list share of 0 makes every prefix share 0, and one of 1
        # makes every prefix share 1: no KL term has a zero reference.
        r = make_list(stances)
        assert [distance_rkl(r, P, i) for i in range(1, 5)] == [0.0] * 4
        assert _raw_score(r.mask(P), "rkl", 1) == 0.0

    def test_rrd_requires_minority_group(self):
        r = make_list([P] * 6 + [A] * 4)
        with pytest.raises(MeasureUndefinedError, match="minority"):
            distance_rrd(r, P, 5)

    def test_rrd_rejects_pure_g1_prefix(self):
        r = make_list([P, A, A, A])
        with pytest.raises(MeasureUndefinedError, match="entirely of g1"):
            distance_rrd(r, P, 1)

    @pytest.mark.parametrize("i", [1.0, 2.0, True, "2", None])
    @pytest.mark.parametrize("distance", [distance_rnd, distance_rkl, distance_rrd])
    def test_rank_must_be_an_int(self, distance, i):
        r = make_list([A, P, A, A])
        with pytest.raises(InputError, match="rank must be an integer"):
            distance(r, P, i)

    def test_rrd_value(self):
        r = make_list([A, A, P, A, A, A, A, A])  # q = 1/8
        expected = abs((1 / 3) / (2 / 3) - (1 / 8) / (7 / 8))
        assert distance_rrd(r, P, 3) == pytest.approx(expected, abs=1e-12)

    def test_rank_bounds_checked(self):
        r = make_list([P, A])
        with pytest.raises(InputError, match="outside"):
            distance_rnd(r, P, 3)
        with pytest.raises(InputError, match="^rank must be an integer >= 1, got 0$"):
            distance_rnd(r, P, 0)


class TestBaselineScore:
    def test_alternating_list_is_perfectly_fair(self):
        r = make_list([P, A] * 10)
        assert baseline_score(r, P, BaselineConfig(step=10, kind="rnd")) == 0.0

    def test_block_list_attains_the_maximum(self):
        r = make_list([P] * 10 + [A] * 10)
        assert baseline_score(r, P, BaselineConfig(step=10, kind="rnd")) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_raw_value_matches_z_for_block_list(self):
        r = make_list([P] * 10 + [A] * 10)
        raw = 0.5 / math.log2(10)
        z = normalizer_z("rnd", 20, 10, 10)
        assert z == pytest.approx(raw, abs=1e-12)

    def test_zero_when_every_point_matches_overall_share(self):
        r = make_list([P, A, A, P] * 3)
        assert baseline_score(r, P, BaselineConfig(step=4, kind="rnd")) == 0.0

    def test_short_list_rejected(self):
        with pytest.raises(InputError, match="no evaluation points"):
            baseline_score(make_list([P] * 5), P, BaselineConfig(step=10, kind="rnd"))

    def test_degenerate_group_rejected(self):
        with pytest.raises(MeasureUndefinedError, match="normalize"):
            baseline_score(make_list([P] * 12), P, BaselineConfig(step=10, kind="rnd"))

    def test_single_point_at_list_end_rejected(self):
        # The only evaluation point is the whole list, where d is 0 by definition.
        with pytest.raises(MeasureUndefinedError):
            baseline_score(make_list([P, A, P, A]), P, BaselineConfig(step=4, kind="rnd"))

    def test_scores_stay_normalized_for_rnd_and_rkl(self):
        rng = random.Random(12)
        for _ in range(200):
            n = rng.randrange(4, 21)
            stances = [rng.choice([P, A, N]) for _ in range(n)]
            r = make_list(stances)
            step = rng.choice([1, 2, 5, 10])
            if n < step:
                continue
            for kind in ("rnd", "rkl"):
                try:
                    score = baseline_score(r, P, BaselineConfig(step=step, kind=kind))
                except MeasureUndefinedError:
                    continue
                assert -1e-12 <= score <= 1.0 + 1e-12

    def test_score_zero_iff_all_distances_zero(self):
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randrange(4, 17)
            r = make_list([rng.choice([P, A]) for _ in range(n)])
            cfg = BaselineConfig(step=2, kind="rnd")
            try:
                score = baseline_score(r, P, cfg)
            except MeasureUndefinedError:
                continue
            distances = [distance_rnd(r, P, i) for i in _eval_points(n, 2)]
            assert (score == 0.0) == all(d == 0.0 for d in distances)


class TestNormalizer:
    def test_empty_group(self):
        assert normalizer_z("rnd", 10, 0, 10) == 0.0

    def test_known_value(self):
        assert normalizer_z("rnd", 20, 10, 10) == pytest.approx(0.1505150, abs=1e-7)

    def test_extremal_equals_brute_force_small(self):
        for kind in ("rnd", "rkl"):
            for n in range(0, 7):
                for k in range(0, n + 1):
                    for step in (1, 2):
                        assert normalizer_z(kind, n, k, step) == pytest.approx(
                            brute_force_max(kind, n, k, step), abs=1e-12
                        )

    def test_symmetric_group_counts_for_rnd(self):
        for n in range(1, 9):
            for k in range(0, n + 1):
                assert normalizer_z("rnd", n, k, 1) == pytest.approx(
                    normalizer_z("rnd", n, n - k, 1), abs=1e-12
                )

    def test_validation(self):
        with pytest.raises(ConfigError):
            normalizer_z("rmse", 10, 5, 10)
        with pytest.raises(ConfigError):
            normalizer_z("rnd", 10, 5, 0)
        with pytest.raises(InputError):
            normalizer_z("rnd", 10, 11, 10)

    @pytest.mark.parametrize(
        "list_len, g1_count, text",
        [
            (5.0, 1, "list length must be an integer >= 0, got 5.0"),
            ("5", 1, "list length must be an integer >= 0, got '5'"),
            (True, 0, "list length must be an integer >= 0, got True"),
            (5, 1.0, "g1 count must be an integer >= 0, got 1.0"),
            (5, "1", "g1 count must be an integer >= 0, got '1'"),
            (5, False, "g1 count must be an integer >= 0, got False"),
        ],
    )
    def test_counts_must_be_integers(self, list_len, g1_count, text):
        with pytest.raises(InputError, match=f"^{re.escape(text)}$"):
            normalizer_z("rnd", list_len, g1_count, 1)


class TestDocumentedBlindSpots:
    def test_first_rank_distance_ignores_which_group_leads(self):
        # Balanced ten-document lists: the top-1 rND distance is always 0.5.
        for pro_positions in itertools.combinations(range(10), 5):
            stances = [P if i in pro_positions else A for i in range(10)]
            assert distance_rnd(make_list(stances), P, 1) == 0.5

    def test_rkl_score_blind_to_direction(self):
        rng = random.Random(21)
        cfg = BaselineConfig(step=1, kind="rkl")
        for _ in range(100):
            n = rng.choice(range(4, 21, 2))
            stances = [P] * (n // 2) + [A] * (n // 2)
            rng.shuffle(stances)
            r = make_list(stances)
            assert baseline_score(r, P, cfg) == pytest.approx(
                baseline_score(mirror(r), P, cfg), abs=1e-12
            )

    def test_rrd_is_asymmetric_while_slant_negates(self):
        stances = [P, N, A, N, P, A, N, A, N, N]
        r = make_list(stances)
        cfg = BaselineConfig(step=5, kind="rrd")
        pro_view = baseline_score(r, P, cfg)
        against_view = baseline_score(r, A, cfg)
        assert pro_view != pytest.approx(against_view, abs=1e-9)
        mcfg = MeasureConfig()
        swapped = precision_at(r, A, 10) - precision_at(r, P, 10)
        assert swapped == -bias(r, mcfg)

    def test_relevance_blindness(self):
        # Relabeling an against document to not-relevant leaves g1 = pro where
        # it was, so the baseline stays the same while the slant changes.
        stances = [P, A] * 5
        original = make_list(stances)
        relabeled = make_list([P, X] + stances[2:])
        cfg = BaselineConfig(step=2, kind="rnd")
        assert baseline_score(relabeled, P, cfg) == baseline_score(original, P, cfg)
        mcfg = MeasureConfig()
        assert bias(relabeled, mcfg) != bias(original, mcfg)


def test_baseline_config_validation():
    assert BaselineConfig().step == 10
    with pytest.raises(ConfigError):
        BaselineConfig(step=0)
    with pytest.raises(ConfigError):
        BaselineConfig(kind="dcg")
