"""tools/ab.py's summary of alternating benchmark pairs, on synthetic numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

WALL = {"name": "wall_ref", "unit": "ref", "better": "lower", "bound": 0.15}
PARENT = [1.50, 1.51, 1.52, 1.53, 1.54, 1.55, 1.56, 1.57, 1.58, 1.59]


def test_a_change_lower_in_every_pair_by_more_than_the_iqr_is_a_gain():
    s = ab.summarize([(p, p - 0.1) for p in PARENT], WALL)
    assert (s.parent_median, s.change_median) == (pytest.approx(1.545), pytest.approx(1.445))
    # statistics.quantiles' default (exclusive) method on ten points.
    assert (s.parent_q1, s.parent_q3) == (pytest.approx(1.5175), pytest.approx(1.5725))
    assert s.relative == pytest.approx(1.445 / 1.545 - 1)
    assert (s.lower, s.higher, s.bound) == (10, 0, 0.15)
    assert s.gain and s.within_bound


def test_nine_wins_in_ten_is_enough_and_a_tie_counts_for_neither():
    nine = [(p, p - 0.1) for p in PARENT[:9]] + [(1.59, 1.60)]
    assert ab.summarize(nine, WALL).gain
    eight_and_a_tie = [(p, p - 0.1) for p in PARENT[:8]] + [(1.58, 1.58), (1.59, 1.60)]
    s = ab.summarize(eight_and_a_tie, WALL)
    assert (s.lower, s.higher, s.gain) == (8, 1, False)


def test_fewer_than_ten_pairs_are_no_gain():
    s = ab.summarize([(p, p - 0.1) for p in PARENT[:9]], WALL)
    assert s.lower == 9 and not s.gain


def test_medians_closer_than_the_parent_iqr_are_no_gain():
    s = ab.summarize([(p, p - 0.01) for p in PARENT], WALL)
    assert s.lower == 10 and not s.gain


def test_a_metric_better_higher_wins_where_the_change_reads_higher():
    rate = {"name": "docs_per_s", "unit": "docs/s", "better": "higher", "bound": 0.1}
    s = ab.summarize([(p, p + 0.1) for p in PARENT], rate)
    assert (s.lower, s.higher) == (0, 10) and s.gain
    assert not ab.summarize([(p, p - 0.1) for p in PARENT], rate).gain


def test_a_change_worse_than_its_bound_is_outside_it():
    assert ab.summarize([(p, p * 1.14) for p in PARENT], WALL).within_bound
    s = ab.summarize([(p, p * 1.16) for p in PARENT], WALL)
    assert (s.higher, s.gain, s.within_bound) == (10, False, False)
