"""Prefix-representation fairness scores for rankings: rND, rKL, rRD.

These measures track a single protected group g1 and score how far its share
of each top-i prefix drifts from its share of the whole list. Per-prefix
distances are discounted by 1/log2(i), summed over evaluation points spaced
`step` ranks apart, and normalized by the largest value attainable at the
same list length and group size, so defined scores land in [0, 1].

Each distance is written once, over all of one list's prefix shares: a
list's score sums it over the evaluation points, and `distance_rnd`,
`distance_rkl` and `distance_rrd` apply it to the one prefix asked for.

By construction they collapse direction (a list over-representing g1 and its
mirror image can score the same), ignore every label other than the group
mapping (a not-relevant document still counts toward its group), and rRD is
only defined while g1 stays a strict minority of the list. The slant
measures in `bias` have none of these blind spots; the functions here exist
as comparison baselines and as executable documentation of those behaviors.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from operator import truediv

from .errors import InputError, MeasureUndefinedError, check_choice, check_positive_int
from .model import RankedList
from .record import Record

BASELINE_KINDS = ("rnd", "rkl", "rrd")

DEFAULT_STEP = 10


class BaselineConfig(Record):
    """Evaluation-point spacing and which of the three scores to compute.

    The default step of 10 evaluates top-10, top-20, ...; step 1 is allowed
    and evaluates every prefix (except top-1, whose 1/log2(i) discount is
    undefined).
    """

    step: int
    kind: str = "rnd"  # also a class attribute: the CLI's --baseline default reads it

    def __init__(self, step: int = DEFAULT_STEP, kind: str = kind):
        check_positive_int("step", step)
        check_choice("baseline kind", kind, BASELINE_KINDS)
        fields = self.__dict__
        fields["step"], fields["kind"] = step, kind


def _eval_points(length: int, step: int) -> range:
    # The 1/log2(i) discount is undefined at i = 1, so step 1 starts at top-2.
    return range(step if step > 1 else 2, length + 1, step)


@functools.lru_cache(maxsize=1024)
def _eval_table(length: int, step: int) -> tuple[range, tuple[float, ...]]:
    """The evaluation points of a list of `length` at `step`, and their log2(i)."""
    points = _eval_points(length, step)
    return points, tuple(map(math.log2, points))


# Each distance d(P@i, P@end) takes the g1 shares P@i of one list's prefixes,
# in rank order, and that list's whole-list share q = P@end.


def _rnd(ps: Sequence[float], q: float) -> list[float]:
    return [abs(p - q) for p in ps]


def _rkl(ps: Sequence[float], q: float) -> list[float]:
    # Binary KL divergence in bits; a term whose mass p or s = 1 - p is 0
    # counts as 0. The shares come from one list, so q == 0 forces every
    # p == 0 and q == 1 every p == 1: no term divides by zero.
    log2, r = math.log2, 1.0 - q
    # True divergence is >= 0; a negative d is rounding residue.
    return [
        0.0 if (d := (p and p * log2(p / q)) + ((s := 1.0 - p) and s * log2(s / r))) < 0.0 else d
        for p in ps
    ]


def _rrd(ps: Sequence[float], q: float) -> list[float]:
    if q >= 0.5:
        raise MeasureUndefinedError(
            f"rRD needs g1 to be a strict minority of the list; its share is {q:.6g}"
        )
    # An all-g1 prefix can only lead the list, so ps[0] is 1.0 if any share is.
    if ps[0] == 1.0:
        raise MeasureUndefinedError(
            "rRD is undefined for a prefix consisting entirely of g1 documents"
        )
    qr = q / (1.0 - q)
    return [abs(p / (1.0 - p) - qr) for p in ps]


_DISTANCES = {"rnd": _rnd, "rkl": _rkl, "rrd": _rrd}


def _raw_score(member: Sequence[int], kind: str, step: int) -> float:
    """Un-normalized score: sum of d(P@i, P@end) / log2(i) over evaluation points."""
    points, logs = _eval_table(len(member), step)
    if not points:
        return 0.0
    q = sum(member) / len(member)
    counts = itertools.islice(itertools.accumulate(member), points[0] - 1, None, step)
    ps = list(map(truediv, counts, points))
    return math.fsum(map(truediv, _DISTANCES[kind](ps, q), logs))


def _distance(kind: str, r: RankedList, g1, i: int) -> float:
    if type(i) is not int:  # a bool or a float is not a rank
        raise InputError(f"rank must be an integer, got {i!r}")
    member = r.mask(g1)
    if not 1 <= i <= len(member):
        raise InputError(f"rank {i} outside list of length {len(member)}")
    return _DISTANCES[kind]([sum(member[:i]) / i], sum(member) / len(member))[0]


def distance_rnd(r: RankedList, g1, i: int) -> float:
    """Absolute gap between g1's share of the top-i prefix and of the whole list.

    The absolute value makes the first prefix of a 50:50 list score 0.5 no
    matter which group is ranked first.
    """
    return _distance("rnd", r, g1, i)


def distance_rkl(r: RankedList, g1, i: int) -> float:
    """KL divergence (bits) between the top-i group split and the whole-list split."""
    return _distance("rkl", r, g1, i)


def distance_rrd(r: RankedList, g1, i: int) -> float:
    """Absolute gap between the g1:g2 share ratios of the top-i prefix and the whole list."""
    return _distance("rrd", r, g1, i)


@functools.lru_cache(maxsize=1024, typed=True)
def normalizer_z(kind: str, list_len: int, g1_count: int, step: int = DEFAULT_STEP) -> float:
    """Largest un-normalized score over the two extremal arrangements.

    The candidates are all-g1-first and all-g1-last; for rND and rKL the
    winner is the maximum over every arrangement (brute-force checked in the
    test suite at small sizes). Arrangements on which the distance itself is
    undefined (possible for rRD) are not attainable and are skipped. Returns
    0.0 when no arrangement produces a positive score, e.g. for group counts
    0 or list_len. Values are memoized, since many lists share a length and
    group size.
    """
    BaselineConfig(step=step, kind=kind)  # raises ConfigError on a bad kind or step
    for what, count in (("list length", list_len), ("g1 count", g1_count)):
        if type(count) is not int:
            raise InputError(f"{what} must be an integer, got {count!r}")
    if not 0 <= g1_count <= list_len:
        raise InputError(
            f"g1 count {g1_count} outside [0, {list_len}] for list length {list_len}"
        )
    if list_len == 0:
        return 0.0
    g1_first = [True] * g1_count + [False] * (list_len - g1_count)
    best = 0.0
    for member in (g1_first, g1_first[::-1]):
        try:
            best = max(best, _raw_score(member, kind, step))
        except MeasureUndefinedError:
            continue
    return best


def baseline_score(r: RankedList, g1, cfg: BaselineConfig) -> float:
    """Normalized prefix-representation score of one list for group g1.

    Raises InputError when the list is shorter than the step (no evaluation
    points) and MeasureUndefinedError when no arrangement of this length and
    group size scores above zero, leaving nothing to normalize against.
    """
    member = r.mask(g1)
    if len(member) < cfg.step:
        raise InputError(
            f"list of {len(member)} documents has no evaluation points at step {cfg.step}"
        )
    raw = _raw_score(member, cfg.kind, cfg.step)
    z = normalizer_z(cfg.kind, len(member), sum(member), cfg.step)
    if z == 0.0:
        raise MeasureUndefinedError(
            f"no arrangement of {sum(member)} g1 documents in {len(member)} scores "
            f"above zero at step {cfg.step}; score cannot be normalized"
        )
    return raw / z
