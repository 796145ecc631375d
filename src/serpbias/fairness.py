"""Prefix-representation fairness scores for rankings: rND, rKL, rRD.

These measures track a single protected group g1 and score how far its share
of each top-i prefix drifts from its share of the whole list. Per-prefix
distances are discounted by 1/log2(i), summed over evaluation points spaced
`step` ranks apart, and normalized by the largest value attainable at the
same list length and group size, so defined scores land in [0, 1].

Each list is scored in one pass over its prefix shares. The result is
bit-identical to the per-prefix sum of the distances that `distance_rnd`,
`distance_rkl` and `distance_rrd` define.

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
from dataclasses import dataclass
from operator import truediv
from typing import Callable, Hashable, Optional, Sequence

from .errors import InputError, MeasureUndefinedError, check_choice, check_positive_int
from .model import Document, RankedList

BASELINE_KINDS = ("rnd", "rkl", "rrd")

DEFAULT_STEP = 10

GroupOf = Callable[[Document], Hashable]


@dataclass(frozen=True)
class BaselineConfig:
    """Evaluation-point spacing and which of the three scores to compute.

    The default step of 10 evaluates top-10, top-20, ...; step 1 is allowed
    and evaluates every prefix (except top-1, whose 1/log2(i) discount is
    undefined).
    """

    step: int = DEFAULT_STEP
    kind: str = "rnd"

    def __post_init__(self):
        check_positive_int("step", self.step)
        check_choice("baseline kind", self.kind, BASELINE_KINDS)


def _membership(r: RankedList, g1, group_of: Optional[GroupOf]) -> Sequence[int]:
    """1 (or True) at each rank whose document is in g1, else 0 (False)."""
    if group_of is None:
        return r.mask(g1)
    return [group_of(doc) == g1 for doc in r.docs]


def _share(member: Sequence[int], i: int) -> float:
    return sum(member[:i]) / i


def _eval_points(length: int, step: int) -> range:
    # The 1/log2(i) discount is undefined at i = 1, so step 1 starts at top-2.
    return range(step if step > 1 else 2, length + 1, step)


@functools.lru_cache(maxsize=1024)
def _eval_table(length: int, step: int) -> tuple[range, tuple[float, ...]]:
    """The evaluation points of a list of `length` at `step`, and their log2(i)."""
    points = _eval_points(length, step)
    return points, tuple(map(math.log2, points))


def _d_rnd(p: float, q: float) -> float:
    return abs(p - q)


def _d_rkl(p: float, q: float) -> float:
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


def _d_rrd(p: float, q: float) -> float:
    if q >= 0.5:
        raise MeasureUndefinedError(
            f"rRD needs g1 to be a strict minority of the list; its share is {q:.6g}"
        )
    if p == 1.0:
        raise MeasureUndefinedError(
            "rRD is undefined for a prefix consisting entirely of g1 documents"
        )
    return abs(p / (1.0 - p) - q / (1.0 - q))


def _raw_score(member: Sequence[int], kind: str, step: int) -> float:
    """Un-normalized score: sum of d(P@i, P@end) / log2(i) over evaluation points.

    One pass over the prefix shares P@i writes out the expressions of the
    per-prefix distances `_d_*`, so every float operation and the result
    are the ones their per-prefix sum would give.
    """
    points, logs = _eval_table(len(member), step)
    if not points:
        return 0.0
    q = sum(member) / len(member)
    counts = itertools.islice(itertools.accumulate(member), points[0] - 1, None, step)
    ps = list(map(truediv, counts, points))
    if kind == "rnd":
        dists = [abs(p - q) for p in ps]
    elif kind == "rkl":
        if q == 0.0 or q == 1.0:
            return 0.0  # every prefix holds one group alone, at distance exactly 0.0
        # Prefixes holding one group alone (p is 0 or 1) lead the list; their
        # 0*log(0) terms go through _d_rkl, the rest have both terms finite.
        lead = next((j for j, p in enumerate(ps) if 0.0 < p < 1.0), len(ps))
        dists = [_d_rkl(p, q) for p in ps[:lead]]
        log2, r = math.log2, 1.0 - q
        # `0.0 if d < 0.0 else d` is _d_rkl's max(d, 0.0) without a call per point.
        dists += [
            0.0 if (d := p * log2(p / q) + (1.0 - p) * log2((1.0 - p) / r)) < 0.0 else d
            for p in ps[lead:]
        ]
    else:
        # An all-g1 prefix can only lead the list, so the first point raises
        # whatever error any point would, in _d_rrd's order.
        dists = [_d_rrd(ps[0], q)]
        qr = q / (1.0 - q)
        dists += [abs(p / (1.0 - p) - qr) for p in ps[1:]]
    return math.fsum(map(truediv, dists, logs))


def _shares_at(r: RankedList, g1, i: int, group_of: Optional[GroupOf]) -> tuple[float, float]:
    if type(i) is not int:  # a bool or a float is not a rank
        raise InputError(f"rank must be an integer, got {i!r}")
    member = _membership(r, g1, group_of)
    if not 1 <= i <= len(member):
        raise InputError(f"rank {i} outside list of length {len(member)}")
    return _share(member, i), _share(member, len(member))


def distance_rnd(r: RankedList, g1, i: int, group_of: Optional[GroupOf] = None) -> float:
    """Absolute gap between g1's share of the top-i prefix and of the whole list.

    The absolute value makes the first prefix of a 50:50 list score 0.5 no
    matter which group is ranked first.
    """
    return _d_rnd(*_shares_at(r, g1, i, group_of))


def distance_rkl(r: RankedList, g1, i: int, group_of: Optional[GroupOf] = None) -> float:
    """KL divergence (bits) between the top-i group split and the whole-list split."""
    return _d_rkl(*_shares_at(r, g1, i, group_of))


def distance_rrd(r: RankedList, g1, i: int, group_of: Optional[GroupOf] = None) -> float:
    """Absolute gap between the g1:g2 share ratios of the top-i prefix and the whole list."""
    return _d_rrd(*_shares_at(r, g1, i, group_of))


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


def baseline_score(
    r: RankedList, g1, cfg: BaselineConfig, group_of: Optional[GroupOf] = None
) -> float:
    """Normalized prefix-representation score of one list for group g1.

    Raises InputError when the list is shorter than the step (no evaluation
    points) and MeasureUndefinedError when no arrangement of this length and
    group size scores above zero, leaving nothing to normalize against.
    """
    member = _membership(r, g1, group_of)
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
