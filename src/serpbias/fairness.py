"""Prefix-representation fairness scores for rankings: rND, rKL, rRD.

These measures track a single protected group g1 and score how far its share
of each top-i prefix drifts from its share of the whole list. Per-prefix
distances are discounted by 1/log2(i), summed over evaluation points spaced
`step` ranks apart, and normalized by the largest value attainable at the
same list length and group size, so defined scores land in [0, 1].

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
from typing import Callable, Hashable, Optional, Sequence

from .errors import ConfigError, InputError, MeasureUndefinedError, check_choice
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
        if not isinstance(self.step, int) or self.step < 1:
            raise ConfigError(f"step must be a positive integer, got {self.step!r}")
        check_choice("baseline kind", self.kind, BASELINE_KINDS)


def _membership(r: RankedList, g1, group_of: Optional[GroupOf]) -> Sequence[int]:
    """1 (or True) at each rank whose document is in g1, else 0 (False)."""
    if group_of is None:
        return r.mask(g1)
    return [group_of(doc) == g1 for doc in r.docs]


def _share(member: Sequence[int], i: int) -> float:
    return sum(member[:i]) / i


def _eval_points(length: int, step: int) -> list[int]:
    # The 1/log2(i) discount is undefined at i = 1, so step 1 starts at top-2.
    return [i for i in range(step, length + 1, step) if i > 1]


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


_DISTANCES = {"rnd": _d_rnd, "rkl": _d_rkl, "rrd": _d_rrd}


def _raw_score(member: Sequence[int], kind: str, step: int) -> float:
    """Un-normalized score: sum of d(P@i, P@end) / log2(i) over evaluation points."""
    if not member:
        return 0.0
    distance = _DISTANCES[kind]
    q = _share(member, len(member))
    prefix = list(itertools.accumulate(member))
    return math.fsum(
        distance(prefix[i - 1] / i, q) / math.log2(i)
        for i in _eval_points(len(member), step)
    )


def _shares_at(r: RankedList, g1, i: int, group_of: Optional[GroupOf]) -> tuple[float, float]:
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
