"""Positional utility measures restricted to one label.

Each measure scores how well a single ranked list serves a reader looking
for documents with a given label: precision counts the share of the top n,
rank-biased precision applies a geometric persistence model, and DCG applies
a logarithmic position discount. Ranks past the end of a short list simply
contribute nothing.

All three share one form: a per-rank discount table w_1..w_k (1 for
precision, p**(i-1) for RBP, 1/log_b(i+1) for DCG), summed over the ranks
that hold the label and then scaled (divided by n for precision, times 1 - p
for RBP, unscaled for DCG). `utilities` states that form once, and the slant
in bias.py reads it too.
"""

from __future__ import annotations

import math
from itertools import compress

from .errors import ConfigError, check_choice, check_fraction, check_positive_int, real, shown
from .model import Label, RankedList
from .record import Record

MEASURE_KINDS = ("precision", "rbp", "dcg")

DEFAULT_CUTOFF = 10
DEFAULT_PERSISTENCE = 0.8
DEFAULT_LOG_BASE = 2.0


class MeasureConfig(Record):
    """Parameters shared by the utility measures.

    cutoff bounds precision and DCG, persistence drives RBP's geometric
    decay, log_base sets the DCG discount, and measure_kind picks which of
    the three is computed by the slant functions.
    """

    cutoff: int
    persistence: float
    log_base: float
    measure_kind: str

    def __init__(
        self, cutoff: int = DEFAULT_CUTOFF, persistence: float = DEFAULT_PERSISTENCE,
        log_base: float = DEFAULT_LOG_BASE, measure_kind: str = "precision",
    ):
        check_positive_int("cutoff", cutoff)
        if real(cutoff) == math.inf:  # for every kind, though only precision divides by it
            raise ConfigError("cutoff must lie in the float range, up to 1.8e308")
        persistence = check_fraction("persistence", persistence)
        if (base := real(log_base)) is None or not 1.0 < base < math.inf:
            raise ConfigError(
                f"log base must be a finite number greater than 1, got {shown(log_base)}"
            )
        check_choice("measure kind", measure_kind, MEASURE_KINDS)
        self._fill(cutoff, persistence, base, measure_kind)


def utilities(masks, cfg: MeasureConfig) -> list[float]:
    """Each mask's utility under cfg's measure: the fsum of the discounts at its
    marked ranks, then scaled.

    One table serves every mask, built for the longest: compress stops at each
    mask's end, and no rank's discount depends on the table's length.
    Precision and DCG stop at the cutoff; RBP reads the whole list.
    """
    length = max(map(len, masks), default=0)
    depth = min(cfg.cutoff, length)
    if cfg.measure_kind == "rbp":
        weights = [cfg.persistence ** i for i in range(length)]
        factor = 1.0 - cfg.persistence
        return [math.fsum(compress(weights, m)) * factor for m in masks]
    if cfg.measure_kind == "precision":
        weights, n = [1.0] * depth, cfg.cutoff
        return [math.fsum(compress(weights, m)) / n for m in masks]
    weights = [1.0 / math.log(i + 1, cfg.log_base) for i in range(1, depth + 1)]
    return [math.fsum(compress(weights, m)) for m in masks]


def precision_at(r: RankedList, label: Label, n: int) -> float:
    """Fraction of the top n ranks occupied by documents labeled `label`."""
    return utilities((r.mask(label),), MeasureConfig(cutoff=n))[0]


def rbp(r: RankedList, label: Label, p: float) -> float:
    """Rank-biased precision for `label`: (1 - p) * sum of p**(i-1) over matching ranks i.

    The sum runs over retrieved documents only; no residual is imputed for
    ranks beyond the list, so the value is bounded by 1 - p**len(r).
    """
    return utilities((r.mask(label),), MeasureConfig(persistence=p, measure_kind="rbp"))[0]


def dcg_at(r: RankedList, label: Label, n: int, base: float = DEFAULT_LOG_BASE) -> float:
    """Discounted cumulative gain at cutoff n: a match at rank i gains 1/log_base(i+1)."""
    cfg = MeasureConfig(cutoff=n, log_base=base, measure_kind="dcg")
    return utilities((r.mask(label),), cfg)[0]
