"""Positional utility measures restricted to one label.

Each measure scores how well a single ranked list serves a reader looking
for documents with a given label: precision counts the share of the top n,
rank-biased precision applies a geometric persistence model, and DCG applies
a logarithmic position discount. Ranks past the end of a short list simply
contribute nothing.

All three share one form: a per-rank discount table w_1..w_k (1 for
precision, p**(i-1) for RBP, 1/log_b(i+1) for DCG), summed over the ranks
that hold the label and then scaled (divided by n for precision, times 1 - p
for RBP, unscaled for DCG). `discounts` and `scale` state that form once, and
the slant in bias.py reads them too.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .errors import ConfigError, check_choice, check_fraction, check_positive_int
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
        check_fraction("persistence", persistence)
        _check_log_base(log_base)
        check_choice("measure kind", measure_kind, MEASURE_KINDS)
        fields = self.__dict__
        fields["cutoff"], fields["persistence"] = cutoff, persistence
        fields["log_base"], fields["measure_kind"] = log_base, measure_kind


def _check_log_base(base):
    try:
        if base > 1.0 and math.isfinite(base):
            return
    except TypeError:  # not a number
        pass
    raise ConfigError(f"log base must be a finite number greater than 1, got {base!r}")


@functools.lru_cache(maxsize=1024)
def discounts(cfg: MeasureConfig, length: int) -> tuple[float, ...]:
    """Per-rank discounts w_1..w_k of cfg's measure for a list of `length` documents.

    Precision and DCG stop at the cutoff, k = min(cutoff, length); RBP reads
    the whole list. Tables are memoized, so every list of one length shares one.
    """
    if cfg.measure_kind == "rbp":
        return tuple(cfg.persistence ** i for i in range(length))
    depth = min(cfg.cutoff, length)
    if cfg.measure_kind == "precision":
        return (1.0,) * depth
    return tuple(1.0 / math.log(i + 1, cfg.log_base) for i in range(1, depth + 1))


def scale(cfg: MeasureConfig):
    """(operator, factor): a side's utility is operator(sum of its discounts, factor)."""
    if cfg.measure_kind == "precision":
        return operator.truediv, cfg.cutoff
    if cfg.measure_kind == "rbp":
        return operator.mul, 1.0 - cfg.persistence
    return operator.mul, 1.0


def _utility(r: RankedList, label: Label, cfg: MeasureConfig) -> float:
    """Utility of r for readers of `label` under cfg's measure."""
    op, factor = scale(cfg)
    return op(math.fsum(itertools.compress(discounts(cfg, len(r)), r.mask(label))), factor)


def precision_at(r: RankedList, label: Label, n: int) -> float:
    """Fraction of the top n ranks occupied by documents labeled `label`."""
    return _utility(r, label, MeasureConfig(cutoff=n))


def rbp(r: RankedList, label: Label, p: float) -> float:
    """Rank-biased precision for `label`: (1 - p) * sum of p**(i-1) over matching ranks i.

    The sum runs over retrieved documents only; no residual is imputed for
    ranks beyond the list, so the value is bounded by 1 - p**len(r).
    """
    return _utility(r, label, MeasureConfig(persistence=p, measure_kind="rbp"))


def dcg_at(r: RankedList, label: Label, n: int, base: float = DEFAULT_LOG_BASE) -> float:
    """Discounted cumulative gain at cutoff n: a match at rank i gains 1/log_base(i+1)."""
    return _utility(r, label, MeasureConfig(cutoff=n, log_base=base, measure_kind="dcg"))
