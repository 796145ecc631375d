"""Signed slant of one list and per-engine aggregates.

The slant of a list is the utility of the positive side minus the utility of
the negative side: pro minus against for stance-labeled lists, conservative
minus liberal for ideology-labeled lists. Positive values mean the list
favors the pro (or conservative) side. Per-engine aggregation offers the
signed mean, where opposite slants on different queries cancel, and the mean
absolute value, which keeps the magnitude but drops the direction; the two
are complementary.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import fsum
from operator import attrgetter, mul, truediv

from .errors import InputError, check_choice
# precision_at, rbp and dcg_at stay names here: perfbench/trace.py times them.
from .measures import MEASURE_KINDS, MeasureConfig, dcg_at, discounts, precision_at, rbp
from .model import NEGATIVE_MASK, POSITIVE_MASK, EngineRun, RankedList


@dataclass(frozen=True)
class BiasRecord:
    """Slant of one list; the BiasSummary holding it names the measure."""

    query_id: str
    beta: float


@dataclass(frozen=True)
class BiasSummary:
    """Per-engine aggregate: signed mean (mb), mean absolute (mab), per-query detail."""

    engine: str
    measure: str
    mb: float
    mab: float
    per_query: tuple[BiasRecord, ...]


def _form(kind: str, cfg: MeasureConfig):
    """(discount parameter, cutoff, scale, factor): utility = scale(discounted hits, factor)."""
    if kind == "precision":
        return None, cfg.cutoff, truediv, cfg.cutoff
    if kind == "rbp":
        return cfg.persistence, None, mul, 1.0 - cfg.persistence
    return cfg.log_base, cfg.cutoff, mul, 1.0


def _betas(lists, cfg: MeasureConfig) -> list[float]:
    """The slant of each RankedList in lists, with one discount table per length."""
    parameter, cutoff, scale, factor = _form(cfg.measure_kind, cfg)
    cache, betas = {}, []
    for codes in map(attrgetter("codes"), lists):
        weights = cache.get(len(codes))
        if weights is None:
            weights = cache[len(codes)] = discounts(cfg.measure_kind, parameter, cutoff, len(codes))
        positive = fsum(compress(weights, codes.translate(POSITIVE_MASK)))
        negative = fsum(compress(weights, codes.translate(NEGATIVE_MASK)))
        betas.append(scale(positive, factor) - scale(negative, factor))
    return betas


def bias(r: RankedList, cfg: MeasureConfig) -> float:
    """Positive-side utility minus negative-side utility under cfg.measure_kind.

    The sides are pro/against, or conservative/liberal when the documents
    carry ideology labels. Each side's utility is computed on its own and
    only then subtracted; an empty list scores 0.
    """
    return _betas((r,), cfg)[0]


def per_query_bias(run: EngineRun, cfg: MeasureConfig) -> list[BiasRecord]:
    """Slant of every list in the run, in the run's query-id order."""
    return list(summarize_run(run, cfg).per_query)


def mean_bias(run: EngineRun, cfg: MeasureConfig) -> float:
    """Signed mean slant over the query set. 0 for an unbiased engine, but also
    0 when slants in opposite directions cancel out."""
    return summarize_run(run, cfg).mb


def mean_abs_bias(run: EngineRun, cfg: MeasureConfig) -> float:
    """Mean absolute slant over the query set; immune to cancellation, blind to direction."""
    return summarize_run(run, cfg).mab


def summarize_run(run: EngineRun, cfg: MeasureConfig) -> BiasSummary:
    """Per-query slants plus both aggregates for one engine under one measure."""
    if not run.lists:
        raise InputError(f"engine {run.engine_id!r} has an empty query set")
    betas = _betas(run.lists.values(), cfg)
    mb, mab = fsum(betas) / len(betas), fsum(map(abs, betas)) / len(betas)
    per_query = tuple(map(BiasRecord, run.lists, betas))
    return BiasSummary(run.engine_id, cfg.measure_kind, mb, mab, per_query)


def beta_max(measure_kind: str, cfg: MeasureConfig, list_len: int) -> float:
    """Tight upper bound on |bias| for a list of the given length.

    Attained by a list entirely labeled on one side: 1 for precision (once
    the list reaches the cutoff), and for RBP and DCG the scaled sum of the
    list's discount table, which for RBP is 1 - p**len up to rounding.
    """
    check_choice("measure kind", measure_kind, MEASURE_KINDS)
    if list_len < 0:
        raise InputError(f"list length must be >= 0, got {list_len}")
    if measure_kind == "precision":
        return 1.0
    parameter, cutoff, scale, factor = _form(measure_kind, cfg)
    return scale(fsum(discounts(measure_kind, parameter, cutoff, list_len)), factor)
