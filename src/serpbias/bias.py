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

import math
from dataclasses import dataclass

from .errors import InputError, check_choice
from .measures import MEASURE_KINDS, MeasureConfig, dcg_at, discounts, precision_at, rbp
from .model import SIDES, EngineRun, RankedList, StanceLabel


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


def bias(r: RankedList, cfg: MeasureConfig) -> float:
    """Positive-side utility minus negative-side utility under cfg.measure_kind.

    The sides are pro/against, or conservative/liberal when the documents
    carry ideology labels (a list holds one label type). Empty lists take
    the stance pair; their slant is 0 either way. Each side's utility is
    computed on its own and only then subtracted.
    """
    positive, negative = SIDES[r.label_type or StanceLabel]
    if cfg.measure_kind == "precision":
        return precision_at(r, positive, cfg.cutoff) - precision_at(r, negative, cfg.cutoff)
    if cfg.measure_kind == "rbp":
        return rbp(r, positive, cfg.persistence) - rbp(r, negative, cfg.persistence)
    return dcg_at(r, positive, cfg.cutoff, cfg.log_base) - dcg_at(
        r, negative, cfg.cutoff, cfg.log_base
    )


def per_query_bias(run: EngineRun, cfg: MeasureConfig) -> list[BiasRecord]:
    """Slant of every list in the run, in the run's query-id order."""
    if not run.lists:
        raise InputError(f"engine {run.engine_id!r} has an empty query set")
    return [BiasRecord(query_id, bias(ranked, cfg)) for query_id, ranked in run.lists.items()]


def mean_bias(run: EngineRun, cfg: MeasureConfig) -> float:
    """Signed mean slant over the query set. 0 for an unbiased engine, but also
    0 when slants in opposite directions cancel out."""
    return summarize_run(run, cfg).mb


def mean_abs_bias(run: EngineRun, cfg: MeasureConfig) -> float:
    """Mean absolute slant over the query set; immune to cancellation, blind to direction."""
    return summarize_run(run, cfg).mab


def summarize_run(run: EngineRun, cfg: MeasureConfig) -> BiasSummary:
    """Per-query slants plus both aggregates for one engine under one measure."""
    records = per_query_bias(run, cfg)
    n = len(records)
    return BiasSummary(
        engine=run.engine_id,
        measure=cfg.measure_kind,
        mb=math.fsum(rec.beta for rec in records) / n,
        mab=math.fsum(abs(rec.beta) for rec in records) / n,
        per_query=tuple(records),
    )


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
    if measure_kind == "rbp":
        p = cfg.persistence
        return (1.0 - p) * math.fsum(discounts("rbp", p, None, list_len))
    return math.fsum(discounts("dcg", cfg.log_base, cfg.cutoff, list_len))
