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

from itertools import compress
from math import fsum

from .errors import InputError
# precision_at, rbp and dcg_at stay names here: perfbench/trace.py times them.
from .measures import MeasureConfig, dcg_at, discounts, precision_at, rbp, scale
from .model import EngineRun, RankedList, side_masks
from .record import Record


class BiasRecord(Record):
    """Slant of one list; the BiasSummary holding it names the measure."""

    query_id: str
    beta: float

    def __init__(self, query_id: str, beta: float):
        fields = self.__dict__
        fields["query_id"], fields["beta"] = query_id, beta


class BiasSummary(Record):
    """Per-engine aggregate: signed mean (mb), mean absolute (mab), per-query detail."""

    engine: str
    measure: str
    mb: float
    mab: float
    per_query: tuple[BiasRecord, ...]

    def __init__(self, engine: str, measure: str, mb: float, mab: float, per_query: tuple):
        fields = self.__dict__
        fields["engine"], fields["measure"], fields["mb"], fields["mab"] = engine, measure, mb, mab
        fields["per_query"] = per_query


def _betas(masks, cfg: MeasureConfig) -> list[float]:
    """The slant of each list from its (positive, negative) masks, one discount table per length."""
    op, factor = scale(cfg)
    cache, betas = {}, []
    for positive, negative in masks:
        weights = cache.get(len(positive))
        if weights is None:
            weights = cache[len(positive)] = discounts(cfg, len(positive))
        utility = op(fsum(compress(weights, positive)), factor)
        betas.append(utility - op(fsum(compress(weights, negative)), factor))
    return betas


def bias(r: RankedList, cfg: MeasureConfig) -> float:
    """Positive-side utility minus negative-side utility under cfg.measure_kind.

    The sides are pro/against, or conservative/liberal when the documents
    carry ideology labels. Each side's utility is computed on its own and
    only then subtracted; an empty list scores 0.
    """
    return _betas(side_masks((r,)), cfg)[0]


def _checked(masks, lists) -> list:
    """masks, if it is a list or tuple of one pair of bytes per list, each as long as it."""
    if isinstance(masks, (list, tuple)) and len(masks) == len(lists):
        try:
            for (pos, neg), r in zip(masks, lists):
                if not (type(pos) is type(neg) is bytes and len(pos) == len(neg) == len(r)):
                    break
            else:
                return masks
        except (TypeError, ValueError):  # an entry that is not a pair
            pass
    raise InputError(f"masks need {len(lists)} pairs of bytes, one per list and as long as it")


def summarize_run(run: EngineRun, cfg: MeasureConfig, masks=None) -> BiasSummary:
    """Per-query slants plus both aggregates for one engine under one measure.

    `masks` may give the lists' side masks in query order (model.side_masks), so
    measures can share them; by default each list is read as labeled."""
    if not run.lists:
        raise InputError(f"engine {run.engine_id!r} has an empty query set")
    lists = run.lists.values()
    betas = _betas(side_masks(lists) if masks is None else _checked(masks, lists), cfg)
    mb, mab = fsum(betas) / len(betas), fsum(map(abs, betas)) / len(betas)
    per_query = tuple(map(BiasRecord, run.lists, betas))
    return BiasSummary(run.engine_id, cfg.measure_kind, mb, mab, per_query)
