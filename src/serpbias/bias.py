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

from itertools import starmap
from math import fsum
from operator import sub

from .errors import InputError
# precision_at, rbp and dcg_at stay names here: perfbench/trace.py times them.
from .measures import MeasureConfig, dcg_at, precision_at, rbp, utilities
from .model import NEGATIVE_MASK, POSITIVE_MASK, EngineRun, RankedList
from .record import Record
from .stats import Sample


class BiasRecord(Record):
    """Slant of one list; the BiasSummary holding it names the measure."""

    query_id: str
    beta: float


class BiasSummary(Record):
    """Per-engine aggregate: signed mean (mb), mean absolute (mab), and each
    query's slant, as two columns in query order."""

    engine: str
    measure: str
    mb: float
    mab: float
    query_ids: tuple[str, ...]
    betas: tuple[float, ...]

    # The JSON writes the columns as the rows of per_query (see report.py).
    _rows = ("per_query", BiasRecord)

    @property
    def per_query(self) -> tuple[BiasRecord, ...]:
        """One BiasRecord per query, built from the columns on each access;
        ValueError when their lengths differ."""
        return tuple(starmap(BiasRecord._new, zip(self.query_ids, self.betas, strict=True)))


def _betas(lists, cfg: MeasureConfig) -> list[float]:
    """Each list's slant: its positive side's utility minus its negative side's,
    from the side masks of model.SIDES."""
    positives = [r.codes.translate(POSITIVE_MASK) for r in lists]
    negatives = [r.codes.translate(NEGATIVE_MASK) for r in lists]
    return list(map(sub, utilities(positives, cfg), utilities(negatives, cfg)))


def bias(r: RankedList, cfg: MeasureConfig) -> float:
    """Positive-side utility minus negative-side utility under cfg.measure_kind.

    The sides are pro/against, or conservative/liberal when the documents
    carry ideology labels. Each side's utility is computed on its own and
    only then subtracted; an empty list scores 0.
    """
    return _betas((r,), cfg)[0]


def summarize_run(run: EngineRun, cfg: MeasureConfig) -> BiasSummary:
    """Per-query slants plus both aggregates for one engine under one measure,
    read from the run's lists at each call. The betas are a stats.Sample, so
    every t-test takes them as they are."""
    if not run.lists:
        raise InputError(f"engine {run.engine_id!r} has an empty query set")
    betas = Sample(_betas(run.lists.values(), cfg))
    mb, mab = fsum(betas) / len(betas), fsum(map(abs, betas)) / len(betas)
    return BiasSummary(run.engine_id, cfg.measure_kind, mb, mab, tuple(run.lists), betas)
