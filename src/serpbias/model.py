"""Label vocabularies and the ranked-result data model.

A result page is a RankedList of labeled documents for one (engine, query)
pair; an EngineRun collects one list per query for a single engine. Each
document carries a stance toward the query's controversial topic, each query
carries an ideological leaning, and the two combine into per-document
ideology labels when slant is measured on the conservative/liberal axis.

All types are immutable after construction and every function here is pure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

from .errors import InputError


class _Label(enum.Enum):
    """A label vocabulary whose members print as, and parse from, their wire strings."""

    def __str__(self) -> str:
        return self.value

    @classmethod
    def from_str(cls, text: str) -> "_Label":
        member = cls._value2member_map_.get(text) if isinstance(text, str) else None
        if member is None:
            what = cls.__name__[: -len("Label")].lower()
            valid = ", ".join(m.value for m in cls)
            raise InputError(f"unknown {what} label {text!r} (expected one of: {valid})")
        return member


class StanceLabel(_Label):
    """Document stance toward the query topic."""

    PRO = "pro"
    NEUTRAL = "neutral"
    AGAINST = "against"
    NOT_RELEVANT = "not-relevant"


class LeaningLabel(_Label):
    """Ideological leaning of a query topic."""

    CONSERVATIVE = "conservative"
    LIBERAL = "liberal"
    BOTH_OR_NEITHER = "both_or_neither"


class IdeologyLabel(_Label):
    """Per-document ideology derived from (query leaning, document stance).

    EXCLUDED only arises for documents of both-or-neither queries, which have
    no side to credit.
    """

    CONSERVATIVE = "conservative"
    LIBERAL = "liberal"
    NEUTRAL = "neutral"
    NOT_RELEVANT = "not-relevant"
    EXCLUDED = "excluded"


Label = Union[StanceLabel, IdeologyLabel]


@dataclass(frozen=True)
class Document:
    """One retrieved document: 1-based rank, its label, and an opaque id."""

    rank: int
    stance: Label
    doc_id: str

    def __post_init__(self):
        if self.rank < 1:
            raise InputError(f"document rank must be >= 1, got {self.rank}")


@dataclass(frozen=True)
class RankedList:
    """The ranked documents one engine returned for one query.

    Ranks must be contiguous 1..len(docs) in ascending order, doc_ids must
    be unique within the list, and every document carries the same label type
    (all stance or all ideology). Empty lists are legal (a failed crawl still
    counts as a result page).
    """

    engine_id: str
    query_id: str
    leaning: LeaningLabel
    docs: tuple[Document, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "docs", tuple(self.docs))
        label_type = type(self.docs[0].stance) if self.docs else None
        for position, doc in enumerate(self.docs, start=1):
            if doc.rank != position:
                raise InputError(
                    f"rank gap in list ({self.engine_id}, {self.query_id}): "
                    f"expected rank {position}, got {doc.rank}"
                )
            if type(doc.stance) is not label_type:
                raise InputError(
                    f"mixed label types in list ({self.engine_id}, {self.query_id}): "
                    f"rank {position} is {type(doc.stance).__name__}, "
                    f"rank 1 is {label_type.__name__}"
                )
        ids = [doc.doc_id for doc in self.docs]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise InputError(
                f"duplicate doc_id in list ({self.engine_id}, {self.query_id}): {dupes}"
            )

    def __len__(self) -> int:
        return len(self.docs)


@dataclass(frozen=True)
class EngineRun:
    """One engine's lists over the whole query set, keyed by query_id."""

    engine_id: str
    lists: dict[str, RankedList]

    def __post_init__(self):
        object.__setattr__(self, "lists", dict(self.lists))
        for query_id, ranked in self.lists.items():
            if ranked.engine_id != self.engine_id:
                raise InputError(
                    f"list for query {query_id!r} belongs to engine "
                    f"{ranked.engine_id!r}, not {self.engine_id!r}"
                )
            if ranked.query_id != query_id:
                raise InputError(
                    f"list keyed {query_id!r} carries query_id {ranked.query_id!r}"
                )

    def query_ids(self) -> list[str]:
        return sorted(self.lists)


# The two opposing labels of each label space, positive side first: slant is
# the positive side's utility minus the negative side's, and mirror swaps them.
SIDES = {
    StanceLabel: (StanceLabel.PRO, StanceLabel.AGAINST),
    IdeologyLabel: (IdeologyLabel.CONSERVATIVE, IdeologyLabel.LIBERAL),
}


def _require_stance(label) -> None:
    if not isinstance(label, StanceLabel):
        raise InputError(f"only stance labels map to ideology, got {type(label).__name__} {label}")


def transform_stance_to_ideology(leaning: LeaningLabel, stance: StanceLabel) -> IdeologyLabel:
    """Map one (query leaning, document stance) pair to an ideology label.

    A pro document on a conservative topic carries conservative content and
    an against document carries liberal content; the sides swap for liberal
    topics. Neutral and not-relevant stances pass through unchanged, and
    documents of both-or-neither queries come back EXCLUDED. A label that is
    not a stance raises InputError.
    """
    _require_stance(stance)
    if stance is StanceLabel.NEUTRAL:
        return IdeologyLabel.NEUTRAL
    if stance is StanceLabel.NOT_RELEVANT:
        return IdeologyLabel.NOT_RELEVANT
    if leaning is LeaningLabel.BOTH_OR_NEITHER:
        return IdeologyLabel.EXCLUDED
    pro, against = SIDES[IdeologyLabel]
    if leaning is LeaningLabel.LIBERAL:
        pro, against = against, pro
    return pro if stance is StanceLabel.PRO else against


def _relabel(r: RankedList, table: dict) -> RankedList:
    """r with each document label looked up in table; labels not in it stay."""
    docs = (Document(doc.rank, table.get(doc.stance, doc.stance), doc.doc_id) for doc in r.docs)
    return RankedList(r.engine_id, r.query_id, r.leaning, tuple(docs))


_LIST_IDEOLOGY = {
    leaning: {
        stance: IdeologyLabel.NOT_RELEVANT
        if transform_stance_to_ideology(leaning, stance) is IdeologyLabel.EXCLUDED
        else transform_stance_to_ideology(leaning, stance)
        for stance in StanceLabel
    }
    for leaning in LeaningLabel
}


def transform_list(r: RankedList) -> RankedList:
    """Relabel a stance list with ideology labels, keeping length and ranks.

    EXCLUDED documents are stored as NOT_RELEVANT so they keep their rank
    position while contributing nothing to any measure. A list that already
    carries ideology labels raises InputError.
    """
    if r.docs:
        _require_stance(r.docs[0].stance)
    return _relabel(r, _LIST_IDEOLOGY[r.leaning])


_MIRROR = {a: b for pair in SIDES.values() for a, b in (pair, pair[::-1])}


def mirror(r: RankedList) -> RankedList:
    """Swap the two opposing labels (pro/against or conservative/liberal).

    Everything else is left alone, so mirror(mirror(r)) == r.
    """
    return _relabel(r, _MIRROR)
