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
from functools import cached_property

from .errors import InputError
from .record import Record


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


Label = StanceLabel | IdeologyLabel

# One code space for both label vocabularies: a list stores its labels as one
# byte per rank, LABELS[code], so the codes also say which vocabulary it uses.
LABELS: tuple[Label, ...] = (*StanceLabel, *IdeologyLabel)
CODE: dict[Label, int] = {label: code for code, label in enumerate(LABELS)}

# The two opposing labels of each label space, positive side first: slant is
# the positive side's utility minus the negative side's, and mirror swaps them.
SIDES = {
    StanceLabel: (StanceLabel.PRO, StanceLabel.AGAINST),
    IdeologyLabel: (IdeologyLabel.CONSERVATIVE, IdeologyLabel.LIBERAL),
}

# bytes.translate tables: _MASKS[label] turns a list's codes into 1 where the
# rank carries that label and 0 elsewhere; anything else matches no rank.
_MASKS = {label: bytes(int(c == code) for c in range(256)) for label, code in CODE.items()}
_NO_MATCH = bytes(256)
# The same for each side of SIDES, positive then negative: 1 where a rank carries
# that side's label in either label space; a list holds one label type.
POSITIVE_MASK, NEGATIVE_MASK = (
    bytes(map(side.__contains__, LABELS)).ljust(256, b"\0") for side in zip(*SIDES.values())
)


def check_id(field: str, value) -> None:
    """InputError naming field unless value, an engine or query id, is text."""
    if not isinstance(value, str):
        raise InputError(f"{field} must be a string, got {type(value).__name__} {value!r}")


class Document(Record):
    """One retrieved document: 1-based rank, its label, and an opaque id."""

    rank: int
    stance: Label
    doc_id: str

    def __init__(self, rank: int, stance: Label, doc_id: str):
        if rank < 1:
            raise InputError(f"document rank must be >= 1, got {rank}")
        fields = self.__dict__
        fields["rank"], fields["stance"], fields["doc_id"] = rank, stance, doc_id


class RankedList(Record):
    """The ranked documents one engine returned for one query.

    Ranks must be contiguous 1..len(docs) in ascending order, doc_ids must
    be unique within the list, and every document carries the same label type
    (all stance or all ideology). Empty lists are legal (a failed crawl still
    counts as a result page).

    The labels are stored as `codes`, one byte per rank indexing LABELS, next
    to the tuple `doc_ids`; the Document tuple `docs` is built from the two on
    first access. Equality and hashing compare these columns.
    """

    engine_id: str
    query_id: str
    leaning: LeaningLabel
    codes: bytes
    doc_ids: tuple[str, ...]

    def __init__(self, engine_id: str, query_id: str, leaning: LeaningLabel, docs=()):
        check_id("engine_id", engine_id)
        check_id("query_id", query_id)
        docs = tuple(docs)
        label_type = type(docs[0].stance) if docs else None
        for position, doc in enumerate(docs, start=1):
            if doc.rank != position:
                raise InputError(
                    f"rank gap in list ({engine_id}, {query_id}): "
                    f"expected rank {position}, got {doc.rank}"
                )
            if type(doc.stance) not in SIDES:
                raise InputError(
                    f"rank {position} of list ({engine_id}, {query_id}) carries "
                    f"{doc.stance!r}, not a stance or ideology label"
                )
            if type(doc.stance) is not label_type:
                raise InputError(
                    f"mixed label types in list ({engine_id}, {query_id}): "
                    f"rank {position} is {type(doc.stance).__name__}, "
                    f"rank 1 is {label_type.__name__}"
                )
        ids = tuple(doc.doc_id for doc in docs)
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise InputError(f"duplicate doc_id in list ({engine_id}, {query_id}): {dupes}")
        codes = bytes(CODE[doc.stance] for doc in docs)
        self._fill(engine_id, query_id, leaning, codes, ids)

    @classmethod
    def _from_columns(cls, engine_id, query_id, leaning, codes: bytes, doc_ids: tuple):
        """A list built from columns whose invariants the caller has already checked."""
        r = object.__new__(cls)
        r._fill(engine_id, query_id, leaning, codes, doc_ids)
        return r

    def _fill(self, engine_id, query_id, leaning, codes, doc_ids):
        # Frozen: fields are set through the instance dict, one item each, which
        # is faster than dict.update on a new instance's dict; parsing builds
        # one list per record, and transform_list one per list.
        fields = self.__dict__
        fields["engine_id"], fields["query_id"], fields["leaning"] = engine_id, query_id, leaning
        fields["codes"], fields["doc_ids"] = codes, doc_ids

    @cached_property
    def docs(self) -> tuple[Document, ...]:
        labeled = enumerate(zip(self.codes, self.doc_ids), start=1)
        return tuple(Document(rank, LABELS[code], doc_id) for rank, (code, doc_id) in labeled)

    def mask(self, label) -> bytes:
        """One byte per rank: 1 where the document is labeled `label`, else 0."""
        try:
            table = _MASKS.get(label, _NO_MATCH)
        except TypeError:  # an unhashable label is no label either
            table = _NO_MATCH
        return self.codes.translate(table)

    def __len__(self) -> int:
        return len(self.codes)


class EngineRun(Record):
    """One engine's lists over the whole query set, keyed and ordered by query_id."""

    engine_id: str
    lists: dict[str, RankedList]

    def __init__(self, engine_id: str, lists: dict[str, RankedList]):
        check_id("engine_id", engine_id)
        for query_id, ranked in lists.items():
            check_id("query_id", query_id)
            if ranked.engine_id != engine_id:
                raise InputError(
                    f"list for query {query_id!r} belongs to engine "
                    f"{ranked.engine_id!r}, not {engine_id!r}"
                )
            if ranked.query_id != query_id:
                raise InputError(
                    f"list keyed {query_id!r} carries query_id {ranked.query_id!r}"
                )
        # Sorted once every key is known to be text.
        self._fill(engine_id, lists)

    @classmethod
    def _from_checked(cls, engine_id: str, lists: dict[str, RankedList]) -> "EngineRun":
        """A run of lists whose ids the caller has already checked, as __init__ does."""
        run = object.__new__(cls)
        run._fill(engine_id, lists)
        return run

    def _fill(self, engine_id, lists):
        fields = self.__dict__
        fields["engine_id"], fields["lists"] = engine_id, dict(sorted(lists.items()))


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


def _translation(mapping: dict) -> bytes:
    """A bytes.translate table that relabels codes through mapping; other codes stay."""
    table = bytearray(range(256))
    for old, new in mapping.items():
        table[CODE[old]] = CODE[new]
    return bytes(table)


def _relabel(r: RankedList, table: bytes) -> RankedList:
    """r with its codes translated through table."""
    out = object.__new__(RankedList)
    out._fill(r.engine_id, r.query_id, r.leaning, r.codes.translate(table), r.doc_ids)
    return out


_LIST_IDEOLOGY = {
    leaning: _translation(
        {
            stance: IdeologyLabel.NOT_RELEVANT
            if transform_stance_to_ideology(leaning, stance) is IdeologyLabel.EXCLUDED
            else transform_stance_to_ideology(leaning, stance)
            for stance in StanceLabel
        }
    )
    for leaning in LeaningLabel
}


def transform_list(r: RankedList) -> RankedList:
    """Relabel a stance list with ideology labels, keeping length and ranks.

    EXCLUDED documents are stored as NOT_RELEVANT so they keep their rank
    position while contributing nothing to any measure. A list that already
    carries ideology labels raises InputError.
    """
    if r.codes:
        _require_stance(LABELS[r.codes[0]])
    return _relabel(r, _LIST_IDEOLOGY[r.leaning])


def side_masks(lists) -> list[tuple[bytes, bytes]]:
    """Each RankedList's (positive, negative) masks, read as labeled (see SIDES).

    A mask holds one byte per rank: 1 where the document carries that side's
    label, else 0.
    """
    return [(r.codes.translate(POSITIVE_MASK), r.codes.translate(NEGATIVE_MASK)) for r in lists]


_MIRROR = _translation({a: b for pair in SIDES.values() for a, b in (pair, pair[::-1])})


def mirror(r: RankedList) -> RankedList:
    """Swap the two opposing labels (pro/against or conservative/liberal).

    Everything else is left alone, so mirror(mirror(r)) == r.
    """
    return _relabel(r, _MIRROR)
