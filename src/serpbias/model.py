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
import json
from json.encoder import encode_basestring

from .errors import InputError, choice, collection, instance, integer, shown
from .record import Record


class _Label(enum.Enum):
    """A label vocabulary whose members print as, and parse from, their wire strings."""

    __hash__ = object.__hash__  # by identity, as members compare: no Python call per lookup

    def __str__(self) -> str:
        return self.value

    @classmethod
    def from_str(cls, text: str) -> "_Label":
        what = cls.__name__[: -len("Label")].lower()
        return choice(f"{what} label", text, cls._value2member_map_, InputError)


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
_IDEOLOGY_CODES = len(StanceLabel)  # the first ideology label's code

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


def ids_text(ids) -> str:
    """The JSON array of the text ids, as json.dumps(list(ids), ensure_ascii=False) writes it."""
    return "[" + ", ".join(map(encode_basestring, ids)) + "]"


class Document(Record):
    """One retrieved document: 1-based rank, its label, and an opaque id."""

    rank: int
    stance: Label
    doc_id: str

    def __init__(self, rank: int, stance: Label, doc_id: str):
        self._fill(integer("document rank", rank, 1, InputError), stance, doc_id)


class RankedList(Record):
    """The ranked documents one engine returned for one query.

    The leaning must be a LeaningLabel and docs an iterable of Documents,
    whose ranks must be contiguous 1..len(docs) in ascending order, doc_ids must
    be text and unique within the list, and every document carries the same
    label type (all stance or all ideology). Empty lists are legal (a failed
    crawl still counts as a result page).

    The labels are stored as `codes`, one byte per rank indexing LABELS. The
    ids are stored as one text, `doc_ids_json`: the JSON array that
    `json.dumps(list(ids), ensure_ascii=False)` writes (see ids_text), so a
    list holds one id object however long it is. A list holds only these
    fields: `doc_ids` decodes the text, and `docs` builds the Document tuple
    from the codes and the ids, anew on each access. Equality and hashing
    compare the fields.
    """

    engine_id: str
    query_id: str
    leaning: LeaningLabel
    codes: bytes
    doc_ids_json: str

    def __init__(self, engine_id: str, query_id: str, leaning: LeaningLabel, docs=()):
        instance("engine_id", engine_id, str, "a string")
        instance("query_id", query_id, str, "a string")
        instance("leaning", leaning, LeaningLabel, "a LeaningLabel")
        docs = tuple(collection("docs", "Documents", docs))
        for position, doc in enumerate(docs, start=1):
            if not isinstance(doc, Document):
                what = f"docs entry {position} of list ({engine_id}, {query_id})"
                instance(what, doc, Document, "a Document")
            if doc.rank != position:
                raise InputError(
                    f"rank gap in list ({engine_id}, {query_id}): "
                    f"expected rank {position}, got {shown(doc.rank, str)}"
                )
            if type(doc.stance) not in SIDES:
                raise InputError(
                    f"rank {position} of list ({engine_id}, {query_id}) carries "
                    f"{shown(doc.stance)}, not a stance or ideology label"
                )
            if type(doc.stance) is not type(docs[0].stance):
                raise InputError(
                    f"mixed label types in list ({engine_id}, {query_id}): "
                    f"rank {position} is {type(doc.stance).__name__}, "
                    f"rank 1 is {type(docs[0].stance).__name__}"
                )
            instance("doc_id", doc.doc_id, str, "a string")
        ids = tuple(doc.doc_id for doc in docs)
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise InputError(f"duplicate doc_id in list ({engine_id}, {query_id}): {dupes}")
        codes = bytes(CODE[doc.stance] for doc in docs)
        self._fill(engine_id, query_id, leaning, codes, ids_text(ids))

    @property
    def doc_ids(self) -> tuple[str, ...]:
        return tuple(json.loads(self.doc_ids_json))

    @property
    def docs(self) -> tuple[Document, ...]:
        labeled = enumerate(zip(self.codes, self.doc_ids), start=1)
        return tuple(Document._new(rank, LABELS[code], doc_id) for rank, (code, doc_id) in labeled)

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
        instance("engine_id", engine_id, str, "a string")
        instance("lists", lists, dict, "a dict")
        for query_id, ranked in lists.items():
            instance("query_id", query_id, str, "a string")
            instance(f"the list for query {query_id!r}", ranked, RankedList, "a RankedList")
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
        self._fill(engine_id, dict(sorted(lists.items())))


def transform_stance_to_ideology(leaning: LeaningLabel, stance: StanceLabel) -> IdeologyLabel:
    """Map one (query leaning, document stance) pair to an ideology label.

    A pro document on a conservative topic carries conservative content and
    an against document carries liberal content; the sides swap for liberal
    topics. Neutral and not-relevant stances pass through unchanged, and
    documents of both-or-neither queries come back EXCLUDED. A label that is
    not a stance, or a leaning that is not a LeaningLabel, raises InputError.
    """
    instance("leaning", leaning, LeaningLabel, "a LeaningLabel")
    instance("stance", stance, StanceLabel, "a StanceLabel")
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
    codes = r.codes
    if codes and codes[0] >= _IDEOLOGY_CODES:  # a list holds one label type
        what = f"the label at rank 1 of list ({r.engine_id}, {r.query_id})"
        instance(what, LABELS[codes[0]], StanceLabel, "a StanceLabel")
    codes = codes.translate(_LIST_IDEOLOGY[r.leaning])
    return RankedList._new(r.engine_id, r.query_id, r.leaning, codes, r.doc_ids_json)


_MIRROR = _translation({a: b for pair in SIDES.values() for a, b in (pair, pair[::-1])})


def mirror(r: RankedList) -> RankedList:
    """Swap the two opposing labels (pro/against or conservative/liberal).

    Everything else is left alone, so mirror(mirror(r)) == r.
    """
    codes = r.codes.translate(_MIRROR)
    return RankedList._new(r.engine_id, r.query_id, r.leaning, codes, r.doc_ids_json)
