"""Loading and validating labeled result-page datasets.

Input is UTF-8 JSON Lines, one object per (engine, query) pair:

    {"engine": "engine-a", "query_id": "q01", "query": "some topic",
     "leaning": "conservative",
     "docs": [{"rank": 1, "doc_id": "d1", "stance": "pro"}, ...]}

`leaning` is one of conservative / liberal / both_or_neither and `stance`
one of pro / neutral / against / not-relevant. Ranks must run contiguously
from 1 in the order given. Every engine must cover exactly the same set of
query ids, and a query's text and leaning must agree across engines. Lists
are ingested whole; cutoffs are applied by the measures, never here.

A line in exactly the layout above, as `json.dumps` writes it (keys in that
order, separators ", " and ": ", ASCII text without escapes, up to 1,024
documents), is read by one regular-expression pass without decoding JSON.
Any other line, and any line that pass has a doubt about, is decoded as JSON
and checked field by field; both readers give the same dataset, and only the
second names errors. Each list keeps its ids as one JSON array text (see
model.RankedList) and its stances as one byte each: the first reader joins
ids that need no escape and keeps only each stance's second letter, the
second encodes ids with model.ids_text, and neither keeps a string per
document. A byte-order mark before line 1 is skipped.
"""

from __future__ import annotations

import json
import os
import re
from collections.abc import Iterable
from itertools import chain
from operator import attrgetter

from .errors import InputError, choice, collection, digit_limit, shown
from .model import (
    CODE,
    Document,
    EngineRun,
    LeaningLabel,
    RankedList,
    StanceLabel,
    check_id,
    check_type,
    ids_text,
)
from .record import Record


class Dataset(Record):
    """All engine runs plus the shared query table (query_id -> text, leaning).

    Runs are kept in engine-id order and the table in query-id order.
    Construction checks that runs is an iterable of EngineRuns, that the
    table is a dict whose query ids are text and, engine by engine, that
    engine ids are unique, that every run covers exactly the table's query
    ids, and that every list has its query's leaning.
    """

    runs: tuple[EngineRun, ...]
    query_table: dict[str, tuple[str, LeaningLabel]]

    def __init__(self, runs: tuple, query_table: dict):
        runs = tuple(collection("runs", "EngineRuns", runs))
        for run in runs:
            if not isinstance(run, EngineRun):
                got = f"{type(run).__name__} {shown(run)}"
                raise InputError(f"runs must hold only EngineRuns, got {got}")
        runs = tuple(sorted(runs, key=attrgetter("engine_id")))
        check_type("query_table", query_table, dict, "a dict")
        for query_id in query_table:
            check_id("query_id", query_id)
        query_table = dict(sorted(query_table.items()))
        queries, previous = query_table.keys(), None
        for run in runs:
            engine, covered = run.engine_id, run.lists.keys()
            if engine == previous:
                raise InputError(f"engine {engine!r} has more than one run")
            if covered != queries:
                what = f"is missing queries {sorted(queries - covered)}"
                if covered >= queries:
                    what = f"has queries {sorted(covered - queries)} outside the query table"
                raise InputError(
                    f"engine {engine!r} {what}; all engines must cover the identical query set"
                )
            for query_id, ranked in run.lists.items():
                leaning = query_table[query_id][1]
                if ranked.leaning != leaning:
                    raise InputError(
                        f"engine {engine!r} gives query {query_id!r} leaning {ranked.leaning}, "
                        f"but the query table gives {leaning}"
                    )
            previous = engine
        self._fill(runs, query_table)

    def engine_ids(self) -> list[str]:
        return [run.engine_id for run in self.runs]

    def document_count(self) -> int:
        return sum(len(r) for run in self.runs for r in run.lists.values())


def _field(obj: dict, key: str, kind: type):
    if key not in obj:
        raise InputError(f"missing field {key!r}")
    value = obj[key]
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise InputError(f"field {key!r} must be an integer")
    elif not isinstance(value, kind):
        raise InputError(f"field {key!r} must be a {kind.__name__}")
    return value


def _decode(line: str):
    """The JSON value on one line; bytes that were not UTF-8 are lone surrogates."""
    try:
        if not line.isascii():
            line.encode("utf-8")
        return json.loads(line)
    except UnicodeEncodeError as exc:
        raise InputError(f"text is not valid UTF-8 (column {exc.start + 1})") from None
    except json.JSONDecodeError as exc:
        msg, note = exc.msg.removesuffix(" at"), ""
        if msg.startswith("Unexpected UTF-8 BOM"):  # json's advice names a codec
            msg, note = "Unexpected byte-order mark", " (only one, before line 1, is skipped)"
        raise InputError(f"malformed JSON: {msg} at column {exc.pos + 1}{note}") from None
    except RecursionError as exc:  # nesting past the recursion limit
        raise InputError(f"malformed JSON: {exc}") from None
    except ValueError:  # an integer past the digit limit
        raise InputError(f"malformed JSON: {digit_limit()}") from None


def _check_unicode(engine: str, query_id: str, query_text: str, ids_json: str) -> None:
    """InputError naming the first of these texts that holds a lone surrogate,
    which only a JSON escape such as "\\udc80" can put there: no UTF-8 output
    can hold it. ids_json, a list's doc_ids_json, keeps each id's non-ASCII
    characters as they are, so its first lone surrogate is in the first id
    that holds one."""
    named = ("engine", engine), ("query_id", query_id), ("query", query_text)
    for key, text in (*named, ("doc_id", ids_json)):
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise InputError(
                f"field {key!r} is not valid Unicode text "
                f"(lone surrogate U+{ord(text[exc.start]):04X})"
            ) from None


# Wire string of each stance -> its label code.
_STANCE_CODE = {label.value: CODE[label] for label in StanceLabel}


def _document(raw) -> Document:
    if not isinstance(raw, dict):
        raise InputError("each docs entry must be an object")
    rank = _field(raw, "rank", int)
    doc_id = _field(raw, "doc_id", str)
    stance = StanceLabel.from_str(_field(raw, "stance", str))
    return Document(rank=rank, stance=stance, doc_id=doc_id)


# A JSON string token that holds no escape and no control character, so its
# text is its value. With isascii, no byte that was not UTF-8 can hide in it.
_TEXT = r'"([^"\\\x00-\x1f]*)"'
_HEAD = re.compile(
    rf'\{{"engine": {_TEXT}, "query_id": {_TEXT}, "query": {_TEXT}, "leaning": {_TEXT}, "docs": \['
)
# A docs entry from its doc_id on: what _DOC.split leaves before entry k is its
# opening through its rank, _OPENINGS[k - 1], so one list comparison checks
# both the separators and the ranks of lists of up to _MAX_PLAIN documents.
# The stance must be a label, and only its second letter is captured: those
# letters differ between the labels, and a one-letter group is a cached string.
_DOC = re.compile(
    rf'"doc_id": {_TEXT}, "stance": "(?=.(.))(?:{"|".join(map(re.escape, _STANCE_CODE))})"\}}'
)
_LETTER_CODE = bytes.maketrans(
    "".join(stance[1] for stance in _STANCE_CODE).encode("ascii"), bytes(_STANCE_CODE.values())
)
_MAX_PLAIN = 1024
_OPENINGS = ['{"rank": 1, '] + [f', {{"rank": {k}, ' for k in range(2, _MAX_PLAIN + 1)]
_TAILS = ("]}\n", "]}")
_LEANING = {label.value: label for label in LeaningLabel}


def _plain_record(line: str):
    """The record on a line in the documented json.dumps layout, or None.

    The line is read by one anchored match of its head and one split of the
    whole line, and its columns are checked whole. None means the line is in
    another layout or breaks a rule; it raises nothing, so the JSON path
    alone names errors.
    """
    head = _HEAD.match(line) if line.isascii() else None
    if head is None:
        return None
    # Per document: its opening, its id and its stance's second letter; then
    # the tail. Splitting the whole line copies no line; the head is then cut
    # from the first part, so what follows it must be entry 1's opening.
    parts = _DOC.split(line)
    parts[0] = parts[0][head.end() :]
    n = len(parts) // 3
    ids = parts[1::3]
    if parts[:-1:3] != _OPENINGS[:n] or parts[-1] not in _TAILS or len(set(ids)) != n:
        return None
    engine, query_id, query_text, leaning = head.groups()
    leaning = _LEANING.get(leaning)
    if leaning is None:
        return None
    codes = "".join(parts[2::3]).encode("ascii").translate(_LETTER_CODE)
    # The ids need no escape, so this is the text model.ids_text writes.
    ids_json = '["' + '", "'.join(ids) + '"]' if ids else "[]"
    ranked = RankedList._new(engine, query_id, leaning, codes, ids_json)
    return engine, query_id, query_text, leaning, ranked


def _ranked_list(engine: str, query_id: str, leaning: LeaningLabel, raw_docs: list) -> RankedList:
    """The list raw_docs describes, filled column by column in one pass.

    An entry the pass cannot take as it stands (not an object, a missing or
    mistyped field, an unknown stance, a rank out of place) or a repeated id
    sends the whole list through the Document and RankedList constructors,
    which raise the first error in their order.
    """
    codes = bytearray()
    ids = []
    try:
        for position, raw in enumerate(raw_docs, start=1):
            rank = raw["rank"]
            doc_id = raw["doc_id"]
            if rank != position or type(rank) is not int or type(doc_id) is not str:
                break
            codes.append(_STANCE_CODE[raw["stance"]])
            ids.append(doc_id)
        else:
            if len(set(ids)) == len(ids):
                return RankedList._new(engine, query_id, leaning, bytes(codes), ids_text(ids))
    except (KeyError, TypeError):
        pass
    return RankedList(engine, query_id, leaning, [_document(raw) for raw in raw_docs])


def _parse_record(obj):
    if not isinstance(obj, dict):
        raise InputError("record must be a JSON object")
    engine = _field(obj, "engine", str)
    query_id = _field(obj, "query_id", str)
    query_text = _field(obj, "query", str)
    leaning_text = _field(obj, "leaning", str)
    raw_docs = _field(obj, "docs", list)
    leaning = choice("leaning label", leaning_text, _LEANING, InputError)
    ranked = _ranked_list(engine, query_id, leaning, raw_docs)
    return engine, query_id, query_text, leaning, ranked


def _json_record(line: str):
    """The record on a line in any JSON layout, checked field by field."""
    engine, query_id, query_text, leaning, ranked = record = _parse_record(_decode(line))
    # Only an escape puts a lone surrogate in a line that is UTF-8, and
    # a one-character test costs a small part of a two-character one.
    if "\\" in line:
        _check_unicode(engine, query_id, query_text, ranked.doc_ids_json)
    return record


def parse_dataset(stream: Iterable[str]) -> Dataset:
    """Parse and validate a JSON Lines dataset.

    Blank lines are skipped, and so is a byte-order mark (U+FEFF) before
    line 1. Raises InputError on one whole text in place of its lines, and,
    with the offending line number where one exists, on a line that is not
    a str, text that is not UTF-8, malformed JSON, an id or query text that
    escapes a lone surrogate, missing or mistyped fields, unknown labels,
    rank gaps, duplicate doc ids, duplicate (engine, query) pairs,
    inconsistent query metadata, or query sets that differ across engines.
    """
    by_engine: dict[str, dict[str, RankedList]] = {}
    query_table: dict[str, tuple[str, LeaningLabel]] = {}
    lines = collection("a dataset", "lines", stream)
    # RFC 8259 lets a parser skip a byte-order mark before the first line.
    first = next(lines, "")
    if isinstance(first, str) and first.startswith("\ufeff"):
        first = first[1:]
    for line_no, line in enumerate(chain((first,), lines), start=1):
        if not isinstance(line, str):
            kind = type(line).__name__
            raise InputError(f"line {line_no}: a line must be text (str), not {kind}")
        # isspace and strip share one notion of whitespace; isspace copies nothing.
        if not line or line.isspace():
            continue
        try:
            engine, query_id, query_text, leaning, ranked = (
                _plain_record(line) or _json_record(line)
            )
            lists = by_engine.setdefault(engine, {})
            if query_id in lists:
                raise InputError(f"duplicate record for engine {engine!r}, query {query_id!r}")
            lists[query_id] = ranked
            known = query_table.get(query_id)
            if known is None:
                query_table[query_id] = (query_text, leaning)
            elif known != (query_text, leaning):
                raise InputError(
                    f"query {query_id!r} disagrees with an earlier record "
                    f"on its text or leaning"
                )
        except InputError as exc:
            raise InputError(f"line {line_no}: {exc}") from None
    if not by_engine:
        raise InputError("no records in input")
    # Each record's ids were checked as it was read; Dataset checks the rest.
    runs = tuple(
        EngineRun._new(engine, dict(sorted(lists.items()))) for engine, lists in by_engine.items()
    )
    return Dataset(runs=runs, query_table=query_table)


def load_dataset(path: str) -> Dataset:
    """Read a dataset from a file path, or from stdin when path is '-'. A path that
    is not a str, bytes or os.PathLike, such as a file descriptor, is an InputError."""
    try:
        os.fspath(path)
    except TypeError:
        got = f"{type(path).__name__} {shown(path)}"
        raise InputError(f"a dataset path must be a str, bytes or os.PathLike, got {got}") from None
    try:
        # Standard input is file descriptor 0. Bytes that are not UTF-8 become
        # lone surrogates in the line holding them, so parse_dataset names it.
        source, closefd = (0, False) if path == "-" else (path, True)
        with open(source, encoding="utf-8", errors="surrogateescape", closefd=closefd) as f:
            return parse_dataset(f)
    except OSError as exc:
        raise InputError(f"cannot read {path!r}: {exc.strerror or exc}") from None
