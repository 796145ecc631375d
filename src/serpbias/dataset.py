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
"""

from __future__ import annotations

import json
from collections.abc import Iterable

from .errors import InputError
from .model import CODE, Document, EngineRun, LeaningLabel, RankedList, StanceLabel, check_id
from .record import Record


class Dataset(Record):
    """All engine runs plus the shared query table (query_id -> text, leaning).

    Runs are kept in engine-id order and the table in query-id order.
    Construction checks that the table's query ids are text and, engine by
    engine, that engine ids are unique, that every run covers exactly the
    table's query ids, and that every list has its query's leaning.
    """

    runs: tuple[EngineRun, ...]
    query_table: dict[str, tuple[str, LeaningLabel]]

    def __init__(self, runs: tuple, query_table: dict):
        runs = tuple(sorted(runs, key=lambda run: run.engine_id))
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
        fields = self.__dict__
        fields["runs"], fields["query_table"] = runs, query_table

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
        raise InputError(f"malformed JSON: {exc.msg}") from None
    except (RecursionError, ValueError) as exc:
        # Nesting past the recursion limit, or an integer past the digit limit.
        raise InputError(f"malformed JSON: {exc}") from None


def _check_unicode(engine: str, query_id: str, query_text: str, doc_ids: tuple) -> None:
    """InputError naming the first of these texts that holds a lone surrogate,
    which only a JSON escape such as "\\udc80" can put there: no UTF-8 output
    can hold it."""
    named = [("engine", engine), ("query_id", query_id), ("query", query_text)]
    for key, text in named + [("doc_id", doc_id) for doc_id in doc_ids]:
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
                return RankedList._from_columns(engine, query_id, leaning, bytes(codes), tuple(ids))
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
    leaning = LeaningLabel.from_str(leaning_text)
    ranked = _ranked_list(engine, query_id, leaning, raw_docs)
    return engine, query_id, query_text, leaning, ranked


def parse_dataset(stream: Iterable[str]) -> Dataset:
    """Parse and validate a JSON Lines dataset.

    Blank lines are skipped. Raises InputError, with the offending line
    number where one exists, on text that is not UTF-8, malformed JSON, an
    id or query text that escapes a lone surrogate,
    missing or mistyped fields, unknown labels, rank gaps, duplicate doc ids,
    duplicate (engine, query) pairs, inconsistent query metadata, or query
    sets that differ across engines.
    """
    by_engine: dict[str, dict[str, RankedList]] = {}
    query_table: dict[str, tuple[str, LeaningLabel]] = {}
    for line_no, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            engine, query_id, query_text, leaning, ranked = _parse_record(_decode(line))
            # Only an escape puts a lone surrogate in a line that is UTF-8, and
            # a one-character test costs a small part of a two-character one.
            if "\\" in line:
                _check_unicode(engine, query_id, query_text, ranked.doc_ids)
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
    runs = tuple(EngineRun._from_checked(engine, lists) for engine, lists in by_engine.items())
    return Dataset(runs=runs, query_table=query_table)


def load_dataset(path: str) -> Dataset:
    """Read a dataset from a file path, or from stdin when path is '-'."""
    try:
        # Standard input is file descriptor 0. Bytes that are not UTF-8 become
        # lone surrogates in the line holding them, so parse_dataset names it.
        source, closefd = (0, False) if path == "-" else (path, True)
        with open(source, encoding="utf-8", errors="surrogateescape", closefd=closefd) as f:
            return parse_dataset(f)
    except OSError as exc:
        raise InputError(f"cannot read {path!r}: {exc.strerror or exc}") from None
