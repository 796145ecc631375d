"""Evaluation protocol, the three reports, and their rendering.

`evaluate` runs the whole pipeline over a validated dataset: per-query slant
under each requested measure, per-engine MB/MAB aggregates, a one-sample
t-test per (engine, measure) against a true mean of zero, and a paired
t-test per engine pair. `render_report` serializes that report, a
`DatasetReport` or a `BaselineReport` as JSON (floats at 17 significant
digits, lossless; `report_from_json` reads any of them back), flat TSV, or
Markdown; identical reports always render to identical bytes.
"""

from __future__ import annotations

import functools
import json
import math
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import groupby, repeat
from json.encoder import encode_basestring as _encode_text

from .bias import BiasSummary, summarize_run
from .dataset import Dataset
from .errors import (
    ConfigError, DegenerateSampleError, InputError, check_fraction, choice, collection,
    digit_limit,
)
from .measures import MEASURE_KINDS, MeasureConfig
from .model import EngineRun, IdeologyLabel, StanceLabel, transform_list
from .record import Record
from .stats import TTestResult, one_sample_ttest, paired_ttest

# Each mode names the label space its lists are measured in.
MODES = {"stance": StanceLabel, "ideology": IdeologyLabel}
REPORT_FORMATS = ("json", "tsv", "markdown")

DEFAULT_ALPHA = 0.05

STATUS_OK = "ok"
STATUS_DEGENERATE = "degenerate_certain"
STATUS_SKIPPED = "skipped"


class ReportConfig(Record):
    """Echo of the evaluation parameters, embedded in every report."""

    cutoff: int
    persistence: float
    log_base: float
    alpha: float
    measures: tuple[str, ...]


class TestEntry(Record):
    """One t-test slot: a result, or the reason there is none. Only a paired
    test names a second engine."""

    engine: str
    engine_b: str | None
    measure: str
    status: str
    detail: str = ""
    result: TTestResult | None = None


_TSV_HEADER = ("section", "engine", "engine_b", "measure", "query_id", "field", "value")

# The markdown t-test tables leave out the standard error.
_MD_FIELDS = ("t_stat", "df", "p_value", "sample_mean", "reject_at")


class ComparisonReport(Record):
    mode: str
    config: ReportConfig
    engines: tuple[str, ...]
    n_queries: int
    warnings: tuple[str, ...]
    bias_summaries: tuple[BiasSummary, ...]
    one_sample_tests: tuple[TestEntry, ...]
    paired_tests: tuple[TestEntry, ...]

    # Its entries are paired tests, so each carries engine_b (see the wire format).
    _paired = ("paired_tests",)

    def tsv(self) -> tuple[Sequence[str], Iterable[tuple]]:
        return _TSV_HEADER, self._tsv_blocks()

    def _tsv_blocks(self):
        config = {"mode": self.mode, **vars(self.config)}
        config.update(engines=self.engines, n_queries=self.n_queries)
        yield ("config", "", "", "", ""), (tuple(config), tuple(config.values()))
        warnings = self.warnings
        yield ("warning", "", "", "", ""), (range(1, len(warnings) + 1), warnings)
        for s in self.bias_summaries:
            yield ("summary", s.engine, "", s.measure, ""), (("mb", "mab"), (s.mb, s.mab))
        for s in self.bias_summaries:
            columns = (s.query_ids, ("beta",) * len(s.query_ids), s.betas)
            yield ("beta", s.engine, "", s.measure), columns
        sections = (("one_sample", self.one_sample_tests), ("paired", self.paired_tests))
        for section, entries in sections:
            for e in entries:
                fields = {"status": e.status}
                if e.detail:
                    fields["detail"] = e.detail
                if e.result is not None:
                    fields.update(vars(e.result))
                lead = (section, e.engine, e.engine_b or "", e.measure, "")
                yield lead, (tuple(fields), tuple(fields.values()))

    def markdown(self) -> tuple[str, list[str]]:
        c = self.config
        blocks = [
            markdown_list(
                [
                    ("mode", self.mode),
                    ("engines", self.engines or "(none)"),
                    ("queries", self.n_queries),
                    ("measures", c.measures),
                    (
                        "cutoff",
                        f"{c.cutoff}, persistence: {_cell(c.persistence, '.6g')}, "
                        f"log base: {_cell(c.log_base, '.6g')}, alpha: {_cell(c.alpha, '.6g')}",
                    ),
                    *(("warning", warning) for warning in self.warnings),
                ]
            )
        ]
        sections = (
            (
                "Engine summaries",
                ("engine", "measure", "MB", "MAB"),
                [(s.engine, s.measure, s.mb, s.mab) for s in self.bias_summaries],
            ),
            (
                "One-sample t-tests (null: mean slant is 0)",
                ("engine", "measure", "status", "t", "df", "p", "mean", "rejected at"),
                [
                    (e.engine, e.measure, e.status, *_result_values(e))
                    for e in self.one_sample_tests
                ],
            ),
            (
                "Paired t-tests (null: engines share one true mean)",
                (
                    "engine A", "engine B", "measure", "status", "t", "df", "p", "mean diff",
                    "rejected at",
                ),
                [
                    (e.engine, e.engine_b, e.measure, e.status, *_result_values(e))
                    for e in self.paired_tests
                ],
            ),
            (
                "Per-query slant",
                ("engine", "measure", "query", "beta"),
                [
                    (s.engine, s.measure, query_id, beta)
                    for s in self.bias_summaries
                    for query_id, beta in zip(s.query_ids, s.betas, strict=True)
                ],
            ),
        )
        for heading, header, rows in sections:
            if rows:
                blocks += [f"## {heading}", markdown_table(header, rows)]
        return "Search bias report", blocks


def _result_values(entry: TestEntry) -> list:
    """The markdown fields of the entry's t-test result; all None when there is none."""
    return [getattr(entry.result, name) if entry.result else None for name in _MD_FIELDS]


class DatasetReport(Record):
    """A dataset's shape: what `serpbias validate` reports."""

    engines: tuple[str, ...]
    n_queries: int
    n_records: int
    n_documents: int

    @classmethod
    def from_dataset(cls, ds: Dataset) -> "DatasetReport":
        n_records = sum(len(run.lists) for run in ds.runs)
        return cls(tuple(ds.engine_ids()), len(ds.query_table), n_records, ds.document_count())

    def tsv(self) -> tuple[Sequence[str], Iterable[tuple]]:
        return ("field", "value"), [((), (tuple(vars(self)), tuple(vars(self).values())))]

    def markdown(self) -> tuple[str, list[str]]:
        bullets = [(key.removeprefix("n_"), value) for key, value in vars(self).items()]
        return "Dataset", [markdown_list(bullets)]


class BaselineScore(Record):
    """One list's baseline score; status "undefined" carries no score and says why."""

    engine: str
    query_id: str
    status: str
    score: float | None
    detail: str = ""


class BaselineReport(Record):
    """One rND/rKL/rRD score per (engine, query) list: what `serpbias baselines` reports."""

    mode: str
    baseline: str
    step: int
    g1: str
    engines: tuple[str, ...]
    scores: tuple[BaselineScore, ...]

    # Written in one config object.
    _in_config = ("baseline", "step", "g1")
    # Written after the fields, and not read: it is recomputed from the scores.
    _unread = ("summary",)

    def summary(self) -> Iterator[dict]:
        """Per engine: the mean of its defined scores (None without any), then
        the counts of defined and undefined scores."""
        by_engine: dict[str, list] = {engine: [] for engine in self.engines}
        for row in self.scores:
            by_engine.setdefault(row.engine, []).append(row.score)
        for engine, scores in by_engine.items():
            defined = [score for score in scores if score is not None]
            try:
                mean = math.fsum(defined) / len(defined) if defined else None
            except OverflowError:  # the sum passes the float range; the mean does not
                mean = math.fsum(score / len(defined) for score in defined)
            counts = {"defined": len(defined), "undefined": len(scores) - len(defined)}
            yield {"engine": engine, "mean_score": mean, **counts}

    def tsv(self) -> tuple[Sequence[str], Iterable[tuple]]:
        return BaselineScore._fields, [((), tuple(zip(*map(BaselineScore._key, self.scores))))]

    def markdown(self) -> tuple[str, list[str]]:
        rows = [BaselineScore._key(row)[:4] for row in self.scores]
        means = [row.values() for row in self.summary()]
        return f"{self.baseline} baseline (step {self.step}, g1 = {self.g1})", [
            markdown_table(("engine", "query", "status", "score"), rows),
            markdown_table(("engine", "mean score", "defined", "undefined"), means),
        ]


Report = ComparisonReport | DatasetReport | BaselineReport


_MEASURE_ALIASES = {"p": "precision", "precision": "precision", "rbp": "rbp", "dcg": "dcg"}


def resolve_measures(names: Sequence[str]) -> tuple[str, ...]:
    """Map user-facing measure names (p, rbp, dcg) to kinds, sorted for stable output."""
    return tuple(sorted({choice("measure", n.strip().lower(), _MEASURE_ALIASES) for n in names}))


def evaluate(
    ds: Dataset,
    cfg: MeasureConfig | None = None,
    mode: str = "stance",
    measures: Sequence[str] | None = None,
    alpha: float = DEFAULT_ALPHA,
) -> ComparisonReport:
    """Run the full bias-evaluation protocol over a dataset.

    cfg supplies the measure parameters (its measure_kind is ignored);
    `measures` picks which utility measures to compute, defaulting to all
    three. In ideology mode every list is relabeled through its query's
    leaning before anything is measured. With fewer than two queries the
    statistical tests are skipped and flagged in the report warnings.
    """
    cfg = cfg if cfg is not None else MeasureConfig()
    choice("mode", mode, MODES)
    alpha = check_fraction("alpha", alpha)
    if measures is not None:
        measures = collection("measures", "measure kinds", measures, ConfigError)
    kinds = set()
    for kind in MEASURE_KINDS if measures is None else measures:
        kinds.add(choice("measure kind", kind, MEASURE_KINDS))
    kinds = tuple(sorted(kinds))
    kind_cfgs = [MeasureConfig(cfg.cutoff, cfg.persistence, cfg.log_base, kind) for kind in kinds]

    engines = tuple(ds.engine_ids())
    n_queries = len(ds.query_table)

    summaries = []
    for run in ds.runs:
        if mode == "ideology":  # a relabeled run lives only while it is scored
            relabeled = map(transform_list, run.lists.values())
            run = EngineRun._new(run.engine_id, dict(zip(run.lists, relabeled)))
        summaries += [summarize_run(run, c) for c in kind_cfgs]
    betas = {(s.engine, s.measure): s.betas for s in summaries}
    stats_possible = n_queries >= 2

    def test(engine: str, engine_b: str | None, kind: str) -> TestEntry:
        if not stats_possible:
            return TestEntry(engine, engine_b, kind, STATUS_SKIPPED, "fewer than 2 queries")
        try:
            if engine_b is None:
                result = one_sample_ttest(betas[(engine, kind)], 0.0, alpha)
            else:
                result = paired_ttest(betas[(engine, kind)], betas[(engine_b, kind)], alpha)
        except DegenerateSampleError as exc:
            return TestEntry(engine, engine_b, kind, STATUS_DEGENERATE, str(exc))
        return TestEntry(engine, engine_b, kind, STATUS_OK, "", result)

    one_sample = [test(engine, None, kind) for engine in engines for kind in kinds]
    paired = [
        test(engine_a, engine_b, kind)
        for i, engine_a in enumerate(engines)
        for engine_b in engines[i + 1 :]
        for kind in kinds
    ]

    config = ReportConfig(cfg.cutoff, cfg.persistence, cfg.log_base, alpha, kinds)
    warnings = () if stats_possible else ("fewer than 2 queries: statistical tests skipped",)
    results = tuple(summaries), tuple(one_sample), tuple(paired)
    return ComparisonReport(mode, config, engines, n_queries, warnings, *results)


# ---------------------------------------------------------------------------
# Rendering


def _float_text(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot render non-finite number {x!r}")
    out = format(x, ".17g")
    if "." not in out and "e" not in out and "E" not in out:
        out += ".0"
    return out


# Stands in for the key of an array item in the writer's (key, value) pairs.
_ITEM = object()


class _Rows(dict):
    """Columns by key, of one length and each holding only texts or only
    finite floats, which to_json_text writes as the array of their rows: row
    i is an object that holds item i of each column under the column's key."""


def _rows_text(columns: _Rows, outer: str, inner: str, field: str) -> str:
    """The array of the rows of columns, in one pass with no Python call per
    row; outer, inner and field are the line breaks before the closing
    bracket, before each row and before each key of a row."""
    cells = list(columns.values())
    if not all(cells):
        return "[]"
    for i, column in enumerate(cells):
        if type(column[0]) is str:
            cells[i] = map(_encode_text, column)
        else:  # an integral float gets the ".0" that _float_text gives it
            texts = map(format, column, repeat(".17g"))
            cells[i] = [text if "." in text or "e" in text else text + ".0" for text in texts]
    # A key is a field name, which holds no brace.
    template = "{{" + ",".join(f"{field}{_encode_text(key)}: {{}}" for key in columns)
    template += inner + "}}"
    return "[" + inner + ("," + inner).join(map(template.format, *cells)) + outer + "]"


def to_json_text(value) -> str:
    """Deterministic JSON with floats at 17 significant digits.

    The layout is that of json.dumps(value, ensure_ascii=False, indent=2).
    Text, and each key as str(key), goes through the encoder json.dumps
    uses; a named tuple renders as an array, and any other subclass of a JSON
    type as json.dumps renders it. Scalars are written in line, so only a
    container costs a Python call, and a _Rows costs one in all.
    """
    chunks: list[str] = []
    append = chunks.append
    breaks: list[str] = []  # breaks[d] is a newline and d levels of indent

    def items(pairs, depth: int, sep: str, rest: str) -> None:
        # Each value after sep (rest from the second on) and its key, if any.
        for key, v in pairs:
            if key is _ITEM:
                prefix = sep
            else:
                prefix = sep + _encode_text(key if type(key) is str else str(key)) + ": "
            sep = rest
            t = type(v)
            if t is float:
                text = format(v, ".17g")
                # Without a point or an exponent it is integral or not finite.
                append(prefix + (text if "." in text or "e" in text else _float_text(v)))
            elif isinstance(v, str):
                append(prefix + _encode_text(v))
            elif v is None:
                append(prefix + "null")
            elif t is bool:
                append(prefix + ("true" if v else "false"))
            elif isinstance(v, int):
                append(prefix + int.__repr__(v))
            elif isinstance(v, float):
                append(prefix + _float_text(v))
            elif not isinstance(v, (list, tuple, dict)):
                raise TypeError(f"cannot render {t.__name__} as JSON")
            elif not v:
                append(prefix + ("{}" if isinstance(v, dict) else "[]"))
            else:
                while len(breaks) <= depth + 2:
                    breaks.append("\n" + "  " * len(breaks))
                inner = breaks[depth + 1]
                if t is _Rows:
                    append(prefix + _rows_text(v, breaks[depth], inner, breaks[depth + 2]))
                elif isinstance(v, dict):
                    append(prefix + "{")
                    items(v.items(), depth + 1, inner, "," + inner)
                    append(breaks[depth] + "}")
                else:
                    append(prefix + "[")
                    items(zip(repeat(_ITEM), v), depth + 1, inner, "," + inner)
                    append(breaks[depth] + "]")

    items(((_ITEM, value),), 0, "", "")
    return "".join(chunks)


# ---------------------------------------------------------------------------
# The JSON wire format. A report part's fields, in order, are the keys of its
# JSON object, and each field's annotation says what the writer puts there.
# The annotations are read as their text (`from __future__ import annotations`
# leaves them unevaluated). Four rules depart from that:
# - An optional part, a test's result, is written in line: its fields are keys
#   of the entry itself, all null when there is none.
# - An optional text, a test's engine_b, is written and read only in the
#   entries of a list that a part names in _paired, and each of those carries it.
# - Fields a part names in _in_config are written in one object under that key,
#   and the methods it names in _unread are written after its fields, not read.
# - A part that names (key, row type) in _rows ends with one column per field
#   of the row type, in that order. It writes them under key as the array of
#   row objects, row i holding item i of each column, and the reader reads
#   each row through the row type's slots and splits the rows into columns.


_IDS = "tuple[str, ...]"

# The types of the parts that a report holds, by the names their annotations use.
_PARTS = {
    cls.__name__: cls
    for cls in (ReportConfig, BiasSummary, TestEntry, TTestResult, BaselineScore)
}

# What the JSON writer puts in a field of each leaf annotation: a test and its
# description. json.loads makes no subclass of int, float, str or list.
_LEAVES = {
    "str": (lambda v: type(v) is str, "a string"),
    "int": (lambda v: type(v) is int, "an integer"),
    "float": (lambda v: type(v) in (int, float), "a number"),
    "float | None": (lambda v: v is None or type(v) in (int, float), "a number or null"),
    _IDS: (lambda v: type(v) is list and all(type(i) is str for i in v), "a list of strings"),
    "list": (lambda v: type(v) is list, "a list"),
}


def _leaf(data: dict, key: str, hint: str):
    """data[key], popped, if it holds what the writer puts in a field
    annotated hint, else TypeError naming the field. Ids come back as a tuple."""
    value = data.pop(key)
    check, what = _LEAVES[hint]
    if not check(value):
        raise TypeError(f"field {key!r} must be {what}")
    return tuple(value) if hint == _IDS else value


# One key of a part's JSON object: its kind is "leaf", "part", "parts",
# "in_line", "group", "rows", "absent" or "unread"; hint is a leaf's
# annotation, or the type of the part that the slot holds; slots are that
# part's slots, a row's, or a group's; write writes that part, or the rows.
_Slot = namedtuple("_Slot", "key kind hint slots write", defaults=(None, (), None))


@functools.cache
def _schema(cls, paired: bool = False) -> tuple[_Slot, ...]:
    """The slots of cls's JSON object; paired when cls is read as a paired test."""
    hints = vars(cls)["__annotations__"]
    in_config = getattr(cls, "_in_config", ())

    def slot(name: str) -> _Slot:
        hint = hints[name]
        if hint == "str | None":
            return _Slot(name, "leaf", "str") if paired else _Slot(name, "absent")
        if hint in _LEAVES:
            return _Slot(name, "leaf", hint)
        # A part is annotated by its type's name: `X`, `tuple[X, ...]` or `X | None`.
        kind = "parts" if hint.startswith("tuple[") else "in_line" if "|" in hint else "part"
        part = _PARTS[hint.removeprefix("tuple[").removesuffix(", ...]").removesuffix(" | None")]
        inner = _schema(part, name in getattr(cls, "_paired", ()))
        # A part whose fields are all leaves is written as its own instance
        # dict: no Python call per field.
        leaves = all(s.kind == "leaf" for s in inner)
        write = vars if leaves else functools.partial(_write, slots=inner)
        return _Slot(name, kind, part, inner, write)

    key, row = getattr(cls, "_rows", ("", None))
    fields = cls._fields[: len(cls._fields) - len(row._fields)] if row else cls._fields
    slots = []
    for in_group, names in groupby(fields, key=in_config.__contains__):
        inner = tuple(map(slot, names))
        slots += [_Slot("config", "group", slots=inner)] if in_group else inner
    if row:
        write = functools.partial(_write_rows, names=cls._fields[len(fields) :], keys=row._fields)
        slots.append(_Slot(key, "rows", slots=_schema(row), write=write))
    slots += [_Slot(name, "unread") for name in getattr(cls, "_unread", ())]
    return tuple(slots)


def _plain(column) -> bool:
    """Whether column holds only texts or only finite floats."""
    types = set(map(type, column))
    return types <= {str} or types == {float} and all(map(math.isfinite, column))


def _write_rows(part, names: tuple[str, ...], keys: tuple[str, ...]):
    """part's columns names, each under its row key: a _Rows when the columns
    are of one length and each holds only texts or only finite floats, else
    one dict per row; ValueError when their lengths differ."""
    columns = [getattr(part, name) for name in names]
    if all(map(_plain, columns)) and len(set(map(len, columns))) == 1:
        return _Rows(zip(keys, columns))
    return [dict(zip(keys, row)) for row in zip(*columns, strict=True)]


def _write(part, slots: tuple[_Slot, ...]) -> dict:
    """part's JSON object, as _read reads it back."""
    out = {}
    for key, kind, _, inner, write in slots:
        if kind == "group":
            out[key] = _write(part, inner)
        elif kind == "unread":
            out[key] = list(getattr(part, key)())
        elif kind == "rows":
            out[key] = write(part)
        elif kind != "absent":
            value = getattr(part, key)
            if kind == "leaf":
                out[key] = value
            elif kind == "parts":
                out[key] = list(map(write, value))
            elif kind == "part":
                out[key] = write(value)
            else:  # in line
                out.update(dict.fromkeys(s.key for s in inner) if value is None else write(value))
    return out


def _read(data, slots: tuple[_Slot, ...]) -> list:
    """The field values that a part's JSON object holds, in field order, each
    checked as its slot says. Each key is popped as it is read, so a key left
    over is one the writer does not write: TypeError."""
    if not isinstance(data, dict):
        raise TypeError(f"expected an object, not {type(data).__name__}")
    values = []
    for key, kind, hint, inner, _ in slots:
        if kind == "group":
            values += _read(data.pop(key), inner)
        elif kind == "unread":
            data.pop(key, None)
        elif kind == "absent":
            values.append(None)
        elif kind == "part":
            values.append(hint(*_read(data.pop(key), inner)))
        elif kind == "parts":
            values.append(tuple(hint(*_read(row, inner)) for row in _leaf(data, key, "list")))
        elif kind == "rows":
            rows = [_read(row, inner) for row in _leaf(data, key, "list")]
            values += zip(*rows) if rows else [()] * len(inner)
        elif kind == "in_line":
            # The writer gives every field a value, or nulls them all.
            own = {s.key: data.pop(s.key) for s in inner}
            filled = any(value is not None for value in own.values())
            values.append(hint(*_read(own, inner)) if filled else None)
        else:
            values.append(_leaf(data, key, hint))
    if data:
        raise TypeError(f"unexpected field {next(iter(data))!r}")
    return values


def _no_constant(name: str):
    """Refuses the literals NaN, Infinity and -Infinity, which json.loads
    accepts and the writer never writes."""
    raise ValueError(f"{name} is not a JSON number")


def _int(digits: str) -> int:
    """int(digits) for json; past the digit limit, a ValueError naming the limit."""
    try:
        return int(digits)
    except ValueError:
        raise ValueError(digit_limit()) from None


def report_from_json(text: str) -> Report:
    """Inverse of the JSON rendering of any report; numeric fields survive to
    full precision. The keys that only one schema has pick the report type.
    Text that is not a report, or holds a field of the wrong type, raises
    InputError."""
    try:
        data = json.loads(text, parse_constant=_no_constant, parse_int=_int)
        keys = data if isinstance(data, dict) else ()  # _read refuses what is not an object
        if "bias_summaries" in keys:
            cls = ComparisonReport
        else:
            cls = BaselineReport if "scores" in keys else DatasetReport
        return cls(*_read(data, _schema(cls)))
    except (LookupError, TypeError, ValueError, RecursionError) as exc:
        raise InputError(f"not a serpbias report: {type(exc).__name__}: {exc}") from None


# The escapes that keep a text on one line, in one TSV cell, or in one markdown cell.
_BACKSLASH_AND_BREAKS = {"\\": "\\\\", "\r": "\\r", "\n": "\\n"}
_LINE_ESCAPES = str.maketrans(_BACKSLASH_AND_BREAKS)
_TSV_ESCAPES = str.maketrans({**_BACKSLASH_AND_BREAKS, "\t": "\\t"})
_MD_ESCAPES = str.maketrans({**_BACKSLASH_AND_BREAKS, "\t": "\\t", "|": "\\|"})


def _cell(value, float_spec: str = "", escapes: dict = _TSV_ESCAPES, sep: str = ",") -> str:
    """One table cell: empty for None, a float through float_spec (repr when
    empty), a tuple of ids through _joined, anything else through str with
    the characters in escapes escaped."""
    if type(value) is not str:
        if value is None:
            return ""
        if isinstance(value, float):
            return format(value, float_spec)
        if isinstance(value, tuple):
            return _joined(value, escapes, sep)
        value = str(value)
    # Most cells hold nothing to escape, and these tests cost less than translate.
    if "\\" in value or "|" in value or not value.isprintable():
        return value.translate(escapes)
    return value


def _joined(ids: tuple, escapes: dict, sep: str) -> str:
    """Ids in one cell, joined by sep: each escaped like a cell, and each `,`
    inside an id written as `\\,`, so a bare `,` only separates ids."""
    return sep.join(_cell(i, "", escapes).replace(",", "\\,") for i in ids)


def _tsv_column(column: Sequence) -> Iterable[str]:
    """The TSV cells of a column. A column of floats, or of texts with
    nothing to escape, is written in one pass; any other goes through _cell."""
    types = set(map(type, column))
    if types == {float}:
        return map(float.__repr__, column)
    if types == {str}:
        text = "".join(column)
        if "\\" not in text and text.isprintable():
            return column
    return map(_cell, column)


def tsv_text(header: Sequence[str], blocks: Iterable[tuple]) -> str:
    """Tab-separated table: the header line, then the rows of each block.
    A block is (lead, columns): lead holds the cells that all its rows begin
    with, and columns the rest of its rows, one sequence per column and each
    as long as the block has rows, else ValueError."""
    lines = ["\t".join(header)]
    for lead, columns in blocks:
        prefix = "".join([_cell(v) + "\t" for v in lead])
        lines += map(prefix.__add__, map("\t".join, zip(*map(_tsv_column, columns), strict=True)))
    return "\n".join(lines) + "\n"


def markdown_table(header: Sequence[str], rows: Iterable[Iterable]) -> str:
    """Markdown table of cells, floats at 6 significant digits. Only a cell
    that is neither a float nor a text with nothing to escape goes through
    _cell."""
    lines = ["| " + " | ".join(header) + " |", "|" + " --- |" * len(header)]
    lines += [
        "| "
        + " | ".join(
            [
                v if type(v) is str and "\\" not in v and "|" not in v and v.isprintable()
                else format(v, ".6g") if type(v) is float
                else _cell(v, ".6g", _MD_ESCAPES)
                for v in row
            ]
        )
        + " |"
        for row in rows
    ]
    return "\n".join(lines)


def markdown_list(items: Iterable[tuple[str, object]]) -> str:
    """Markdown bullet list, one `key: value` line per item, each value a cell
    that escapes backslashes and line breaks and joins ids with ", "."""
    return "\n".join(f"- {key}: {_cell(value, '.6g', _LINE_ESCAPES, ', ')}" for key, value in items)


def markdown_text(title: str, *blocks: str) -> str:
    """Markdown document: a level-1 title, then the blocks, one blank line apart."""
    return "\n\n".join((f"# {title.translate(_LINE_ESCAPES)}",) + blocks) + "\n"


def render_report(rep: Report, fmt: str = "json") -> str:
    """Serialize any report; identical reports render to identical bytes."""
    choice("output format", fmt, REPORT_FORMATS)
    if fmt == "json":
        return to_json_text(_write(rep, _schema(type(rep)))) + "\n"
    if fmt == "tsv":
        return tsv_text(*rep.tsv())
    title, blocks = rep.markdown()
    return markdown_text(title, *blocks)
