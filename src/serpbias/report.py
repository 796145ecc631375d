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
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace
from itertools import groupby, repeat
from json.encoder import encode_basestring as _encode_text
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .bias import BiasSummary, summarize_run
from .dataset import Dataset
from .errors import ConfigError, DegenerateSampleError, InputError, check_choice, check_fraction
from .measures import MEASURE_KINDS, MeasureConfig
from .model import IdeologyLabel, StanceLabel, side_masks, transform_list
from .stats import TTestResult, one_sample_ttest, paired_ttest

# Each mode names the label space its lists are measured in.
MODES = {"stance": StanceLabel, "ideology": IdeologyLabel}
REPORT_FORMATS = ("json", "tsv", "markdown")

DEFAULT_ALPHA = 0.05

STATUS_OK = "ok"
STATUS_DEGENERATE = "degenerate_certain"
STATUS_SKIPPED = "skipped"


# Field metadata for the two departures from the wire format that a field's
# type does not show (see "The JSON wire format" below).
_PAIRED = {"paired": True}  # a list of paired tests, whose entries carry engine_b
_IN_CONFIG = {"in": "config"}  # written in the report's config object


@dataclass(frozen=True)
class ReportConfig:
    """Echo of the evaluation parameters, embedded in every report."""

    cutoff: int
    persistence: float
    log_base: float
    alpha: float
    measures: tuple[str, ...]


@dataclass(frozen=True)
class TestEntry:
    """One t-test slot: a result, or the reason there is none. Only a paired
    test names a second engine."""

    engine: str
    engine_b: Optional[str]
    measure: str
    status: str
    detail: str = ""
    result: Optional[TTestResult] = None


_TSV_HEADER = ("section", "engine", "engine_b", "measure", "query_id", "field", "value")

# The markdown t-test tables leave out the standard error.
_MD_FIELDS = ("t_stat", "df", "p_value", "sample_mean", "reject_at")


@dataclass(frozen=True)
class ComparisonReport:
    mode: str
    config: ReportConfig
    engines: tuple[str, ...]
    n_queries: int
    warnings: tuple[str, ...]
    bias_summaries: tuple[BiasSummary, ...]
    one_sample_tests: tuple[TestEntry, ...]
    paired_tests: tuple[TestEntry, ...] = field(metadata=_PAIRED)

    def tsv(self) -> tuple[Sequence[str], Iterable[Sequence]]:
        return _TSV_HEADER, self._tsv_rows()

    def _tsv_rows(self):
        config = {"mode": self.mode, **vars(self.config)}
        config.update(engines=self.engines, n_queries=self.n_queries)
        for key, value in config.items():
            yield ("config", "", "", "", "", key, value)
        for i, warning in enumerate(self.warnings, start=1):
            yield ("warning", "", "", "", "", i, warning)
        for s in self.bias_summaries:
            yield ("summary", s.engine, "", s.measure, "", "mb", s.mb)
            yield ("summary", s.engine, "", s.measure, "", "mab", s.mab)
        for s in self.bias_summaries:
            for rec in s.per_query:
                yield ("beta", s.engine, "", s.measure, rec.query_id, "beta", rec.beta)
        sections = (("one_sample", self.one_sample_tests), ("paired", self.paired_tests))
        for section, entries in sections:
            for e in entries:
                base = (section, e.engine, e.engine_b or "", e.measure, "")
                yield (*base, "status", e.status)
                if e.detail:
                    yield (*base, "detail", e.detail)
                if e.result is not None:
                    for name, value in vars(e.result).items():
                        yield (*base, name, value)

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
                    (s.engine, s.measure, rec.query_id, rec.beta)
                    for s in self.bias_summaries
                    for rec in s.per_query
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


@dataclass(frozen=True)
class DatasetReport:
    """A dataset's shape: what `serpbias validate` reports."""

    engines: tuple[str, ...]
    n_queries: int
    n_records: int
    n_documents: int

    @classmethod
    def from_dataset(cls, ds: Dataset) -> "DatasetReport":
        n_records = sum(len(run.lists) for run in ds.runs)
        return cls(tuple(ds.engine_ids()), len(ds.query_table), n_records, ds.document_count())

    def tsv(self) -> tuple[Sequence[str], Iterable[Sequence]]:
        return ("field", "value"), vars(self).items()

    def markdown(self) -> tuple[str, list[str]]:
        bullets = [(key.removeprefix("n_"), value) for key, value in vars(self).items()]
        return "Dataset", [markdown_list(bullets)]


class BaselineScore(NamedTuple):
    """One list's baseline score; status "undefined" carries no score and says why."""

    engine: str
    query_id: str
    status: str
    score: Optional[float]
    detail: str = ""


@dataclass(frozen=True)
class BaselineReport:
    """One rND/rKL/rRD score per (engine, query) list: what `serpbias baselines` reports."""

    mode: str
    baseline: str = field(metadata=_IN_CONFIG)
    step: int = field(metadata=_IN_CONFIG)
    g1: str = field(metadata=_IN_CONFIG)
    engines: tuple[str, ...]
    scores: tuple[BaselineScore, ...]

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

    def tsv(self) -> tuple[Sequence[str], Iterable[Sequence]]:
        return BaselineScore._fields, self.scores

    def markdown(self) -> tuple[str, list[str]]:
        rows = [row[:4] for row in self.scores]
        means = [row.values() for row in self.summary()]
        return f"{self.baseline} baseline (step {self.step}, g1 = {self.g1})", [
            markdown_table(("engine", "query", "status", "score"), rows),
            markdown_table(("engine", "mean score", "defined", "undefined"), means),
        ]


Report = ComparisonReport | DatasetReport | BaselineReport


_MEASURE_ALIASES = {"p": "precision", "precision": "precision", "rbp": "rbp", "dcg": "dcg"}


def resolve_measures(names: Sequence[str]) -> tuple[str, ...]:
    """Map user-facing measure names (p, rbp, dcg) to kinds, sorted for stable output."""
    kinds = []
    for name in names:
        kind = _MEASURE_ALIASES.get(name.strip().lower())
        if kind is None:
            raise ConfigError(
                f"unknown measure {name!r} (expected one of: p, rbp, dcg)"
            )
        kinds.append(kind)
    return tuple(sorted(set(kinds)))


def evaluate(
    ds: Dataset,
    cfg: Optional[MeasureConfig] = None,
    mode: str = "stance",
    measures: Optional[Sequence[str]] = None,
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
    check_choice("mode", mode, MODES)
    check_fraction("alpha", alpha)
    kinds = tuple(sorted(MEASURE_KINDS if measures is None else set(measures)))
    kind_cfgs = [replace(cfg, measure_kind=kind) for kind in kinds]

    # Each list's side masks, taken once for every measure (see model.side_masks);
    # a relabeled list lives only until its masks are taken.
    lists = [run.lists.values() for run in ds.runs]
    if mode == "ideology":
        lists = [map(transform_list, values) for values in lists]
    masks = list(map(side_masks, lists))
    engines = tuple(ds.engine_ids())
    n_queries = len(ds.query_table)

    summaries = [
        summarize_run(run, c, masks=m) for run, m in zip(ds.runs, masks) for c in kind_cfgs
    ]
    betas = {(s.engine, s.measure): [rec.beta for rec in s.per_query] for s in summaries}

    stats_possible = n_queries >= 2

    def test(engine: str, engine_b: Optional[str], kind: str) -> TestEntry:
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

    return ComparisonReport(
        mode=mode,
        config=ReportConfig(
            cutoff=cfg.cutoff,
            persistence=cfg.persistence,
            log_base=cfg.log_base,
            alpha=alpha,
            measures=kinds,
        ),
        engines=engines,
        n_queries=n_queries,
        warnings=() if stats_possible else ("fewer than 2 queries: statistical tests skipped",),
        bias_summaries=tuple(summaries),
        one_sample_tests=tuple(one_sample),
        paired_tests=tuple(paired),
    )


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


def to_json_text(value, indent: int = 0) -> str:
    """Deterministic JSON with floats at 17 significant digits.

    The layout is that of json.dumps(value, ensure_ascii=False, indent=2),
    nested indent levels deep. Text, and each key as str(key), goes through
    the encoder json.dumps uses; a NamedTuple renders as an array, and any
    other subclass of a JSON type as json.dumps renders it. Scalars are
    written in line, so only a container costs a Python call.
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
                while len(breaks) <= depth + 1:
                    breaks.append("\n" + "  " * len(breaks))
                inner = breaks[depth + 1]
                if isinstance(v, dict):
                    append(prefix + "{")
                    items(v.items(), depth + 1, inner, "," + inner)
                    append(breaks[depth] + "}")
                else:
                    append(prefix + "[")
                    items(zip(repeat(_ITEM), v), depth + 1, inner, "," + inner)
                    append(breaks[depth] + "]")

    items(((_ITEM, value),), indent, "", "")
    return "".join(chunks)


# ---------------------------------------------------------------------------
# The JSON wire format. A report part's fields, in order, are the keys of its
# JSON object, and each field's type says what the writer puts there. Three
# rules depart from that:
# - An optional part, a test's result, is written in line: its fields are keys
#   of the entry itself, all null when there is none.
# - An optional text, a test's engine_b, is written and read only in the
#   entries of a _PAIRED list, and each of those carries it.
# - Fields marked _IN_CONFIG are written in one object under that key, and the
#   methods a part names in _unread are written after its fields, not read.


_IDS = tuple[str, ...]

# What the JSON writer puts in a field of each leaf type: a test and its
# description. json.loads makes no subclass of int, float, str or list.
_LEAVES = {
    str: (lambda v: type(v) is str, "a string"),
    int: (lambda v: type(v) is int, "an integer"),
    float: (lambda v: type(v) in (int, float), "a number"),
    Optional[float]: (lambda v: v is None or type(v) in (int, float), "a number or null"),
    _IDS: (lambda v: type(v) is list and all(type(i) is str for i in v), "a list of strings"),
    list: (lambda v: type(v) is list, "a list"),
}


def _leaf(data: dict, key: str, hint):
    """data[key], popped, if it holds what the writer puts in a field of type
    hint, else TypeError naming the field. Ids come back as a tuple."""
    value = data.pop(key)
    check, what = _LEAVES[hint]
    if not check(value):
        raise TypeError(f"field {key!r} must be {what}")
    return tuple(value) if hint == _IDS else value


class _Slot(NamedTuple):
    """One key of a part's JSON object."""

    key: str
    kind: str  # "leaf", "part", "parts", "in_line", "group", "absent" or "unread"
    hint: object = None  # the type of a leaf, or of the part that the slot holds
    slots: tuple = ()  # the slots of that part, or of a group's fields
    write: Optional[Callable] = None  # writes that part


@functools.cache
def _schema(cls, paired: bool = False) -> tuple[_Slot, ...]:
    """The slots of cls's JSON object; paired when cls is read as a paired test."""
    metadata = {f.name: f.metadata for f in fields(cls)} if is_dataclass(cls) else {}
    hints = typing.get_type_hints(cls)

    def slot(name: str) -> _Slot:
        hint = hints[name]
        if hint == Optional[str]:
            return _Slot(name, "leaf", str) if paired else _Slot(name, "absent")
        if hint in _LEAVES:
            return _Slot(name, "leaf", hint)
        args = typing.get_args(hint)
        part = args[0] if args else hint
        inner = _schema(part, metadata.get(name, {}) == _PAIRED)
        kind = "parts" if typing.get_origin(hint) is tuple else "in_line" if args else "part"
        return _Slot(name, kind, part, inner, _writer(part, inner))

    slots = []
    for group, names in groupby(hints, key=lambda name: metadata.get(name, {}).get("in")):
        inner = tuple(map(slot, names))
        slots += [_Slot(group, "group", slots=inner)] if group else inner
    slots += [_Slot(name, "unread") for name in getattr(cls, "_unread", ())]
    return tuple(slots)


def _writer(cls, slots: tuple[_Slot, ...]) -> Callable:
    """What writes a cls as its JSON object. A part whose fields are all
    leaves is its own instance dict (a NamedTuple's _asdict()): no Python
    call per field."""
    if any(s.kind != "leaf" for s in slots):
        return functools.partial(_write, slots=slots)
    return cls._asdict if hasattr(cls, "_asdict") else vars


def _write(part, slots: tuple[_Slot, ...]) -> dict:
    """part's JSON object, as _read reads it back."""
    out = {}
    for key, kind, _, inner, write in slots:
        if kind == "group":
            out[key] = _write(part, inner)
        elif kind == "unread":
            out[key] = list(getattr(part, key)())
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
            values.append(tuple(hint(*_read(row, inner)) for row in _leaf(data, key, list)))
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


def report_from_json(text: str) -> Report:
    """Inverse of the JSON rendering of any report; numeric fields survive to
    full precision. The keys that only one schema has pick the report type.
    Text that is not a report, or holds a field of the wrong type, raises
    InputError."""
    try:
        data = json.loads(text, parse_constant=_no_constant)
        if "bias_summaries" in data:
            cls = ComparisonReport
        else:
            cls = BaselineReport if "scores" in data else DatasetReport
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


def tsv_text(header: Sequence[str], rows: Iterable[Iterable]) -> str:
    """Tab-separated table: the header line, then one line of cells per row.
    A float or a text with nothing to escape is written in line; every other
    cell goes through _cell."""
    lines = ["\t".join(header)]
    lines += [
        "\t".join(
            [
                v if type(v) is str and "\\" not in v and v.isprintable()
                else repr(v) if type(v) is float
                else _cell(v)
                for v in row
            ]
        )
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def markdown_table(header: Sequence[str], rows: Iterable[Iterable]) -> str:
    """Markdown table of cells, floats at 6 significant digits. As in
    tsv_text, only a cell that is neither a float nor a text with nothing to
    escape goes through _cell."""
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
    check_choice("output format", fmt, REPORT_FORMATS)
    if fmt == "json":
        return to_json_text(_write(rep, _schema(type(rep)))) + "\n"
    if fmt == "tsv":
        return tsv_text(*rep.tsv())
    title, blocks = rep.markdown()
    return markdown_text(title, *blocks)
