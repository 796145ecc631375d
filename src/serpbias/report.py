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
from dataclasses import asdict, dataclass, fields, replace
from itertools import repeat
from json.encoder import encode_basestring as _encode_text
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .bias import BiasRecord, BiasSummary, summarize_run
from .dataset import Dataset
from .errors import ConfigError, DegenerateSampleError, InputError, check_choice, check_fraction
from .measures import MEASURE_KINDS, MeasureConfig
from .model import EngineRun, IdeologyLabel, StanceLabel, transform_list
from .stats import TTestResult, one_sample_ttest, paired_ttest

# Each mode names the label space its lists are measured in.
MODES = {"stance": StanceLabel, "ideology": IdeologyLabel}
REPORT_FORMATS = ("json", "tsv", "markdown")

DEFAULT_ALPHA = 0.05

STATUS_OK = "ok"
STATUS_DEGENERATE = "degenerate_certain"
STATUS_SKIPPED = "skipped"


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
    """One t-test slot: a result, or the reason there is none."""

    engine: str
    engine_b: Optional[str]
    measure_kind: str
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
    summaries: tuple[BiasSummary, ...]
    one_sample: tuple[TestEntry, ...]
    paired: tuple[TestEntry, ...]

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "config": {**asdict(self.config), "measures": list(self.config.measures)},
            "engines": list(self.engines),
            "n_queries": self.n_queries,
            "warnings": list(self.warnings),
            "bias_summaries": [
                {
                    "engine": s.engine_id,
                    "measure": s.measure_kind,
                    "mb": s.mb,
                    "mab": s.mab,
                    "per_query": [
                        {"query_id": rec.query_id, "beta": rec.beta} for rec in s.per_query
                    ],
                }
                for s in self.summaries
            ],
            "one_sample_tests": [_test_dict(e) for e in self.one_sample],
            "paired_tests": [_test_dict(e) for e in self.paired],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ComparisonReport":
        _known(
            data,
            (
                "mode", "config", "engines", "n_queries", "warnings", "bias_summaries",
                "one_sample_tests", "paired_tests",
            ),
        )
        return cls(
            mode=_leaf(data, "mode", "text"),
            config=ReportConfig(**_fields(ReportConfig, data["config"])),
            engines=_leaf(data, "engines", "ids"),
            n_queries=_leaf(data, "n_queries", "count"),
            warnings=_leaf(data, "warnings", "ids"),
            summaries=tuple(map(_bias_summary, _leaf(data, "bias_summaries", "rows"))),
            one_sample=tuple(
                _test_entry(row, paired=False) for row in _leaf(data, "one_sample_tests", "rows")
            ),
            paired=tuple(
                _test_entry(row, paired=True) for row in _leaf(data, "paired_tests", "rows")
            ),
        )

    def tsv(self) -> tuple[Sequence[str], Iterable[Sequence]]:
        return _TSV_HEADER, self._tsv_rows()

    def _tsv_rows(self):
        config = {"mode": self.mode, **asdict(self.config)}
        config.update(engines=self.engines, n_queries=self.n_queries)
        for key, value in config.items():
            yield ("config", "", "", "", "", key, value)
        for i, warning in enumerate(self.warnings, start=1):
            yield ("warning", "", "", "", "", i, warning)
        for s in self.summaries:
            yield ("summary", s.engine_id, "", s.measure_kind, "", "mb", s.mb)
            yield ("summary", s.engine_id, "", s.measure_kind, "", "mab", s.mab)
        for s in self.summaries:
            for rec in s.per_query:
                yield ("beta", s.engine_id, "", s.measure_kind, rec.query_id, "beta", rec.beta)
        for section, entries in (("one_sample", self.one_sample), ("paired", self.paired)):
            for e in entries:
                base = (section, e.engine, e.engine_b or "", e.measure_kind, "")
                yield (*base, "status", e.status)
                if e.detail:
                    yield (*base, "detail", e.detail)
                if e.result is not None:
                    for name, value in zip(_RESULT_FIELDS, _result_values(e)):
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
                [(s.engine_id, s.measure_kind, s.mb, s.mab) for s in self.summaries],
            ),
            (
                "One-sample t-tests (null: mean slant is 0)",
                ("engine", "measure", "status", "t", "df", "p", "mean", "rejected at"),
                [
                    (e.engine, e.measure_kind, e.status, *_result_values(e, _MD_FIELDS))
                    for e in self.one_sample
                ],
            ),
            (
                "Paired t-tests (null: engines share one true mean)",
                (
                    "engine A", "engine B", "measure", "status", "t", "df", "p", "mean diff",
                    "rejected at",
                ),
                [
                    (e.engine, e.engine_b, e.measure_kind, e.status, *_result_values(e, _MD_FIELDS))
                    for e in self.paired
                ],
            ),
            (
                "Per-query slant",
                ("engine", "measure", "query", "beta"),
                [
                    (s.engine_id, s.measure_kind, rec.query_id, rec.beta)
                    for s in self.summaries
                    for rec in s.per_query
                ],
            ),
        )
        for heading, header, rows in sections:
            if rows:
                blocks += [f"## {heading}", markdown_table(header, rows)]
        return "Search bias report", blocks


_RESULT_FIELDS = tuple(f.name for f in fields(TTestResult))

# The keys of a test entry; only a paired test names its second engine.
_ONE_SAMPLE_KEYS = ("engine", "measure", "status", "detail", *_RESULT_FIELDS)
_PAIRED_KEYS = ("engine_b", *_ONE_SAMPLE_KEYS)


def _result_values(entry: TestEntry, names: Sequence[str] = _RESULT_FIELDS) -> list:
    """The named fields of the entry's t-test result; all None when there is none."""
    return [getattr(entry.result, name) if entry.result else None for name in names]


def _test_dict(entry: TestEntry) -> dict:
    out: dict = {"engine": entry.engine}
    if entry.engine_b is not None:
        out["engine_b"] = entry.engine_b
    out.update(measure=entry.measure_kind, status=entry.status, detail=entry.detail)
    out.update(zip(_RESULT_FIELDS, _result_values(entry)))
    return out


def _bias_summary(data: dict) -> BiasSummary:
    _known(data, ("engine", "measure", "mb", "mab", "per_query"))
    measure = _leaf(data, "measure", "text")
    per_query = tuple(
        BiasRecord(_leaf(rec, "query_id", "text"), measure, _leaf(rec, "beta", "number"))
        for rec in map(_known, _leaf(data, "per_query", "rows"), repeat(("query_id", "beta")))
    )
    mb, mab = _leaf(data, "mb", "number"), _leaf(data, "mab", "number")
    return BiasSummary(_leaf(data, "engine", "text"), measure, mb, mab, per_query)


def _test_entry(data: dict, paired: bool) -> TestEntry:
    _known(data, _PAIRED_KEYS if paired else _ONE_SAMPLE_KEYS)
    result = None
    # The writer gives every result field a value, or nulls them all.
    if any(data[name] is not None for name in _RESULT_FIELDS):
        result = TTestResult(**_fields(TTestResult, data, exact=False))
    return TestEntry(
        engine=_leaf(data, "engine", "text"),
        engine_b=_leaf(data, "engine_b", "text") if paired else None,
        measure_kind=_leaf(data, "measure", "text"),
        status=_leaf(data, "status", "text"),
        detail=_leaf(data, "detail", "text"),
        result=result,
    )


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

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "DatasetReport":
        return cls(**_fields(cls, data))

    def tsv(self) -> tuple[Sequence[str], Iterable[Sequence]]:
        return ("field", "value"), asdict(self).items()

    def markdown(self) -> tuple[str, list[str]]:
        bullets = [(key.removeprefix("n_"), value) for key, value in asdict(self).items()]
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
    baseline: str
    step: int
    g1: str
    engines: tuple[str, ...]
    scores: tuple[BaselineScore, ...]

    def summary(self) -> Iterator[dict]:
        """Per engine: the mean of its defined scores (None without any), then
        the counts of defined and undefined scores."""
        by_engine: dict[str, list] = {engine: [] for engine in self.engines}
        for row in self.scores:
            by_engine.setdefault(row.engine, []).append(row.score)
        for engine, scores in by_engine.items():
            defined = [score for score in scores if score is not None]
            mean = math.fsum(defined) / len(defined) if defined else None
            counts = {"defined": len(defined), "undefined": len(scores) - len(defined)}
            yield {"engine": engine, "mean_score": mean, **counts}

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "config": {"baseline": self.baseline, "step": self.step, "g1": self.g1},
            "engines": list(self.engines),
            "scores": [row._asdict() for row in self.scores],
            "summary": list(self.summary()),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BaselineReport":
        """The summary is not read: it is recomputed from the scores."""
        _known(data, ("mode", "config", "engines", "scores", "summary"))
        cfg = _known(data["config"], ("baseline", "step", "g1"))
        rows = _leaf(data, "scores", "rows")
        scores = tuple(BaselineScore(**_fields(BaselineScore, row)) for row in rows)
        return cls(
            _leaf(data, "mode", "text"),
            _leaf(cfg, "baseline", "text"),
            _leaf(cfg, "step", "count"),
            _leaf(cfg, "g1", "text"),
            _leaf(data, "engines", "ids"),
            scores,
        )

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

    runs = []
    for run in sorted(ds.runs, key=lambda r: r.engine_id):
        if mode == "ideology":
            lists = {qid: transform_list(r) for qid, r in run.lists.items()}
            run = EngineRun(engine_id=run.engine_id, lists=lists)
        runs.append(run)
    engines = tuple(run.engine_id for run in runs)
    n_queries = len(ds.query_table)

    summaries: list[BiasSummary] = []
    betas: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        for kind_cfg in kind_cfgs:
            summary = summarize_run(run, kind_cfg)
            summaries.append(summary)
            betas[(run.engine_id, kind_cfg.measure_kind)] = [rec.beta for rec in summary.per_query]

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
        summaries=tuple(summaries),
        one_sample=tuple(one_sample),
        paired=tuple(paired),
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


# What the JSON writer puts in a field of each kind: a test and its description.
_KINDS = {
    "text": (lambda v: isinstance(v, str), "a string"),
    "count": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "number": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number"),
    "ids": (
        lambda v: isinstance(v, list) and all(isinstance(i, str) for i in v),
        "a list of strings",
    ),
    "rows": (lambda v: isinstance(v, list), "a list"),
}

# The kind of JSON value the writer gives a field of each annotated type.
_ANNOTATED = {
    str: "text",
    int: "count",
    float: "number",
    Optional[float]: "number?",
    tuple[str, ...]: "ids",
}


def _leaf(data: dict, key: str, kind: str):
    """data[key] if it holds what the writer puts there, else TypeError naming
    the field. kind is a key of _KINDS; a trailing "?" also takes null. Ids
    come back as a tuple."""
    value = data[key]
    nullable = kind.endswith("?")
    if value is None and nullable:
        return None
    check, what = _KINDS[kind.rstrip("?")]
    if not check(value):
        raise TypeError(f"field {key!r} must be {what}{' or null' if nullable else ''}")
    return tuple(value) if kind == "ids" else value


@functools.cache
def _field_kinds(cls) -> dict[str, str]:
    """Each field of cls, and the kind of JSON value the writer gives it."""
    return {name: _ANNOTATED[hint] for name, hint in typing.get_type_hints(cls).items()}


def _known(data: dict, keys) -> dict:
    """data, if it is an object that holds no key outside keys, else TypeError."""
    if not isinstance(data, dict):
        raise TypeError(f"expected an object, not {type(data).__name__}")
    unknown = [key for key in data if key not in keys]
    if unknown:
        raise TypeError(f"unexpected field {unknown[0]!r}")
    return data


def _fields(cls, data: dict, exact: bool = True) -> dict:
    """cls's fields read from the same keys of data, each checked by _leaf as
    its annotation says. With exact, data holds no other key."""
    kinds = _field_kinds(cls)
    if exact:
        _known(data, kinds)
    return {name: _leaf(data, name, kind) for name, kind in kinds.items()}


def report_from_json(text: str) -> Report:
    """Inverse of the JSON rendering of any report; numeric fields survive to
    full precision. The keys that only one schema has pick the report type.
    Text that is not a report, or holds a field of the wrong type, raises
    InputError."""
    try:
        data = json.loads(text)
        if "bias_summaries" in data:
            return ComparisonReport.from_dict(data)
        if "scores" in data:
            return BaselineReport.from_dict(data)
        return DatasetReport.from_dict(data)
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
        return to_json_text(rep.to_dict()) + "\n"
    if fmt == "tsv":
        return tsv_text(*rep.tsv())
    title, blocks = rep.markdown()
    return markdown_text(title, *blocks)
