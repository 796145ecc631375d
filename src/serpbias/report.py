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

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .bias import BiasRecord, BiasSummary, summarize_run
from .dataset import Dataset
from .errors import ConfigError, DegenerateSampleError, check_choice
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
        cfg = data["config"]
        return cls(
            mode=data["mode"],
            config=ReportConfig(**{**cfg, "measures": tuple(cfg["measures"])}),
            engines=tuple(data["engines"]),
            n_queries=data["n_queries"],
            warnings=tuple(data["warnings"]),
            summaries=tuple(
                BiasSummary(
                    engine_id=s["engine"],
                    measure_kind=s["measure"],
                    mb=s["mb"],
                    mab=s["mab"],
                    per_query=tuple(
                        BiasRecord(rec["query_id"], s["measure"], rec["beta"])
                        for rec in s["per_query"]
                    ),
                )
                for s in data["bias_summaries"]
            ),
            one_sample=tuple(_test_entry(e) for e in data["one_sample_tests"]),
            paired=tuple(_test_entry(e) for e in data["paired_tests"]),
        )

    def tsv(self) -> tuple[Sequence[str], Iterable[Sequence]]:
        return _TSV_HEADER, self._tsv_rows()

    def _tsv_rows(self):
        config = {"mode": self.mode, **asdict(self.config)}
        config.update(engines=self.engines, n_queries=self.n_queries)
        for key, value in config.items():
            if isinstance(value, (list, tuple)):
                value = ",".join(value)
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
                    f"mode: {self.mode}",
                    f"engines: {', '.join(self.engines) if self.engines else '(none)'}",
                    f"queries: {self.n_queries}",
                    f"measures: {', '.join(c.measures)}",
                    f"cutoff: {c.cutoff}, persistence: {_cell(c.persistence, '.6g')}, "
                    f"log base: {_cell(c.log_base, '.6g')}, alpha: {_cell(c.alpha, '.6g')}",
                    *(f"warning: {warning}" for warning in self.warnings),
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


def _test_entry(data: dict) -> TestEntry:
    result = None
    if data["t_stat"] is not None:
        result = TTestResult(*(data[name] for name in _RESULT_FIELDS))
    return TestEntry(
        engine=data["engine"],
        engine_b=data.get("engine_b"),
        measure_kind=data["measure"],
        status=data["status"],
        detail=data["detail"],
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
        return cls(**{**data, "engines": tuple(data["engines"])})

    def tsv(self) -> tuple[Sequence[str], Iterable[Sequence]]:
        _, *counts = asdict(self).items()
        return ("field", "value"), [("engines", ",".join(self.engines)), *counts]

    def markdown(self) -> tuple[str, list[str]]:
        _, *counts = asdict(self).items()
        bullets = [f"{key.removeprefix('n_')}: {n}" for key, n in counts]
        return "Dataset", [markdown_list([f"engines: {', '.join(self.engines)}", *bullets])]


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
        cfg, scores = data["config"], tuple(BaselineScore(**row) for row in data["scores"])
        engines = tuple(data["engines"])
        return cls(data["mode"], cfg["baseline"], cfg["step"], cfg["g1"], engines, scores)

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
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie strictly between 0 and 1, got {alpha!r}")
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


def to_json_text(value, indent: int = 0) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, float):
        return _float_text(value)
    if value is None or isinstance(value, (bool, int, str)):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(inner + to_json_text(v, indent + 1) for v in value)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k), ensure_ascii=False)}: {to_json_text(v, indent + 1)}"
            for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot render {type(value).__name__} as JSON")


def report_from_json(text: str) -> Report:
    """Inverse of the JSON rendering of any report; numeric fields survive to
    full precision. The keys that only one schema has pick the report type."""
    data = json.loads(text)
    if "bias_summaries" in data:
        return ComparisonReport.from_dict(data)
    if "scores" in data:
        return BaselineReport.from_dict(data)
    return DatasetReport.from_dict(data)


# The escapes that keep a text on one line, in one TSV cell, or in one markdown cell.
_BACKSLASH_AND_BREAKS = {"\\": "\\\\", "\r": "\\r", "\n": "\\n"}
_LINE_ESCAPES = str.maketrans(_BACKSLASH_AND_BREAKS)
_TSV_ESCAPES = str.maketrans({**_BACKSLASH_AND_BREAKS, "\t": "\\t"})
_MD_ESCAPES = str.maketrans({**_BACKSLASH_AND_BREAKS, "\t": "\\t", "|": "\\|"})


def _cell(value, float_spec: str = "", escapes: dict = _TSV_ESCAPES) -> str:
    """One table cell: empty for None, a float through float_spec (repr when
    empty), anything else through str with the characters in escapes escaped."""
    if type(value) is not str:
        if value is None:
            return ""
        if isinstance(value, float):
            return format(value, float_spec)
        value = str(value)
    # Most cells hold nothing to escape, and these tests cost less than translate.
    if "\\" in value or "|" in value or not value.isprintable():
        return value.translate(escapes)
    return value


def tsv_text(header: Sequence[str], rows: Iterable[Iterable]) -> str:
    """Tab-separated table: the header line, then one line of cells per row."""
    lines = ["\t".join(header)]
    lines += ["\t".join(_cell(value) for value in row) for row in rows]
    return "\n".join(lines) + "\n"


def markdown_table(header: Sequence[str], rows: Iterable[Iterable]) -> str:
    """Markdown table of cells, floats at 6 significant digits."""
    lines = ["| " + " | ".join(header) + " |", "|" + " --- |" * len(header)]
    lines += [
        "| " + " | ".join(_cell(value, ".6g", _MD_ESCAPES) for value in row) + " |" for row in rows
    ]
    return "\n".join(lines)


def markdown_list(items: Iterable[str]) -> str:
    """Markdown bullet list, one item per line."""
    return "\n".join(f"- {item.translate(_LINE_ESCAPES)}" for item in items)


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
