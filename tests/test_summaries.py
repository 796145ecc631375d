"""Each BiasSummary's two columns against the per-record summary they replaced.

A summary holds its slants as `query_ids` and `betas`, and every renderer
reads those columns. The references here write the same report from its
`per_query` records, one row per record: the JSON through to_json_text's
generic path over plain dicts, and the TSV and markdown one cell at a time.
Over random datasets, in both modes and under any subset of the measures,
the bytes of all three formats must match, each beta must be the bits of
`bias` on its list, and the JSON must read back to the same report.
"""

import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import jsonl, record
from serpbias import (
    MEASURE_KINDS,
    BiasRecord,
    BiasSummary,
    ComparisonReport,
    MeasureConfig,
    ReportConfig,
    bias,
    evaluate,
    parse_dataset,
    render_report,
    report_from_json,
    transform_list,
)
from serpbias.report import _TSV_HEADER, markdown_list, to_json_text
from test_report import (
    Text, reference_markdown_table, reference_to_dict, reference_tsv, same_outcome,
)

STANCES = ("pro", "against", "neutral", "not-relevant")
LEANINGS = ("conservative", "liberal", "both_or_neither")


@st.composite
def datasets(draw):
    """1-4 engines over 1-8 queries, each list of 0-30 documents. An engine
    may give every query one list, which makes its stance columns constant."""
    stances = st.lists(st.sampled_from(STANCES), max_size=30)
    leanings = draw(st.lists(st.sampled_from(LEANINGS), min_size=1, max_size=8))
    records = []
    for engine in range(draw(st.integers(1, 4))):
        shared = draw(st.none() | stances)
        for query, leaning in enumerate(leanings):
            docs = draw(stances) if shared is None else shared
            records.append(record(f"e{engine}", f"q{query}", docs, leaning))
    return parse_dataset(io.StringIO(jsonl(records)))


def with_betas(rep, betas):
    """rep with the betas of each summary replaced by those that betas draws."""
    summaries = [
        BiasSummary(s.engine, s.measure, s.mb, s.mab, s.query_ids, betas(len(s.betas)))
        for s in rep.bias_summaries
    ]
    return ComparisonReport(**{**vars(rep), "bias_summaries": tuple(summaries)})


def reference_tsv_report(rep):
    """The TSV with one row per record: config, warnings, summaries, betas, tests."""
    config = {"mode": rep.mode, **vars(rep.config), "engines": rep.engines}
    config["n_queries"] = rep.n_queries
    rows = [("config", "", "", "", "", key, value) for key, value in config.items()]
    rows += [("warning", "", "", "", "", i, w) for i, w in enumerate(rep.warnings, start=1)]
    for s in rep.bias_summaries:
        rows += [("summary", s.engine, "", s.measure, "", "mb", s.mb)]
        rows += [("summary", s.engine, "", s.measure, "", "mab", s.mab)]
    for s in rep.bias_summaries:
        rows += [("beta", s.engine, "", s.measure, rec.query_id, "beta", rec.beta)
                 for rec in s.per_query]
    for section, entries in (("one_sample", rep.one_sample_tests), ("paired", rep.paired_tests)):
        for e in entries:
            fields = {"status": e.status, **({"detail": e.detail} if e.detail else {})}
            fields.update(vars(e.result) if e.result else {})
            lead = (section, e.engine, e.engine_b or "", e.measure, "")
            rows += [(*lead, key, value) for key, value in fields.items()]
    return reference_tsv(_TSV_HEADER, rows)


def reference_markdown(rep):
    """The markdown with one per-query table row per record."""
    c = rep.config
    settings_line = (
        f"{c.cutoff}, persistence: {c.persistence:.6g}, log base: {c.log_base:.6g}, "
        f"alpha: {c.alpha:.6g}"
    )
    bullets = [
        ("mode", rep.mode),
        ("engines", rep.engines or "(none)"),
        ("queries", rep.n_queries),
        ("measures", c.measures),
        ("cutoff", settings_line),
        *(("warning", warning) for warning in rep.warnings),
    ]
    result_names = ("t_stat", "df", "p_value", "sample_mean", "reject_at")

    def results(e):
        return [getattr(e.result, name) if e.result else None for name in result_names]

    tables = [
        ("Engine summaries", ("engine", "measure", "MB", "MAB"),
         [(s.engine, s.measure, s.mb, s.mab) for s in rep.bias_summaries]),
        ("One-sample t-tests (null: mean slant is 0)",
         ("engine", "measure", "status", "t", "df", "p", "mean", "rejected at"),
         [(e.engine, e.measure, e.status, *results(e)) for e in rep.one_sample_tests]),
        ("Paired t-tests (null: engines share one true mean)",
         ("engine A", "engine B", "measure", "status", "t", "df", "p", "mean diff",
          "rejected at"),
         [(e.engine, e.engine_b, e.measure, e.status, *results(e)) for e in rep.paired_tests]),
        ("Per-query slant", ("engine", "measure", "query", "beta"),
         [(s.engine, s.measure, rec.query_id, rec.beta)
          for s in rep.bias_summaries for rec in s.per_query]),
    ]
    blocks = ["# Search bias report", markdown_list(bullets)]
    for heading, header, rows in tables:
        if rows:
            blocks += [f"## {heading}", reference_markdown_table(header, rows)]
    return "\n\n".join(blocks) + "\n"


def same_as_the_references(rep):
    """rep renders in each format to its reference's bytes, and its JSON reads
    back to a report that renders to the same bytes in every format."""
    text = render_report(rep, "json")
    assert text == to_json_text(reference_to_dict(rep)) + "\n"
    assert render_report(rep, "tsv") == reference_tsv_report(rep)
    assert render_report(rep, "markdown") == reference_markdown(rep)
    back = report_from_json(text)
    assert back == rep
    for fmt in ("json", "tsv", "markdown"):
        assert render_report(back, fmt) == render_report(rep, fmt)


@settings(deadline=None)
@given(
    ds=datasets(),
    mode=st.sampled_from(["stance", "ideology"]),
    kinds=st.lists(st.sampled_from(MEASURE_KINDS), unique=True, max_size=3),
    cutoff=st.integers(1, 12),
    zeros=st.lists(st.sampled_from([0.0, -0.0]), min_size=30, max_size=30),
)
def test_summary_columns_render_as_the_per_record_summaries(ds, mode, kinds, cutoff, zeros):
    cfg = MeasureConfig(cutoff=cutoff)
    rep = evaluate(ds, cfg, mode=mode, measures=kinds)
    lists = {run.engine_id: run.lists for run in ds.runs}
    for s in rep.bias_summaries:
        kind_cfg = MeasureConfig(cutoff, cfg.persistence, cfg.log_base, s.measure)
        scored = lists[s.engine].values()
        if mode == "ideology":
            scored = map(transform_list, scored)
        assert s.query_ids == tuple(lists[s.engine])
        assert [b.hex() for b in s.betas] == [bias(r, kind_cfg).hex() for r in scored]
    same_as_the_references(rep)
    # Every beta exactly 0.0 or -0.0: integral values in the JSON's one pass.
    signed = with_betas(rep, lambda n: tuple(zeros[:n]))
    same_as_the_references(signed)
    back = report_from_json(render_report(signed, "json"))
    for s, t in zip(signed.bias_summaries, back.bias_summaries):
        assert [b.hex() for b in s.betas] == [b.hex() for b in t.betas]


def test_a_summary_builds_its_records_from_its_columns_on_each_access():
    s = BiasSummary("e", "dcg", 0.25, 0.75, ("q1", "q2"), (-0.5, 1.0))
    assert s.per_query == (BiasRecord("q1", -0.5), BiasRecord("q2", 1.0))
    assert s.per_query is not s.per_query
    assert list(vars(s)) == ["engine", "measure", "mb", "mab", "query_ids", "betas"]


def one_summary(query_ids, betas):
    config = ReportConfig(10, 0.8, 2.0, 0.05, ("rbp",))
    summary = BiasSummary("e", "rbp", 0.0, 0.0, query_ids, betas)
    return ComparisonReport("stance", config, ("e",), 2, (), (summary,), (), ())


@pytest.mark.parametrize(
    "query_ids, betas",
    [
        (("q1", "q2"), (1, 2.5)),
        (("q1", "q2"), (True, 0.5)),
        (("q1", "q2"), (math.nan, 0.0)),
        (("q1", "q2"), (0.5, -math.inf)),
        ((Text("q|1"), "q2"), (0.5, 1e16)),
        ((7, "q2"), (0.5, 1.0)),
        (("q\n\"1", "é😀"), (5e-324, -1e17)),
        ((), ()),
    ],
    ids=["int", "bool", "nan", "infinity", "str-subclass", "int-id", "escapes", "empty"],
)
def test_any_column_writes_the_json_of_its_records(query_ids, betas):
    """Columns of texts and finite floats take the one-pass writer, any
    other the per-row one; both write what the records' dicts write."""
    rep = one_summary(query_ids, betas)
    same_outcome(
        lambda r: render_report(r, "json"), lambda r: to_json_text(reference_to_dict(r)) + "\n", rep
    )


@pytest.mark.parametrize("fmt", ["json", "tsv", "markdown", "per_query"])
def test_columns_of_two_lengths_are_refused_rather_than_cut(fmt):
    rep = one_summary(("q1", "q2"), (0.5,))
    with pytest.raises(ValueError, match="shorter"):
        if fmt == "per_query":
            rep.bias_summaries[0].per_query
        else:
            render_report(rep, fmt)
