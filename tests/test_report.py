"""Evaluation protocol assembly and report rendering."""

import enum
import functools
import io
import json
import math
import random
import sys
import typing
from pathlib import Path
from typing import NamedTuple, Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import jsonl, record
from serpbias import cli, report, stats
from serpbias import (
    BaselineConfig,
    BaselineReport,
    BaselineScore,
    BiasRecord,
    BiasSummary,
    ComparisonReport,
    ConfigError,
    Dataset,
    DatasetReport,
    EngineRun,
    InputError,
    MeasureConfig,
    ReportConfig,
    StanceLabel,
    TTestResult,
    baseline_score,
    evaluate,
    load_dataset,
    parse_dataset,
    render_report,
    report_from_json,
)
# Imported under another name, so that pytest does not take it for a test class.
from serpbias import TestEntry as Entry
from serpbias.report import (
    _MD_ESCAPES, _cell, _float_text, markdown_table, resolve_measures, to_json_text, tsv_text,
)
from test_golden import BASE_CASES

GOLDEN = Path(__file__).resolve().parent / "golden"


def dataset_from(records):
    return parse_dataset(io.StringIO(jsonl(records)))


def two_engine_dataset(seed=5, queries=6):
    rng = random.Random(seed)
    recs = []
    leanings = {f"q{k:02d}": rng.choice(["conservative", "liberal"]) for k in range(queries)}
    for engine in ("engine-a", "engine-b"):
        for qid, leaning in leanings.items():
            stances = rng.choices(["pro", "against", "neutral", "not-relevant"], k=10)
            recs.append(record(engine, qid, stances, leaning=leaning))
    return dataset_from(recs)


def test_identical_engines_yield_zero_paired_t():
    rng = random.Random(3)
    recs = []
    for qid in ("q1", "q2", "q3"):
        stances = rng.choices(["pro", "against", "neutral"], k=10)
        recs.append(record("engine-a", qid, stances))
        recs.append(record("engine-b", qid, stances))
    rep = evaluate(dataset_from(recs))
    assert rep.paired_tests
    for entry in rep.paired_tests:
        assert entry.status == "ok"
        assert entry.result.t_stat == 0.0
        assert entry.result.p_value == 1.0


def test_all_neutral_dataset_is_flat_zero():
    recs = [
        record(engine, qid, ["neutral"] * 10)
        for engine in ("engine-a", "engine-b")
        for qid in ("q1", "q2")
    ]
    rep = evaluate(dataset_from(recs))
    for summary in rep.bias_summaries:
        assert summary.mb == 0.0
        assert summary.mab == 0.0


def test_constant_planted_bias_hits_degenerate_path():
    # Every list carries 6 pro / 4 against somewhere in the top 10: the
    # per-query slant is exactly 0.2 with zero variance, so the one-sample
    # test has a certain outcome instead of a p-value.
    rng = random.Random(11)
    recs = []
    for k in range(57):
        stances = ["pro"] * 6 + ["against"] * 4
        rng.shuffle(stances)
        recs.append(record("engine-a", f"q{k:02d}", stances))
    rep = evaluate(dataset_from(recs), measures=("precision",))
    summary = rep.bias_summaries[0]
    assert summary.mb == pytest.approx(0.2, abs=1e-15)
    assert summary.mab == pytest.approx(0.2, abs=1e-15)
    entry = rep.one_sample_tests[0]
    assert entry.status == "degenerate_certain"
    assert entry.result is None
    assert "no variance" in entry.detail


def test_single_query_skips_statistics():
    recs = [record("engine-a", "q1", ["pro"] * 10)]
    rep = evaluate(dataset_from(recs))
    assert rep.warnings == ("fewer than 2 queries: statistical tests skipped",)
    for entry in rep.one_sample_tests:
        assert entry.status == "skipped"
        assert entry.result is None


def test_ideology_mode_signs():
    # Pro docs on a conservative query -> conservative slant (positive);
    # pro docs on a liberal query -> liberal slant (negative).
    recs = [
        record("engine-a", "q1", ["pro"] * 10, leaning="conservative"),
        record("engine-a", "q2", ["pro"] * 10, leaning="liberal"),
        record("engine-a", "q3", ["pro"] * 10, leaning="both_or_neither"),
    ]
    rep = evaluate(dataset_from(recs), mode="ideology", measures=("precision",))
    betas = {rec.query_id: rec.beta for rec in rep.bias_summaries[0].per_query}
    assert betas["q1"] == 1.0
    assert betas["q2"] == -1.0
    assert betas["q3"] == 0.0


def test_stance_mode_ignores_leaning():
    recs = [
        record("engine-a", "q1", ["pro"] * 10, leaning="liberal"),
        record("engine-a", "q2", ["pro"] * 10, leaning="both_or_neither"),
    ]
    rep = evaluate(dataset_from(recs), measures=("precision",))
    assert all(rec.beta == 1.0 for rec in rep.bias_summaries[0].per_query)


def test_json_round_trip_preserves_everything():
    # The golden datasets add degenerate and skipped tests, a reject_at of None
    # and paired entries that carry engine_b.
    cases = [(two_engine_dataset(), "stance")]
    for name, mode in (("serps", "stance"), ("serps", "ideology"), ("one_query", "stance")):
        cases.append((load_dataset(str(GOLDEN / f"{name}.jsonl")), mode))
    for ds, mode in cases:
        rep = evaluate(ds, mode=mode)
        text = render_report(rep, "json")
        assert report_from_json(text) == rep
        assert render_report(report_from_json(text), "json") == text
    # The validate and baselines reports: each golden JSON output reads back as
    # the report the CLI builds, and renders again to every golden format.
    for name in ("validate", *(n for n in sorted(BASE_CASES) if n.startswith("baselines-"))):
        args = cli.build_parser().parse_args(BASE_CASES[name])
        rep = cli._REPORTS[args.command](args)
        text = (GOLDEN / f"{name}.json.out").read_bytes().decode("utf-8")
        assert report_from_json(text) == rep
        for fmt in ("json", "tsv", "markdown"):
            golden = (GOLDEN / f"{name}.{fmt}.out").read_bytes().decode("utf-8")
            assert render_report(report_from_json(text), fmt) == golden


def test_every_golden_json_reads_back_and_renders_every_golden_format():
    for path in sorted(GOLDEN.glob("*.json.out")):
        text = path.read_bytes().decode("utf-8")
        rep = report_from_json(text)
        for fmt in ("json", "tsv", "markdown"):
            golden = path.with_name(path.name.replace(".json.", f".{fmt}."))
            if golden.exists():
                assert render_report(rep, fmt) == golden.read_bytes().decode("utf-8"), golden.name


def test_a_report_subclass_that_declares_no_fields_renders_as_its_parent():
    """Such a subclass has its parent's fields and annotations: every golden
    report, rebuilt as one, renders the parent's bytes in every format and
    reads back as the parent report."""
    for path in sorted(GOLDEN.glob("*.json.out")):
        rep = report_from_json(path.read_bytes().decode("utf-8"))
        cls = type(rep)
        sub = type("Sub", (cls,), {})(*(getattr(rep, name) for name in cls._fields))
        for fmt in ("json", "tsv", "markdown"):
            assert render_report(sub, fmt) == render_report(rep, fmt), (path.name, fmt)
        assert report_from_json(render_report(sub, "json")) == rep


VALIDATE_JSON = (GOLDEN / "validate.json.out").read_text(encoding="utf-8")


# Stands in for the value of a field that with_field removes.
DROP = object()


def with_field(data, path, value):
    """The JSON text of data, a parsed JSON value, with the field at path set
    to value, which adds the field where there is none, or removed if value
    is DROP."""
    *path, last = path
    target = data
    for key in path:
        target = target[key]
    if value is DROP:
        del target[last]
    else:
        target[last] = value
    return json.dumps(data)


def edited(name, *path_and_value):
    """The golden JSON output `name` with the field at path set to value, as with_field does."""
    *path, value = path_and_value
    data = json.loads((GOLDEN / f"{name}.json.out").read_text(encoding="utf-8"))
    return with_field(data, path, value)


@pytest.mark.parametrize(
    "text, field",
    [
        ("[]", ""),
        ("1", "TypeError: expected an object, not int"),
        ("null", "TypeError: expected an object, not NoneType"),
        ("true", "TypeError: expected an object, not bool"),
        ("{}", ""),
        ('{"bias_summaries": []}', ""),
        ("nope", ""),
        ("[" * 100_000, ""),
        (VALIDATE_JSON.replace("{", '{"extra": 1,', 1), "'extra'"),
        ('{"engines": "abc", "n_queries": "six", "n_records": null, "n_documents": [1]}',
         "'engines'"),
        (edited("validate", "n_records", None), "'n_records'"),
        (edited("evaluate-stance", "config", "persistence", "0.8"), "'persistence'"),
        (edited("evaluate-stance", "bias_summaries", 0, "per_query", 0, "beta", True),
         "'beta'"),
        (edited("evaluate-stance", "one_sample_tests", 0, "df", 1.5), "'df'"),
        (edited("evaluate-stance", "paired_tests", 0, "status", None), "'status'"),
        (edited("baselines-rnd", "config", "step", True), "'step'"),
        (edited("baselines-rnd", "scores", 0, "score", "0.5"), "'score'"),
        (edited("baselines-rnd", "engines", ["a", 1]), "'engines'"),
        # An unknown key at each level the reader reads.
        (edited("evaluate-stance", "extra", 1), "'extra'"),
        (edited("evaluate-stance", "config", "extra", 1), "'extra'"),
        (edited("evaluate-stance", "bias_summaries", 0, "extra", 1), "'extra'"),
        (edited("evaluate-stance", "bias_summaries", 0, "per_query", 0, "extra", 1), "'extra'"),
        (edited("evaluate-stance", "one_sample_tests", 0, "extra", 1), "'extra'"),
        (edited("evaluate-stance", "one_sample_tests", 0, "engine_b", "engine-b"), "'engine_b'"),
        (edited("evaluate-stance", "paired_tests", 0, "extra", 1), "'extra'"),
        (edited("compare-stance", "extra", 1), "'extra'"),
        (edited("baselines-rnd", "extra", 1), "'extra'"),
        (edited("baselines-rnd", "config", "extra", 1), "'extra'"),
        (edited("baselines-rnd", "scores", 0, "extra", 1), "'extra'"),
        (edited("evaluate-stance", "bias_summaries", 0, "per_query", 0, []), "list"),
        # Literals json.loads takes and the writer never writes.
        (edited("evaluate-stance", "bias_summaries", 0, "mb", math.nan), "NaN"),
        (edited("baselines-rnd", "scores", 0, "score", math.inf), "Infinity"),
        (edited("evaluate-stance", "one_sample_tests", 0, "t_stat", -math.inf), "-Infinity"),
        # The baselines settings belong in config only, and a paired test names engine_b.
        (edited("baselines-rnd", "baseline", "rnd"), "'baseline'"),
        (edited("baselines-rnd", "step", 10), "'step'"),
        (edited("baselines-rnd", "g1", "pro"), "'g1'"),
        (edited("evaluate-stance", "paired_tests", 0, "engine_b", DROP), "'engine_b'"),
    ],
    ids=[
        "list", "number", "null", "boolean", "empty-object", "no-config", "not-json", "deep-nesting", "extra-key",
        "validate-text-fields", "validate-null-count", "evaluate-text-persistence",
        "evaluate-bool-beta", "evaluate-float-df", "evaluate-null-status",
        "baselines-bool-step", "baselines-text-score", "baselines-int-engine",
        "evaluate-extra-key", "evaluate-config-extra-key", "evaluate-summary-extra-key",
        "evaluate-beta-extra-key", "evaluate-one-sample-extra-key",
        "evaluate-one-sample-engine-b", "evaluate-paired-extra-key", "compare-extra-key",
        "baselines-extra-key", "baselines-config-extra-key", "baselines-score-extra-key",
        "evaluate-beta-not-object", "evaluate-nan-mb", "baselines-infinite-score",
        "evaluate-negative-infinite-t",
        "baselines-top-level-baseline", "baselines-top-level-step", "baselines-top-level-g1",
        "evaluate-paired-without-engine-b",
    ],
)
def test_report_from_json_rejects_what_is_not_a_report(text, field):
    with pytest.raises(InputError, match="^not a serpbias report: ") as caught:
        report_from_json(text)
    assert field in str(caught.value)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits") or sys.get_int_max_str_digits() == 0,
    reason="this Python reads integers of any length",
)
def test_report_from_json_names_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    with pytest.raises(InputError) as info:
        report_from_json('{"n_queries": ' + "1" * (limit + 700) + "}")
    message = f"an integer exceeds the limit of {limit} digits"
    assert str(info.value) == f"not a serpbias report: ValueError: {message}"


def test_baseline_summary_means_the_defined_scores():
    rows = (
        BaselineScore("a", "q1", "ok", 0.25),
        BaselineScore("a", "q2", "undefined", None, "no g1 document"),
        BaselineScore("a", "q3", "ok", 0.5),
        BaselineScore("b", "q1", "undefined", None, "no g1 document"),
    )
    rep = BaselineReport("stance", "rnd", 10, "pro", ("a", "b"), rows)
    assert list(rep.summary()) == [
        {"engine": "a", "mean_score": 0.375, "defined": 2, "undefined": 1},
        {"engine": "b", "mean_score": None, "defined": 0, "undefined": 1},
    ]
    assert report_from_json(render_report(rep)) == rep


def test_baseline_summary_means_scores_whose_sum_passes_the_float_range():
    rows = (BaselineScore("a", "q1", "ok", 1e308), BaselineScore("a", "q2", "ok", 1e308))
    rep = BaselineReport("stance", "rnd", 10, "pro", ("a",), rows)
    assert list(rep.summary()) == [
        {"engine": "a", "mean_score": 1e308, "defined": 2, "undefined": 0},
    ]
    assert "1e+308" in render_report(rep, "tsv")
    assert "| a | 1e+308 | 2 | 0 |" in render_report(rep, "markdown")
    text = render_report(rep, "json")
    assert '"mean_score": 1e+308' in text
    assert report_from_json(text) == rep


def test_rendering_is_deterministic():
    rep = evaluate(two_engine_dataset())
    again = evaluate(two_engine_dataset())
    for fmt in ("json", "tsv", "markdown"):
        assert render_report(rep, fmt) == render_report(again, fmt)


def readme_baselines(ds):
    """The BaselineReport the README's library loop builds."""
    g1, cfg = StanceLabel.PRO, BaselineConfig(step=2, kind="rkl")
    scores = []
    for run in ds.runs:
        for qid, ranked in run.lists.items():
            try:
                row = (run.engine_id, qid, "ok", baseline_score(ranked, g1, cfg))
            except InputError as exc:
                row = (run.engine_id, qid, "undefined", None, str(exc))
            scores.append(BaselineScore(*row))
    engines = tuple(ds.engine_ids())
    return BaselineReport("stance", cfg.kind, cfg.step, str(g1), engines, tuple(scores))


def test_engine_input_order_is_irrelevant():
    rng = random.Random(10)
    recs = []
    for qid, leaning in (("q1", "liberal"), ("q2", "conservative"), ("q3", "liberal")):
        for engine in ("engine-a", "engine-b", "engine-c"):
            stances = rng.choices(["pro", "against", "neutral"], k=8)
            recs.append(record(engine, qid, stances, leaning=leaning))
    forward = dataset_from(recs)
    # Built by hand, with runs, lists and the query table all in reverse order.
    backward = Dataset(
        runs=tuple(
            EngineRun(run.engine_id, dict(reversed(run.lists.items())))
            for run in reversed(forward.runs)
        ),
        query_table=dict(reversed(forward.query_table.items())),
    )
    for ds in (dataset_from(list(reversed(recs))), backward):
        assert [run.engine_id for run in ds.runs] == ["engine-a", "engine-b", "engine-c"]
        assert list(ds.query_table) == ["q1", "q2", "q3"]
        for run in ds.runs:
            assert list(run.lists) == ["q1", "q2", "q3"]
        builds = (
            DatasetReport.from_dataset,
            evaluate,
            lambda d: evaluate(d, mode="ideology"),
            readme_baselines,
        )
        for build in builds:
            for fmt in ("json", "tsv", "markdown"):
                assert render_report(build(ds), fmt) == render_report(build(forward), fmt)


def test_json_floats_render_with_17_significant_digits():
    rep = evaluate(two_engine_dataset())
    text = render_report(rep, "json")
    assert '"persistence": 0.80000000000000004' in text
    assert '"alpha": 0.050000000000000003' in text
    parsed = json.loads(text)
    assert parsed["config"]["persistence"] == 0.8


def test_report_orderings_are_sorted():
    rep = evaluate(two_engine_dataset())
    assert list(rep.engines) == sorted(rep.engines)
    assert list(rep.config.measures) == sorted(rep.config.measures)
    for summary in rep.bias_summaries:
        qids = [rec.query_id for rec in summary.per_query]
        assert qids == sorted(qids)


def test_empty_report_renders_in_every_format():
    empty = ComparisonReport(
        mode="stance",
        config=ReportConfig(10, 0.8, 2.0, 0.05, ()),
        engines=(),
        n_queries=0,
        warnings=(),
        bias_summaries=(),
        one_sample_tests=(),
        paired_tests=(),
    )
    as_json = render_report(empty, "json")
    assert json.loads(as_json)["engines"] == []
    assert render_report(empty, "tsv").startswith("section\t")
    assert render_report(empty, "markdown").startswith("# ")
    assert report_from_json(as_json) == empty


def test_measure_selection_and_aliases():
    assert resolve_measures(["p", "rbp", "dcg"]) == ("dcg", "precision", "rbp")
    assert resolve_measures(["P", " rbp "]) == ("precision", "rbp")
    with pytest.raises(ConfigError, match="unknown measure"):
        resolve_measures(["ndcg"])


def test_evaluate_validates_configuration():
    ds = two_engine_dataset()
    with pytest.raises(ConfigError):
        evaluate(ds, mode="partisan")
    with pytest.raises(ConfigError):
        evaluate(ds, alpha=1.0)
    with pytest.raises(ConfigError):
        evaluate(ds, measures=("bm25",))
    with pytest.raises(ConfigError):
        evaluate(ds, cfg=MeasureConfig(cutoff=-1))


@pytest.mark.parametrize(
    "measures", ["rbp", b"rbp", bytearray(b"rbp")], ids=["str", "bytes", "bytearray"]
)
def test_evaluate_refuses_one_text_for_the_measures(measures):
    with pytest.raises(ConfigError) as info:
        evaluate(two_engine_dataset(), measures=measures)
    whole = f"one whole text ({type(measures).__name__})"
    assert str(info.value) == f"measures must be an iterable of measure kinds, got {whole}"


@pytest.mark.parametrize(
    "kwargs, expected",
    [
        (
            {"measures": [["p"]]},
            "unknown measure kind ['p'] (expected one of: precision, rbp, dcg)",
        ),
        ({"measures": 5}, "measures must be an iterable of measure kinds, got 5"),
        ({"mode": []}, "unknown mode [] (expected one of: stance, ideology)"),
        ({"mode": {}}, "unknown mode {} (expected one of: stance, ideology)"),
    ],
    ids=["unhashable-kind", "not-iterable", "mode-list", "mode-dict"],
)
def test_evaluate_refuses_an_unhashable_or_non_iterable_choice(kwargs, expected):
    with pytest.raises(ConfigError) as info:
        evaluate(two_engine_dataset(), **kwargs)
    assert str(info.value) == expected


def test_unknown_render_format():
    rep = evaluate(two_engine_dataset())
    with pytest.raises(ConfigError, match="unknown output format"):
        render_report(rep, "yaml")


def test_report_references_each_pair_once():
    rep = evaluate(two_engine_dataset())
    one_sample_keys = [(e.engine, e.measure) for e in rep.one_sample_tests]
    assert len(one_sample_keys) == len(set(one_sample_keys)) == 6
    paired_keys = [(e.engine, e.engine_b, e.measure) for e in rep.paired_tests]
    assert len(paired_keys) == len(set(paired_keys)) == 3
    summary_keys = [(s.engine, s.measure) for s in rep.bias_summaries]
    assert len(summary_keys) == len(set(summary_keys)) == 6


@pytest.mark.parametrize("mode", ["stance", "ideology"])
def test_evaluate_checks_each_beta_column_once(monkeypatch, mode):
    rng = random.Random(11)
    ds = dataset_from(
        record(engine, f"q{k}", rng.choices(["pro", "against", "neutral"], k=8), leaning)
        for engine in ("engine-a", "engine-b", "engine-c")
        for k, leaning in enumerate(["liberal", "conservative", "liberal"])
    )
    checked, tested = [], []
    finite, one_sample, paired = stats._finite, report.one_sample_ttest, report.paired_ttest

    def check(values, what="observation"):
        if type(values) is not stats.Sample:
            checked.append((what, list(values)))
        return finite(values, what)

    def one_sample_test(values, *rest):
        tested.append(values)
        return one_sample(values, *rest)

    def paired_test(a, b, *rest):
        tested.extend((a, b))
        return paired(a, b, *rest)

    monkeypatch.setattr(stats, "_finite", check)
    monkeypatch.setattr(report, "one_sample_ttest", one_sample_test)
    monkeypatch.setattr(report, "paired_ttest", paired_test)
    rep = evaluate(ds, mode=mode)
    # 9 one-sample tests and 9 paired ones, every one on Samples.
    assert len(tested) == 27 and all(type(v) is stats.Sample for v in tested)
    # Each column of betas was checked once, in report order; apart from the
    # columns, only each one-sample test's null mean was.
    columns = [[rec.beta for rec in s.per_query] for s in rep.bias_summaries]
    assert [values for what, values in checked if what == "observation"] == columns
    assert [what for what, _ in checked].count("null mean") == len(checked) - len(columns) == 9


# ---------------------------------------------------------------------------
# The writers against the per-value versions they replaced, kept here as references.


def reference_json(value, indent=0):
    """The recursive JSON writer: one json.dumps per scalar and key."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, float):
        return _float_text(value)
    if value is None or isinstance(value, (bool, int, str)):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(inner + reference_json(v, indent + 1) for v in value)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k), ensure_ascii=False)}: {reference_json(v, indent + 1)}"
            for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot render {type(value).__name__} as JSON")


def reference_tsv(header, rows):
    """The TSV writer with one _cell call per cell."""
    lines = ["\t".join(header)]
    lines += ["\t".join(_cell(value) for value in row) for row in rows]
    return "\n".join(lines) + "\n"


def reference_markdown_table(header, rows):
    """The markdown table writer with one _cell call per cell."""
    lines = ["| " + " | ".join(header) + " |", "|" + " --- |" * len(header)]
    lines += [
        "| " + " | ".join(_cell(value, ".6g", _MD_ESCAPES) for value in row) + " |" for row in rows
    ]
    return "\n".join(lines)


class Pair(NamedTuple):
    first: object
    second: object


class Text(str):
    pass


class Number(float):
    pass


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 1 << 70


# Text that mixes what JSON, TSV and markdown each escape with plain and non-ASCII characters.
odd_text = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\|\t\r\n\x00\x1b\x7f\x85\u2028\udc80,é€😀 a'), st.characters()
    ),
    max_size=6,
)
edge_floats = st.sampled_from(
    [-0.0, 0.0, 1.0, -3.0, 1e16, 1e-7, 5e-324, 1.7976931348623157e308]
    + [math.nan, math.inf, -math.inf]
)
scalars = st.one_of(
    odd_text,
    odd_text.map(Text),
    st.floats(),
    edge_floats,
    edge_floats.map(Number),
    st.integers(),
    st.sampled_from(Level),
    st.booleans(),
    st.none(),
)
json_keys = st.one_of(odd_text, odd_text.map(Text), st.integers())
json_values = st.recursive(
    st.one_of(scalars, st.just(b"bytes")),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(json_keys, children, max_size=4),
        st.builds(Pair, children, children),
    ),
    max_leaves=24,
)


def same_outcome(write, reference, *args):
    """write(*args) returns what reference(*args) returns, or raises the same error."""
    try:
        expected = reference(*args)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)) as caught:
            write(*args)
        assert str(caught.value) == str(exc)
    else:
        assert write(*args) == expected


@given(value=json_values)
@example(
    value={
        "text": ['"\\|\t\r\n\x00\udc80é😀', Text("sub\n")],
        Text("key\""): Pair(-0.0, [1e16, 5e-324, 1.7976931348623157e308, Number(2.0)]),
        7: (Level.HIGH, True, None, 0, [], {}, ()),
    },
)
@example(value=[1.5, {"a": [math.inf]}, math.nan])
@example(value={"a": [object()]})
def test_json_writer_matches_the_recursive_writer(value):
    same_outcome(to_json_text, reference_json, value)


cells = st.one_of(odd_text, scalars, st.lists(odd_text, max_size=3).map(tuple))


def reference_tsv_blocks(header, blocks):
    """reference_tsv over each block's rows: its lead, then one cell of each
    column. The columns are taken to be of one length."""
    rows = [[*lead, *row] for lead, columns in blocks for row in zip(*columns)]
    return reference_tsv(header, rows)


def one_row_blocks(rows):
    """Each row as a block of its own: no lead, and one cell in each column."""
    return [((), [[cell] for cell in row]) for row in rows]


# A column holds cells of any kind, or only floats or only texts, which the
# writer renders in one pass each.
column_kinds = st.sampled_from([cells, st.floats(), edge_floats, odd_text, st.sampled_from("ab|")])


@st.composite
def tsv_blocks(draw):
    blocks = []
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.integers(0, 4))
        kinds = draw(st.lists(column_kinds, max_size=4))
        columns = [draw(st.lists(kind, min_size=n, max_size=n)) for kind in kinds]
        blocks.append((draw(st.lists(cells, max_size=3)), columns))
    return blocks


TEXT_ROWS = [["x\\y", "a|b", "t\tu", "c\rd", "\x85", "é😀", ""], [Text("s|"), Level.LOW]]
NUMBER_ROWS = [[-0.0, 1e16, 5e-324, math.nan, -math.inf, Number(0.1), 3, None, ("a,b", "c|d")]]


# TSV is written a block of columns at a time, so its tables are drawn as
# blocks; markdown is written a row at a time, from rows of any length.
@given(rows=st.lists(st.lists(cells, max_size=5), max_size=4), blocks=tsv_blocks())
@example(rows=TEXT_ROWS, blocks=one_row_blocks(TEXT_ROWS))
@example(rows=NUMBER_ROWS, blocks=one_row_blocks(NUMBER_ROWS))
@example(rows=[], blocks=[(["x\\y", 1.5], [["a", "b"], [None, 2.0]]), (("lead",), [])])
def test_table_writers_match_the_per_cell_writers(rows, blocks):
    header = ("a", "b")
    same_outcome(tsv_text, reference_tsv_blocks, header, blocks)
    same_outcome(markdown_table, reference_markdown_table, header, rows)


@pytest.mark.parametrize(
    "column",
    [
        [-0.0, 5e-324, 1e16, 0.1, math.nan, math.inf, -math.inf],
        [Number(-0.0), Number(1e16), Number(math.nan)],
        ["x\\y", "a"],
        ["a", "t\tu"],
        ["\x85", "b"],
        ["a|b", "c"],
        ["", "plain"],
        [None, 3, ("a,b", "c|d")],
        [1.5, "text", Level.HIGH, Text("s\n"), True],
    ],
    ids=[
        "floats", "float-subclass", "backslash", "tab", "nel", "pipe", "plain-text", "mixed",
        "floats-and-more",
    ],
)
def test_each_tsv_column_kind_renders_as_its_cells(column):
    lead = ("section", "", "x|\\")
    blocks = [(lead, [column, ["field"] * len(column)]), ((), [column])]
    assert tsv_text(("h",), blocks) == reference_tsv_blocks(("h",), blocks)


def test_tsv_columns_of_unequal_length_raise():
    with pytest.raises(ValueError):
        tsv_text(("h",), [((), [[1.0, 2.0], [1.0]])])
    with pytest.raises(ValueError):
        tsv_text(("h",), [(("lead",), [["a"], ["b", "c"]])])


def test_a_block_without_rows_writes_nothing():
    assert tsv_text(("a", "b"), [(("lead",), [[], []]), (("lead",), []), ((), [])]) == "a\tb\n"


# ---------------------------------------------------------------------------
# The JSON writer and reader that the report types derive from their fields,
# against the hand-written per-type ones they replaced, kept here as references.

REF_RESULT_FIELDS = TTestResult._fields
REF_ONE_SAMPLE_KEYS = ("engine", "measure", "status", "detail", *REF_RESULT_FIELDS)
REF_PAIRED_KEYS = ("engine_b", *REF_ONE_SAMPLE_KEYS)
REF_KINDS = {
    "text": (lambda v: isinstance(v, str), "a string"),
    "count": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "number": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number"),
    "ids": (
        lambda v: isinstance(v, list) and all(isinstance(i, str) for i in v),
        "a list of strings",
    ),
    "rows": (lambda v: isinstance(v, list), "a list"),
}
REF_ANNOTATED = {
    str: "text",
    int: "count",
    float: "number",
    Optional[float]: "number?",
    tuple[str, ...]: "ids",
}


def ref_result_values(entry):
    return [getattr(entry.result, name) if entry.result else None for name in REF_RESULT_FIELDS]


def ref_test_dict(entry):
    out = {"engine": entry.engine}
    if entry.engine_b is not None:
        out["engine_b"] = entry.engine_b
    out.update(measure=entry.measure, status=entry.status, detail=entry.detail)
    out.update(zip(REF_RESULT_FIELDS, ref_result_values(entry)))
    return out


def ref_as_dict(part):
    return {name: getattr(part, name) for name in part._fields}


def reference_to_dict(rep):
    """The hand-written to_dict of each report type."""
    if isinstance(rep, ComparisonReport):
        return {
            "mode": rep.mode,
            "config": {**ref_as_dict(rep.config), "measures": list(rep.config.measures)},
            "engines": list(rep.engines),
            "n_queries": rep.n_queries,
            "warnings": list(rep.warnings),
            "bias_summaries": [
                {
                    "engine": s.engine,
                    "measure": s.measure,
                    "mb": s.mb,
                    "mab": s.mab,
                    "per_query": [
                        {"query_id": rec.query_id, "beta": rec.beta} for rec in s.per_query
                    ],
                }
                for s in rep.bias_summaries
            ],
            "one_sample_tests": [ref_test_dict(e) for e in rep.one_sample_tests],
            "paired_tests": [ref_test_dict(e) for e in rep.paired_tests],
        }
    if isinstance(rep, BaselineReport):
        return {
            "mode": rep.mode,
            "config": {"baseline": rep.baseline, "step": rep.step, "g1": rep.g1},
            "engines": list(rep.engines),
            "scores": [vars(row) for row in rep.scores],
            "summary": list(rep.summary()),
        }
    return ref_as_dict(rep)


def ref_leaf(data, key, kind):
    value = data[key]
    nullable = kind.endswith("?")
    if value is None and nullable:
        return None
    check, what = REF_KINDS[kind.rstrip("?")]
    if not check(value):
        raise TypeError(f"field {key!r} must be {what}{' or null' if nullable else ''}")
    return tuple(value) if kind == "ids" else value


def ref_known(data, keys):
    if not isinstance(data, dict):
        raise TypeError(f"expected an object, not {type(data).__name__}")
    unknown = [key for key in data if key not in keys]
    if unknown:
        raise TypeError(f"unexpected field {unknown[0]!r}")
    return data


@functools.cache
def ref_field_kinds(cls):
    return {name: REF_ANNOTATED[hint] for name, hint in typing.get_type_hints(cls).items()}


def ref_fields(cls, data, exact=True):
    kinds = ref_field_kinds(cls)
    if exact:
        ref_known(data, kinds)
    return {name: ref_leaf(data, name, kind) for name, kind in kinds.items()}


def ref_bias_summary(data):
    ref_known(data, ("engine", "measure", "mb", "mab", "per_query"))
    measure = ref_leaf(data, "measure", "text")
    rows = ref_leaf(data, "per_query", "rows")
    per_query = [BiasRecord(**ref_fields(BiasRecord, row)) for row in rows]
    mb, mab = ref_leaf(data, "mb", "number"), ref_leaf(data, "mab", "number")
    return summary_of(ref_leaf(data, "engine", "text"), measure, mb, mab, per_query)


def ref_test_entry(data, paired):
    ref_known(data, REF_PAIRED_KEYS if paired else REF_ONE_SAMPLE_KEYS)
    result = None
    if any(data[name] is not None for name in REF_RESULT_FIELDS):
        result = TTestResult(**ref_fields(TTestResult, data, exact=False))
    return Entry(
        engine=ref_leaf(data, "engine", "text"),
        engine_b=ref_leaf(data, "engine_b", "text") if paired else None,
        measure=ref_leaf(data, "measure", "text"),
        status=ref_leaf(data, "status", "text"),
        detail=ref_leaf(data, "detail", "text"),
        result=result,
    )


def ref_comparison(data):
    ref_known(
        data,
        (
            "mode", "config", "engines", "n_queries", "warnings", "bias_summaries",
            "one_sample_tests", "paired_tests",
        ),
    )
    return ComparisonReport(
        ref_leaf(data, "mode", "text"),
        ReportConfig(**ref_fields(ReportConfig, data["config"])),
        ref_leaf(data, "engines", "ids"),
        ref_leaf(data, "n_queries", "count"),
        ref_leaf(data, "warnings", "ids"),
        tuple(map(ref_bias_summary, ref_leaf(data, "bias_summaries", "rows"))),
        tuple(ref_test_entry(row, False) for row in ref_leaf(data, "one_sample_tests", "rows")),
        tuple(ref_test_entry(row, True) for row in ref_leaf(data, "paired_tests", "rows")),
    )


def ref_baselines(data):
    ref_known(data, ("mode", "config", "engines", "scores", "summary"))
    cfg = ref_known(data["config"], ("baseline", "step", "g1"))
    rows = ref_leaf(data, "scores", "rows")
    scores = tuple(BaselineScore(**ref_fields(BaselineScore, row)) for row in rows)
    return BaselineReport(
        ref_leaf(data, "mode", "text"),
        ref_leaf(cfg, "baseline", "text"),
        ref_leaf(cfg, "step", "count"),
        ref_leaf(cfg, "g1", "text"),
        ref_leaf(data, "engines", "ids"),
        scores,
    )


def ref_no_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def reference_from_json(text):
    """The hand-written from_dict of each report type, behind the same dispatch."""
    try:
        data = json.loads(text, parse_constant=ref_no_constant)
        keys = data if isinstance(data, dict) else ()
        if "bias_summaries" in keys:
            return ref_comparison(data)
        if "scores" in keys:
            return ref_baselines(data)
        return DatasetReport(**ref_fields(DatasetReport, data))
    except (LookupError, TypeError, ValueError, RecursionError) as exc:
        raise InputError(f"not a serpbias report: {type(exc).__name__}: {exc}") from None


# Ids holding what the JSON, TSV and markdown writers each escape, and non-ASCII text.
id_text = st.sampled_from(["q1", "a,b", "t\tu", "p|q", "n\nl", "é€😀", ""]) | odd_text
finite = st.floats(-1e6, 1e6) | st.sampled_from([-0.0, 5e-324, 1e-7, 0.1])
counts = st.integers(0, 10**6)
records = st.builds(BiasRecord, id_text, finite)


def summary_of(engine, measure, mb, mab, per_query):
    """The BiasSummary whose per_query reads the given records."""
    query_ids = tuple(rec.query_id for rec in per_query)
    return BiasSummary(engine, measure, mb, mab, query_ids, tuple(rec.beta for rec in per_query))


def few(strategy):
    return st.lists(strategy, max_size=2).map(tuple)


def entries(paired):
    """ok entries with a result, reject_at null or set; degenerate and skipped ones without."""
    engine_b = id_text if paired else st.none()
    results = st.builds(TTestResult, finite, counts, finite, finite, finite, st.none() | finite)
    done = st.builds(Entry, id_text, engine_b, id_text, st.just("ok"), st.just(""), results)
    statuses = st.sampled_from(["degenerate_certain", "skipped"])
    return done | st.builds(Entry, id_text, engine_b, id_text, statuses, id_text)


reports = st.one_of(
    st.builds(
        ComparisonReport,
        id_text,
        st.builds(ReportConfig, counts, finite, finite, finite, few(id_text)),
        few(id_text),
        counts,
        few(id_text),
        few(st.builds(summary_of, id_text, id_text, finite, finite, few(records))),
        few(entries(paired=False)),
        few(entries(paired=True)),
    ),
    st.builds(DatasetReport, few(id_text), counts, counts, counts),
    st.builds(
        BaselineReport,
        id_text,
        id_text,
        counts,
        id_text,
        few(id_text),
        few(st.builds(BaselineScore, id_text, id_text, id_text, st.none() | finite, id_text)),
    ),
)


def json_paths(value, path=()):
    """The path to every value inside a parsed JSON value, each before those inside it."""
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield path + (key,), child
            yield from json_paths(child, path + (key,))


WRONG_TYPES = (None, True, 7, 0.5, "x", [], {})


def mutations(text):
    """Each single-key change to a JSON text, as a path and a value for
    with_field: drop a key; give a value one of another JSON type; or add to
    an object, at any level, a key it lacks: "unknown", or one that another
    object holds, with that object's value."""
    data = json.loads(text)
    objects = [((), data)] + [(path, v) for path, v in json_paths(data) if isinstance(v, dict)]
    elsewhere = {"unknown": 1}
    for _, obj in objects:
        elsewhere = {**obj, **elsewhere}
    for path, obj in objects:
        yield from ((path + (key,), value) for key, value in elsewhere.items() if key not in obj)
    for path, value in json_paths(data):
        if isinstance(path[-1], str):
            yield path, DROP
        for wrong in WRONG_TYPES:
            if type(wrong) is not type(value):
                yield path, wrong


def read_outcome(read, text):
    """read(text), or InputError when it raises one."""
    try:
        return read(text)
    except InputError:
        return InputError


ONE_SAMPLE = (
    Entry("a,b", None, "rbp", "ok", "", TTestResult(1.5, 3, 0.25, 0.1, 0.05, None)),
    Entry("é", None, "dcg", "ok", "", TTestResult(-2.0, 9, 0.01, -0.3, 0.1, 0.05)),
    Entry("a", None, "precision", "degenerate_certain", "no variance"),
    Entry("t\tu", None, "rbp", "skipped", "fewer than 2 queries"),
)
# Reports that hold every wire rule: in-line results and all-null ones,
# engine_b in paired tests only, the baselines config and summary, empty lists.
WIRE_CASES = (
    ComparisonReport(
        "stance",
        ReportConfig(10, 0.8, 2.0, 0.05, ("dcg", "rbp")),
        ("a,b", "p|q"),
        2,
        ("n\nl",),
        (BiasSummary("a,b", "rbp", 0.5, 0.5, ("q1", "q|2"), (0.5, -0.0)),),
        ONE_SAMPLE,
        tuple(Entry(e.engine, "p|q", e.measure, e.status, e.detail, e.result) for e in ONE_SAMPLE),
    ),
    ComparisonReport("ideology", ReportConfig(1, 0.5, 10.0, 0.01, ()), (), 0, (), (), (), ()),
    BaselineReport(
        "stance",
        "rrd",
        2,
        "pro",
        ("a", "b"),
        (
            BaselineScore("a", "q1", "ok", 0.25),
            BaselineScore("b", "q\t1", "undefined", None, "no g1 document"),
        ),
    ),
    BaselineReport("ideology", "rnd", 1, "conservative", (), ()),
    DatasetReport(("a", "é"), 3, 6, 60),
    DatasetReport((), 0, 0, 0),
)


def same_json_as_the_reference(rep):
    """rep renders to the reference's bytes and both readers read it back."""
    text = render_report(rep, "json")
    assert text == to_json_text(reference_to_dict(rep)) + "\n"
    assert report_from_json(text) == reference_from_json(text) == rep
    return text


def same_reading(changed):
    expected = read_outcome(reference_from_json, changed)
    assert read_outcome(report_from_json, changed) == expected


@pytest.mark.parametrize("rep", WIRE_CASES, ids=lambda rep: type(rep).__name__)
def test_json_reader_takes_every_mutation_as_the_reference_does(rep):
    text = same_json_as_the_reference(rep)
    for path, value in mutations(text):
        same_reading(with_field(json.loads(text), path, value))


@settings(deadline=None)
@given(rep=reports, data=st.data())
def test_json_wire_format_matches_the_hand_written_writer_and_reader(rep, data):
    text = same_json_as_the_reference(rep)
    changes = data.draw(st.lists(st.sampled_from(list(mutations(text))), max_size=8))
    for path, value in changes:
        same_reading(with_field(json.loads(text), path, value))
