"""Evaluation protocol assembly and report rendering."""

import enum
import io
import json
import math
import random
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import jsonl, record
from serpbias import cli
from serpbias import (
    BaselineReport,
    BaselineScore,
    ComparisonReport,
    ConfigError,
    InputError,
    MeasureConfig,
    ReportConfig,
    evaluate,
    load_dataset,
    parse_dataset,
    render_report,
    report_from_json,
)
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
    assert rep.paired
    for entry in rep.paired:
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
    for summary in rep.summaries:
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
    summary = rep.summaries[0]
    assert summary.mb == pytest.approx(0.2, abs=1e-15)
    assert summary.mab == pytest.approx(0.2, abs=1e-15)
    entry = rep.one_sample[0]
    assert entry.status == "degenerate_certain"
    assert entry.result is None
    assert "no variance" in entry.detail


def test_single_query_skips_statistics():
    recs = [record("engine-a", "q1", ["pro"] * 10)]
    rep = evaluate(dataset_from(recs))
    assert rep.warnings == ("fewer than 2 queries: statistical tests skipped",)
    for entry in rep.one_sample:
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
    betas = {rec.query_id: rec.beta for rec in rep.summaries[0].per_query}
    assert betas["q1"] == 1.0
    assert betas["q2"] == -1.0
    assert betas["q3"] == 0.0


def test_stance_mode_ignores_leaning():
    recs = [
        record("engine-a", "q1", ["pro"] * 10, leaning="liberal"),
        record("engine-a", "q2", ["pro"] * 10, leaning="both_or_neither"),
    ]
    rep = evaluate(dataset_from(recs), measures=("precision",))
    assert all(rec.beta == 1.0 for rec in rep.summaries[0].per_query)


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


VALIDATE_JSON = (GOLDEN / "validate.json.out").read_text(encoding="utf-8")


def edited(name, *path_and_value):
    """The golden JSON output `name` with the field at path set to value,
    which adds the field where there is none."""
    *path, last, value = path_and_value
    data = json.loads((GOLDEN / f"{name}.json.out").read_text(encoding="utf-8"))
    target = data
    for key in path:
        target = target[key]
    target[last] = value
    return json.dumps(data)


@pytest.mark.parametrize(
    "text, field",
    [
        ("[]", ""),
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
    ],
    ids=[
        "list", "empty-object", "no-config", "not-json", "deep-nesting", "extra-key",
        "validate-text-fields", "validate-null-count", "evaluate-text-persistence",
        "evaluate-bool-beta", "evaluate-float-df", "evaluate-null-status",
        "baselines-bool-step", "baselines-text-score", "baselines-int-engine",
        "evaluate-extra-key", "evaluate-config-extra-key", "evaluate-summary-extra-key",
        "evaluate-beta-extra-key", "evaluate-one-sample-extra-key",
        "evaluate-one-sample-engine-b", "evaluate-paired-extra-key", "compare-extra-key",
        "baselines-extra-key", "baselines-config-extra-key", "baselines-score-extra-key",
        "evaluate-beta-not-object",
    ],
)
def test_report_from_json_rejects_what_is_not_a_report(text, field):
    with pytest.raises(InputError, match="^not a serpbias report: ") as caught:
        report_from_json(text)
    assert field in str(caught.value)


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


def test_rendering_is_deterministic():
    rep = evaluate(two_engine_dataset())
    again = evaluate(two_engine_dataset())
    for fmt in ("json", "tsv", "markdown"):
        assert render_report(rep, fmt) == render_report(again, fmt)


def test_engine_input_order_is_irrelevant():
    rng = random.Random(10)
    recs = []
    for qid in ("q1", "q2", "q3"):
        for engine in ("engine-a", "engine-b"):
            recs.append(record(engine, qid, rng.choices(["pro", "against", "neutral"], k=8)))
    forward = evaluate(dataset_from(recs))
    backward = evaluate(dataset_from(list(reversed(recs))))
    assert render_report(forward, "json") == render_report(backward, "json")


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
    for summary in rep.summaries:
        qids = [rec.query_id for rec in summary.per_query]
        assert qids == sorted(qids)


def test_empty_report_renders_in_every_format():
    empty = ComparisonReport(
        mode="stance",
        config=ReportConfig(10, 0.8, 2.0, 0.05, ()),
        engines=(),
        n_queries=0,
        warnings=(),
        summaries=(),
        one_sample=(),
        paired=(),
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


def test_unknown_render_format():
    rep = evaluate(two_engine_dataset())
    with pytest.raises(ConfigError, match="unknown output format"):
        render_report(rep, "yaml")


def test_report_references_each_pair_once():
    rep = evaluate(two_engine_dataset())
    one_sample_keys = [(e.engine, e.measure_kind) for e in rep.one_sample]
    assert len(one_sample_keys) == len(set(one_sample_keys)) == 6
    paired_keys = [(e.engine, e.engine_b, e.measure_kind) for e in rep.paired]
    assert len(paired_keys) == len(set(paired_keys)) == 3
    summary_keys = [(s.engine_id, s.measure_kind) for s in rep.summaries]
    assert len(summary_keys) == len(set(summary_keys)) == 6


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


@given(value=json_values, indent=st.integers(0, 3))
@example(
    value={
        "text": ['"\\|\t\r\n\x00\udc80é😀', Text("sub\n")],
        Text("key\""): Pair(-0.0, [1e16, 5e-324, 1.7976931348623157e308, Number(2.0)]),
        7: (Level.HIGH, True, None, 0, [], {}, ()),
    },
    indent=1,
)
@example(value=[1.5, {"a": [math.inf]}, math.nan], indent=0)
@example(value={"a": [object()]}, indent=0)
def test_json_writer_matches_the_recursive_writer(value, indent):
    same_outcome(to_json_text, reference_json, value, indent)


cells = st.one_of(odd_text, scalars, st.lists(odd_text, max_size=3).map(tuple))


@given(rows=st.lists(st.lists(cells, max_size=5), max_size=4))
@example(rows=[["x\\y", "a|b", "t\tu", "c\rd", "\x85", "é😀", ""], [Text("s|"), Level.LOW]])
@example(rows=[[-0.0, 1e16, 5e-324, math.nan, -math.inf, Number(0.1), 3, None, ("a,b", "c|d")]])
def test_table_writers_match_the_per_cell_writers(rows):
    header = ("a", "b")
    same_outcome(tsv_text, reference_tsv, header, rows)
    same_outcome(markdown_table, reference_markdown_table, header, rows)
