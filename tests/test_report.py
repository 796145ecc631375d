"""Evaluation protocol assembly and report rendering."""

import io
import json
import random
from pathlib import Path

import pytest

from conftest import jsonl, record
from serpbias import cli
from serpbias import (
    BaselineReport,
    BaselineScore,
    ComparisonReport,
    ConfigError,
    MeasureConfig,
    ReportConfig,
    evaluate,
    load_dataset,
    parse_dataset,
    render_report,
    report_from_json,
)
from serpbias.report import resolve_measures
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
