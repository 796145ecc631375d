"""Tests of the benchmark itself: generator, oracle, tally and tracer.

Run from the repository root with

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter

import pytest

from perfbench import oracle
from perfbench.generate import Shape, generate
from perfbench.run import LAYER_UNITS, SRC, Tally, cli, spawn
from perfbench.workloads import WORKLOADS

SMALL = {
    "evaluate-long-stance": Shape(engines=3, queries=15, list_len=30),
    "evaluate-wide-ideology": Shape(engines=6, queries=20, list_len=8),
    "baselines-long-rkl": Shape(engines=3, queries=40, list_len=30),
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_generator_same_seed_same_bytes(tmp_path):
    shape = Shape(engines=3, queries=20, list_len=12)
    a, b, c = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "c.jsonl"
    gen_a = generate(shape, 7, str(a))
    gen_b = generate(shape, 7, str(b))
    generate(shape, 8, str(c))
    assert _digest(a) == _digest(b)
    assert gen_a == gen_b
    assert _digest(a) != _digest(c)


def test_generator_records_match_the_file(tmp_path):
    path = tmp_path / "d.jsonl"
    shape = Shape(engines=4, queries=200, list_len=10)
    gen = generate(shape, 3, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(gen.records) == shape.engines * shape.queries
    codes = {"pro": "p", "against": "a", "neutral": "n", "not-relevant": "r"}
    for line, rec in zip(lines, gen.records):
        obj = json.loads(line)
        assert (obj["engine"], obj["query_id"], obj["leaning"]) == (
            rec.engine, rec.query_id, rec.leaning,
        )
        assert [d["rank"] for d in obj["docs"]] == list(range(1, shape.list_len + 1))
        assert "".join(codes[d["stance"]] for d in obj["docs"]) == rec.stances
    leanings = Counter(rec.leaning for rec in gen.records[:: shape.engines])
    assert 0.3 < leanings["conservative"] / shape.queries < 0.5
    assert 0.1 < leanings["both_or_neither"] / shape.queries < 0.3
    assert 0.0 < gen.shared_doc_share <= 1.0
    # Each engine's stance tilt gives it its own mean slant.
    exp = oracle.expected_evaluate(gen.records, "stance")
    mbs = [exp[("summary", e, "", "precision", "", "mb")] for e in {r.engine for r in gen.records}]
    assert len(set(mbs)) == shape.engines


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Each workload's expected values and its CLI output on a small dataset."""
    work = tmp_path_factory.mktemp("outputs")
    result = {}
    for name, shape in SMALL.items():
        workload = WORKLOADS[name]
        path = str(work / f"{name}.jsonl")
        gen = generate(shape, 5, path)
        inv = spawn(cli(workload.argv(path)), work / "stderr.txt")
        assert inv.exit_code == 0, (work / "stderr.txt").read_text()
        result[name] = (workload, workload.expected(gen.records), inv.stdout.decode("utf-8"), path)
    return result


@pytest.mark.parametrize("name", sorted(SMALL))
def test_oracle_agrees_with_the_cli(outputs, name):
    workload, expected, text, _ = outputs[name]
    assert workload.check(expected, text) == []


def test_oracle_covers_undefined_rkl_scores(tmp_path):
    # A list without pro documents has no defined rKL score.
    gen = generate(Shape(engines=2, queries=3, list_len=5), 1, str(tmp_path / "u.jsonl"))
    rec = gen.records[0]
    no_pro = type(rec)(rec.engine, rec.query_id, rec.leaning, "aanrr")
    exp = oracle.expected_baselines_rkl((no_pro, *gen.records[1:]), step=1)
    assert exp[("score", rec.engine, "", "", rec.query_id, "status")] == "undefined"
    assert exp[("baseline_summary", rec.engine, "", "", "", "undefined")] >= 1


_NUMBER_AT = {
    "evaluate-long-stance": r'"beta": (-?\d+\.\d+)\n',
    "evaluate-wide-ideology": r"\tbeta\t(-?\d+\.\d+)\n",
    "baselines-long-rkl": r"\| ok \| (\d\.\d+) \|\n",
}


def _perturb_last_digit(text: str, pattern: str) -> str:
    match = re.search(pattern, text)
    assert match, pattern
    end = match.end(1)
    digit = str((int(text[end - 1]) + 1) % 10)
    return text[: end - 1] + digit + text[end:]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_perturbed_report_is_a_failure(outputs, name):
    workload, expected, text, _ = outputs[name]
    perturbed = _perturb_last_digit(text, _NUMBER_AT[name])
    assert perturbed != text
    assert workload.check(expected, perturbed)

    tally = Tally(lambda out: workload.check(expected, out))
    assert tally.record(0, text.encode())
    assert not tally.record(0, perturbed.encode())
    assert tally.failed / tally.attempted > 0  # failed_share


def test_perturbed_first_output_fails_every_matching_invocation(outputs):
    workload, expected, text, _ = outputs["evaluate-long-stance"]
    perturbed = _perturb_last_digit(text, _NUMBER_AT["evaluate-long-stance"])
    tally = Tally(lambda out: workload.check(expected, out))
    tally.record(0, perturbed.encode())
    tally.record(0, perturbed.encode())
    tally.record(0, text.encode())
    assert (tally.attempted, tally.failed) == (3, 3)


def test_non_zero_exit_is_a_failure():
    tally = Tally(lambda out: [])
    tally.record(0, b"report\n")
    tally.record(1, b"")
    assert (tally.attempted, tally.failed) == (2, 1)


def test_traced_pass_reports_every_layer_and_bypasses(outputs):
    from perfbench.trace import import_serpbias, traced_pass

    sb = import_serpbias(SRC)
    figures = {}
    for name, (workload, expected, text, path) in outputs.items():
        layers, traced_text, code = traced_pass(sb, path, workload.argv(path))
        assert code == 0
        assert traced_text == text
        expected_names = set(LAYER_UNITS) - {
            "dataset.shared_doc_share", "trace.untraced_wall_s", "trace.overhead_s",
        }
        assert set(layers) == expected_names
        figures[name] = layers
    for name in ("evaluate-long-stance", "evaluate-wide-ideology"):
        assert figures[name]["fairness.baseline_s"] == 0.0
        assert figures[name]["fairness.lists"] == 0
        assert figures[name]["report.evaluate_s"] > 0.0
    for name in ("evaluate-long-stance", "baselines-long-rkl"):
        assert figures[name]["model.relabel_s"] == 0.0
    wide = figures["evaluate-wide-ideology"]
    assert wide["model.relabel_s"] > 0.0
    assert wide["stats.tests"] == 6 * 3 + 15 * 3
    assert wide["bias.lists_scored"] == 6 * 20 * 3
    rkl = figures["baselines-long-rkl"]
    assert rkl["fairness.lists"] == 3 * 40
    assert rkl["report.evaluate_s"] == 0.0
    assert 0.0 < rkl["fairness.normalizer_s"] < rkl["fairness.baseline_s"]


def test_benchmark_json_matches_the_code():
    from perfbench.run import E2E_UNITS, ROOT

    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
