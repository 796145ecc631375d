"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Expected values come from independent oracles written here (direct
summations, brute-force enumeration, published t-distribution critical
values), never from the code under test.
"""

import itertools
import json
import math
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import jsonl, make_list, random_stances, record, run_of
from serpbias import (
    BaselineConfig,
    Dataset,
    EngineRun,
    LeaningLabel,
    MeasureConfig,
    StanceLabel,
    baseline_score,
    bias,
    distance_rnd,
    evaluate,
    mirror,
    normalizer_z,
    one_sample_ttest,
    student_t_sf,
    summarize_run,
)

P, N, A, X = (
    StanceLabel.PRO,
    StanceLabel.NEUTRAL,
    StanceLabel.AGAINST,
    StanceLabel.NOT_RELEVANT,
)

CFG_P5 = MeasureConfig(cutoff=5, measure_kind="precision")
CFG_RBP = MeasureConfig(measure_kind="rbp")
CFG_D5 = MeasureConfig(cutoff=5, measure_kind="dcg")
ALL_DEFAULT_CFGS = (
    MeasureConfig(measure_kind="precision"),
    MeasureConfig(measure_kind="rbp"),
    MeasureConfig(measure_kind="dcg"),
)


def report_pass(number, message):
    print(f"\n[acceptance] criterion {number:02d} PASS: {message}")


# --- independent oracles -----------------------------------------------------


def oracle_beta_precision(stances, n):
    total = 0.0
    for s in stances[:n]:
        if s is P:
            total += 1.0 / n
        elif s is A:
            total -= 1.0 / n
    return total


def oracle_beta_rbp(stances, p):
    total = 0.0
    for i, s in enumerate(stances, start=1):
        if s is P:
            total += (1.0 - p) * p ** (i - 1)
        elif s is A:
            total -= (1.0 - p) * p ** (i - 1)
    return total


def oracle_beta_dcg(stances, n):
    total = 0.0
    for i, s in enumerate(stances[:n], start=1):
        if s is P:
            total += 1.0 / math.log2(i + 1)
        elif s is A:
            total -= 1.0 / math.log2(i + 1)
    return total


def oracle_raw_baseline(member, kind, step):
    """Un-normalized prefix-fairness score, written from scratch."""
    n = len(member)
    q = sum(member) / n
    total = 0.0
    for i in range(step, n + 1, step):
        if i < 2:
            continue
        share = sum(member[:i]) / i
        if kind == "rnd":
            d = abs(share - q)
        else:
            d = 0.0
            for a, b in ((share, q), (1.0 - share, 1.0 - q)):
                if a > 0.0:
                    d += a * math.log2(a / b)
            d = max(d, 0.0)
        total += d / math.log2(i)
    return total


def oracle_brute_force_z(kind, n, k, step):
    best = 0.0
    for positions in itertools.combinations(range(n), k):
        member = [i in positions for i in range(n)]
        best = max(best, oracle_raw_baseline(member, kind, step))
    return best


# --- dataset generators for the desk-scale protocol --------------------------


def counts_to_stances(rng, pro, against, length=10):
    stances = [P] * pro + [A] * against + [N] * (length - pro - against)
    rng.shuffle(stances)
    return stances


def planted_dataset(rng, n_queries=57):
    """Mean slant 0.2 under P@10 with per-query jitter: pro-against in {1,2,3}."""
    lists = {}
    table = {}
    for k in range(n_queries):
        qid = f"q{k:02d}"
        diff = rng.choice((1, 2, 3))
        lists[qid] = counts_to_stances(rng, 3 + diff, 3)
        table[qid] = (f"topic {qid}", LeaningLabel.CONSERVATIVE)
    run = run_of("engine-a", lists)
    return Dataset(runs=(run,), query_table=table)


def zero_bias_dataset(rng, n_queries=57):
    """Per-query slant symmetric around zero: pro-against uniform in -3..3."""
    lists = {}
    table = {}
    for k in range(n_queries):
        qid = f"q{k:02d}"
        diff = rng.choice((-3, -2, -1, 0, 1, 2, 3))
        lists[qid] = counts_to_stances(rng, 3 + max(diff, 0), 3 + max(-diff, 0))
        table[qid] = (f"topic {qid}", LeaningLabel.CONSERVATIVE)
    run = run_of("engine-a", lists)
    return Dataset(runs=(run,), query_table=table)


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    rng = random.Random(31)
    recs = []
    leanings = {f"q{k:02d}": rng.choice(["conservative", "liberal"]) for k in range(8)}
    for engine in ("news-a", "news-b"):
        for qid, leaning in leanings.items():
            stances = rng.choices(["pro", "against", "neutral", "not-relevant"], k=10)
            recs.append(record(engine, qid, stances, leaning=leaning))
    path = tmp_path_factory.mktemp("acceptance") / "serps.jsonl"
    path.write_text(jsonl(recs), encoding="utf-8")
    return str(path)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "serpbias", *args], capture_output=True, text=True
    )


# --- the criteria -------------------------------------------------------------


def test_criterion_01_oracle_equivalence_exhaustive():
    started = time.perf_counter()
    worst = 0.0
    count = 0
    for stances in itertools.product(StanceLabel, repeat=5):
        r = make_list(list(stances))
        worst = max(
            worst,
            abs(bias(r, CFG_P5) - oracle_beta_precision(stances, 5)),
            abs(bias(r, CFG_RBP) - oracle_beta_rbp(stances, 0.8)),
            abs(bias(r, CFG_D5) - oracle_beta_dcg(stances, 5)),
        )
        count += 1
    elapsed = time.perf_counter() - started
    assert count == 4**5 == 1024
    assert worst <= 1e-12
    assert elapsed < 1.0
    report_pass(1, f"1024 sequences, 3 measures, max |diff| {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_antisymmetry_on_random_serps():
    rng = random.Random(20260811)
    worst = 0.0
    for _ in range(1000):
        r = make_list(random_stances(rng, rng.randrange(0, 21)))
        m = mirror(r)
        for cfg in ALL_DEFAULT_CFGS:
            worst = max(worst, abs(bias(m, cfg) + bias(r, cfg)))
    assert worst <= 1e-12
    report_pass(2, f"1000 SERPs, bias(mirror) = -bias, max |sum| {worst:.2e}")


def test_criterion_03_aggregate_laws():
    rng = random.Random(11)
    same_sign_checked = 0
    for trial in range(200):
        single_signed = trial % 4 == 0
        palette = (P, N, X) if single_signed else tuple(StanceLabel)
        queries = {
            f"q{k}": [rng.choice(palette) for _ in range(rng.randrange(0, 16))]
            for k in range(rng.randrange(2, 11))
        }
        run = run_of("engine-a", queries)
        for cfg in ALL_DEFAULT_CFGS:
            summary = summarize_run(run, cfg)
            assert summary.mab >= abs(summary.mb)
            betas = [rec.beta for rec in summary.per_query]
            if all(b >= 0 for b in betas) or all(b <= 0 for b in betas):
                assert summary.mab == pytest.approx(abs(summary.mb), abs=1e-12)
                same_sign_checked += 1
    assert same_sign_checked > 100
    stances = random_stances(random.Random(7), 10)
    pair = EngineRun(
        "engine-a",
        {
            "q1": make_list(stances, engine="engine-a", query="q1"),
            "q2": mirror(make_list(stances, engine="engine-a", query="q2")),
        },
    )
    for cfg in ALL_DEFAULT_CFGS:
        summary = summarize_run(pair, cfg)
        assert summary.mb == 0.0
        assert summary.mab == pytest.approx(abs(bias(pair.lists["q1"], cfg)), abs=1e-12)
    report_pass(3, f"200 runs: MAB >= |MB|; {same_sign_checked} same-sign equalities; mirrored pair MB = 0")


def test_criterion_04_cli_defaults(cli_dataset):
    proc = run_cli("evaluate", "--input", cli_dataset)
    assert proc.returncode == 0
    config = json.loads(proc.stdout)["config"]
    assert config["cutoff"] == 10
    assert config["persistence"] == 0.8
    report_pass(4, "flagless evaluate reports cutoff=10, persistence=0.8")


def test_criterion_05_first_rank_distance_is_half():
    checked = 0
    for pro_positions in itertools.combinations(range(10), 5):
        stances = [P if i in pro_positions else A for i in range(10)]
        assert distance_rnd(make_list(stances), P, 1) == 0.5
        checked += 1
    assert checked == 252
    report_pass(5, "all 252 balanced 10-doc lists: rND distance at rank 1 is exactly 0.5")


def test_criterion_06_rkl_mirror_blindness():
    rng = random.Random(66)
    cfg = BaselineConfig(step=1, kind="rkl")
    worst = 0.0
    for _ in range(500):
        n = rng.choice(range(4, 21, 2))
        stances = [P] * (n // 2) + [A] * (n // 2)
        rng.shuffle(stances)
        r = make_list(stances)
        gap = abs(baseline_score(r, P, cfg) - baseline_score(mirror(r), P, cfg))
        worst = max(worst, gap)
    assert worst <= 1e-12
    report_pass(6, f"500 balanced lists: rKL(r) = rKL(mirror), max gap {worst:.2e}")


def test_criterion_07_normalizer_matches_brute_force():
    started = time.perf_counter()
    checked = 0
    for kind in ("rnd", "rkl"):
        for n in range(1, 9):
            for k in range(0, n + 1):
                for step in (1, 2, 5):
                    expected = oracle_brute_force_z(kind, n, k, step)
                    assert normalizer_z(kind, n, k, step) == pytest.approx(
                        expected, abs=1e-12
                    )
                    checked += 1
    assert normalizer_z("rnd", 0, 0, 1) == 0.0
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report_pass(7, f"{checked} (kind, n, k, step) cells match brute-force max, {elapsed:.2f}s")


def test_criterion_08_ttest_calibration():
    assert student_t_sf(4.303, 2) == pytest.approx(0.05, abs=5e-4)
    assert student_t_sf(2.776, 4) == pytest.approx(0.05, abs=5e-4)
    rng = np.random.default_rng(20260811)
    samples = rng.normal(0.0, 1.0, size=(10_000, 57))
    rejections = sum(1 for row in samples if one_sample_ttest(row).p_value < 0.05)
    rate = rejections / 10_000
    assert rate == pytest.approx(0.05, abs=0.01)
    report_pass(8, f"table p-values within 5e-4; null rejection rate {rate:.4f}")


def test_criterion_09_desk_scale_protocol():
    started = time.perf_counter()
    rng = random.Random(20260811)
    planted = planted_dataset(rng)
    rep = evaluate(planted, measures=("precision",))
    mb = rep.bias_summaries[0].mb
    entry = rep.one_sample_tests[0]
    betas = [rec.beta for rec in rep.bias_summaries[0].per_query]
    assert len(set(betas)) > 1  # jitter gives nonzero variance
    assert mb == pytest.approx(0.2, abs=0.05)
    assert entry.status == "ok"
    assert entry.result.p_value < 0.01

    rejections = 0
    for _ in range(1000):
        control = zero_bias_dataset(rng)
        control_rep = evaluate(control, measures=("precision",))
        control_entry = control_rep.one_sample_tests[0]
        assert control_entry.status == "ok"
        if control_entry.result.p_value < 0.05:
            rejections += 1
    rate = rejections / 1000
    elapsed = time.perf_counter() - started
    assert rate == pytest.approx(0.05, abs=0.02)
    assert elapsed < 30.0
    report_pass(
        9,
        f"planted MB={mb:.4f} (target 0.2 +/- 0.05), p={entry.result.p_value:.2e} < 0.01; "
        f"control rejection rate {rate:.3f}; {elapsed:.1f}s",
    )


def test_criterion_10_cli_determinism(cli_dataset):
    first = run_cli("evaluate", "--input", cli_dataset)
    second = run_cli("evaluate", "--input", cli_dataset)
    assert first.returncode == second.returncode == 0
    assert first.stdout.encode() == second.stdout.encode()
    assert json.loads(first.stdout)["bias_summaries"]
    report_pass(10, "two evaluate invocations produced byte-identical JSON")
