"""Expected CLI outputs, recomputed from the generated records.

Nothing here imports serpbias. The values follow the paper's definitions:

- slant beta = U(positive side) - U(negative side), with sides pro/against
  in stance mode and conservative/liberal in ideology mode, where a pro
  document on a conservative topic is conservative, on a liberal topic
  liberal, and documents of both_or_neither topics count for neither side;
- P@n = matches in the top n / n; RBP = (1 - p) * sum of p^(i-1) over
  matching ranks i; DCG@n = sum of 1 / log_b(i + 1) over matching ranks i <= n;
- MB = mean beta, MAB = mean |beta| per (engine, measure);
- one-sample t = mean / (s / sqrt(n)) against 0, paired t = the same on the
  per-query differences, df = n - 1;
- rKL at step k = sum over evaluation points i of KL(prefix share, list
  share) / log2(i), normalised by the larger score of the two extremal
  arrangements (group first, group last); a list whose normaliser is 0
  has no defined score.

Each value is computed in the same order of floating-point operations as
the documented formula, so the comparison is exact: an output number is
accepted only when its text is one of the canonical renderings of the
expected float, and a change in the last rendered digit is caught.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import defaultdict

MEASURES = ("dcg", "precision", "rbp")
CUTOFF = 10
PERSISTENCE = 0.8
LOG_BASE = 2.0
ALPHA = 0.05

_STANCE_SIDE = {"p": 1, "a": -1}
_IDEOLOGY_SIDE = {
    "conservative": {"p": 1, "a": -1},
    "liberal": {"p": -1, "a": 1},
    "both_or_neither": {},
}

# Key of one checked value: (section, engine, engine_b, measure, query_id, field).
Key = tuple


def sides(stances: str, leaning: str, mode: str) -> list[int]:
    """+1, -1 or 0 per rank for the positive side, negative side or neither."""
    table = _STANCE_SIDE if mode == "stance" else _IDEOLOGY_SIDE[leaning]
    return [table.get(s, 0) for s in stances]


def _utility(kind: str, ranks: list[int]) -> float:
    # ranks are the 1-based ranks of one side's documents.
    if kind == "precision":
        return sum(1 for i in ranks if i <= CUTOFF) / CUTOFF
    if kind == "rbp":
        return (1.0 - PERSISTENCE) * math.fsum(PERSISTENCE ** (i - 1) for i in ranks)
    return math.fsum(1.0 / math.log(i + 1, LOG_BASE) for i in ranks if i <= CUTOFF)


def beta(kind: str, side: list[int]) -> float:
    positive = [i for i, s in enumerate(side, start=1) if s == 1]
    negative = [i for i, s in enumerate(side, start=1) if s == -1]
    return _utility(kind, positive) - _utility(kind, negative)


def ttest(values: list[float]) -> dict:
    """The checked fields of a two-tailed t-test against 0."""
    n = len(values)
    if all(v == values[0] for v in values):
        if values[0] == 0.0:
            return {"status": "ok", "t_stat": 0.0, "df": n - 1, "sample_mean": values[0],
                    "std_err": 0.0}
        return {"status": "degenerate_certain"}
    mean = math.fsum(values) / n
    variance = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    if variance == 0.0:
        return {"status": "degenerate_certain"}
    std_err = math.sqrt(variance / n)
    return {"status": "ok", "t_stat": mean / std_err, "df": n - 1, "sample_mean": mean,
            "std_err": std_err}


def _by_engine(records) -> dict[str, dict[str, object]]:
    out: dict[str, dict[str, object]] = defaultdict(dict)
    for rec in records:
        out[rec.engine][rec.query_id] = rec
    return {e: dict(sorted(lists.items())) for e, lists in sorted(out.items())}


def expected_evaluate(records, mode: str) -> dict[Key, object]:
    """Every checked value of an `evaluate` report with default flags."""
    runs = _by_engine(records)
    engines = list(runs)
    n_queries = len(next(iter(runs.values())))
    config = {
        "mode": mode, "cutoff": CUTOFF, "persistence": PERSISTENCE, "log_base": LOG_BASE,
        "alpha": ALPHA, "measures": ",".join(MEASURES), "engines": ",".join(engines),
        "n_queries": n_queries,
    }
    exp: dict[Key, object] = {("config", "", "", "", "", k): v for k, v in config.items()}
    betas: dict[tuple[str, str], list[float]] = {}
    for engine, lists in runs.items():
        side_of = {q: sides(r.stances, r.leaning, mode) for q, r in lists.items()}
        for kind in MEASURES:
            values = []
            for query_id, side in side_of.items():
                b = beta(kind, side)
                values.append(b)
                exp[("beta", engine, "", kind, query_id, "beta")] = b
            betas[(engine, kind)] = values
            n = len(values)
            exp[("summary", engine, "", kind, "", "mb")] = math.fsum(values) / n
            exp[("summary", engine, "", kind, "", "mab")] = math.fsum(abs(v) for v in values) / n
    for engine in engines:
        for kind in MEASURES:
            for field, value in ttest(betas[(engine, kind)]).items():
                exp[("one_sample", engine, "", kind, "", field)] = value
    for i, a in enumerate(engines):
        for b in engines[i + 1 :]:
            for kind in MEASURES:
                diffs = [x - y for x, y in zip(betas[(a, kind)], betas[(b, kind)])]
                for field, value in ttest(diffs).items():
                    exp[("paired", a, b, kind, "", field)] = value
    return exp


def _d_rkl(p: float, q: float) -> float:
    total = 0.0
    for a, b in ((p, q), (1.0 - p, 1.0 - q)):
        if a == 0.0:
            continue
        if b == 0.0:
            raise ArithmeticError("KL distance diverges")
        total += a * math.log2(a / b)
    return max(total, 0.0)


def _rkl_raw(member: list[bool], step: int) -> float:
    q = sum(member) / len(member)
    prefix = list(itertools.accumulate(member))
    return math.fsum(
        _d_rkl(prefix[i - 1] / i, q) / math.log2(i)
        for i in range(step, len(member) + 1, step)
        if i > 1
    )


def rkl_score(member: list[bool], step: int, z_cache: dict) -> float | None:
    """Normalised rKL score of one list, or None where it is undefined."""
    n = len(member)
    if n < step:
        return None
    try:
        raw = _rkl_raw(member, step)
    except ArithmeticError:
        return None
    key = (n, sum(member))
    if key not in z_cache:
        first = [True] * key[1] + [False] * (n - key[1])
        best = 0.0
        for arrangement in (first, first[::-1]):
            try:
                best = max(best, _rkl_raw(arrangement, step))
            except ArithmeticError:
                continue
        z_cache[key] = best
    z = z_cache[key]
    if z == 0.0:
        return None
    return raw / z


def expected_baselines_rkl(records, step: int) -> dict[Key, object]:
    """Every checked value of `baselines --baseline rkl` in stance mode (g1 = pro)."""
    title = f"rkl baseline (step {step}, g1 = pro)"
    exp: dict[Key, object] = {("title", "", "", "", "", "title"): title}
    z_cache: dict = {}
    for engine, lists in _by_engine(records).items():
        defined = []
        for query_id, rec in lists.items():
            score = rkl_score([s == "p" for s in rec.stances], step, z_cache)
            status = "ok" if score is not None else "undefined"
            exp[("score", engine, "", "", query_id, "status")] = status
            exp[("score", engine, "", "", query_id, "score")] = score
            if score is not None:
                defined.append(score)
        mean = math.fsum(defined) / len(defined) if defined else None
        exp[("baseline_summary", engine, "", "", "", "mean_score")] = mean
        exp[("baseline_summary", engine, "", "", "", "defined")] = len(defined)
        exp[("baseline_summary", engine, "", "", "", "undefined")] = len(lists) - len(defined)
    return exp


# ---------------------------------------------------------------------------
# Reading the CLI's output back into checked keys.

_TEST_FIELDS = ("status", "t_stat", "df", "sample_mean", "std_err")


def parse_evaluate_json(text: str) -> tuple[dict[Key, object], list[tuple]]:
    """Checked keys of a JSON report (numbers kept as text), plus (p, reject_at) pairs."""
    doc = json.loads(text, parse_float=lambda s: s, parse_int=lambda s: s)
    config = {
        **doc["config"], "mode": doc["mode"], "measures": ",".join(doc["config"]["measures"]),
        "engines": ",".join(doc["engines"]), "n_queries": doc["n_queries"],
    }
    got: dict[Key, object] = {("config", "", "", "", "", k): v for k, v in config.items()}
    for s in doc["bias_summaries"]:
        got[("summary", s["engine"], "", s["measure"], "", "mb")] = s["mb"]
        got[("summary", s["engine"], "", s["measure"], "", "mab")] = s["mab"]
        for rec in s["per_query"]:
            got[("beta", s["engine"], "", s["measure"], rec["query_id"], "beta")] = rec["beta"]
    p_values = []
    for section, key in (("one_sample", "one_sample_tests"), ("paired", "paired_tests")):
        for t in doc[key]:
            base = (section, t["engine"], t.get("engine_b", ""), t["measure"], "")
            for field in _TEST_FIELDS:
                if t[field] is not None:
                    got[base + (field,)] = t[field]
            if t["status"] == "ok":
                p_values.append((base, t["p_value"], t["reject_at"]))
    return got, p_values


def parse_evaluate_tsv(text: str) -> tuple[dict[Key, object], list[tuple]]:
    lines = text.split("\n")
    if lines[0] != "section\tengine\tengine_b\tmeasure\tquery_id\tfield\tvalue" or lines[-1] != "":
        raise ValueError("TSV header or trailing newline missing")
    got: dict[Key, object] = {}
    tests: dict[tuple, dict[str, str]] = defaultdict(dict)
    for line in lines[1:-1]:
        cells = line.split("\t")
        if len(cells) != 7:
            raise ValueError(f"TSV row with {len(cells)} cells: {line!r}")
        *base, field, value = cells
        key = tuple(base) + (field,)
        if key in got:
            raise ValueError(f"duplicate TSV row {key}")
        if base[0] in ("one_sample", "paired"):
            tests[tuple(base)][field] = value
            if field not in _TEST_FIELDS:
                continue
        got[key] = value
    p_values = [
        (base, fields["p_value"], fields["reject_at"] or None)
        for base, fields in tests.items()
        if fields.get("status") == "ok"
    ]
    return got, p_values


def _table_rows(lines: list[str], start: int, header: str) -> tuple[list[list[str]], int]:
    if lines[start] != header:
        raise ValueError(f"expected table header {header!r}, got {lines[start]!r}")
    rows = []
    i = start + 2
    while i < len(lines) and lines[i].startswith("| "):
        rows.append([c.strip() for c in lines[i][2:-2].split(" | ")])
        i += 1
    return rows, i


def parse_baselines_markdown(text: str) -> dict[Key, object]:
    lines = text.split("\n")
    if not lines[0].startswith("# ") or lines[-1] != "":
        raise ValueError("markdown title or trailing newline missing")
    got: dict[Key, object] = {("title", "", "", "", "", "title"): lines[0][2:]}
    rows, end = _table_rows(lines, 2, "| engine | query | status | score |")
    for engine, query_id, status, score in rows:
        got[("score", engine, "", "", query_id, "status")] = status
        got[("score", engine, "", "", query_id, "score")] = score
    rows, end = _table_rows(lines, end + 1, "| engine | mean score | defined | undefined |")
    for engine, mean, defined, undefined in rows:
        got[("baseline_summary", engine, "", "", "", "mean_score")] = mean
        got[("baseline_summary", engine, "", "", "", "defined")] = defined
        got[("baseline_summary", engine, "", "", "", "undefined")] = undefined
    if end != len(lines) - 1:
        raise ValueError("unexpected text after the summary table")
    return got


# ---------------------------------------------------------------------------
# Comparison.


def _json_float(x: float) -> str:
    out = format(x, ".17g")
    return out if any(c in out for c in ".eE") else out + ".0"


def exact_forms(x: float) -> set[str]:
    """Lossless renderings of x: shortest repr and 17 significant digits."""
    return {repr(x), _json_float(x)}


def short_forms(x: float) -> set[str]:
    """The six-significant-digit rendering used by markdown tables."""
    return {format(x, ".6g")}


def accepts(text, expected, float_forms) -> bool:
    if expected is None:
        return text in (None, "")
    if isinstance(expected, float):
        return isinstance(text, str) and text in float_forms(expected)
    return str(text) == str(expected)


def compare(expected: dict[Key, object], got: dict[Key, object], float_forms) -> list[str]:
    """Every mismatch, missing key and unexpected key, as messages."""
    problems = []
    for key, value in expected.items():
        if key not in got:
            problems.append(f"missing {key}")
        elif not accepts(got[key], value, float_forms):
            problems.append(f"{key}: got {got[key]!r}, expected {value!r}")
    problems += [f"unexpected {key}" for key in got if key not in expected]
    return problems


def check_p_values(p_values: list[tuple]) -> list[str]:
    """p must lie in [0, 1] and reject_at must equal alpha exactly when p < alpha."""
    problems = []
    for base, p_text, reject_text in p_values:
        p = float(p_text)
        reject_at = None if reject_text is None else float(reject_text)
        if not 0.0 <= p <= 1.0 or reject_at != (ALPHA if p < ALPHA else None):
            problems.append(f"{base}: p {p_text!r} inconsistent with reject_at {reject_text!r}")
    return problems
