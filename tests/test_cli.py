"""Command-line surface: subcommands, flags, exit codes, output formats."""

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import jsonl, record
from serpbias import cli as cli_module
from serpbias import stats


def cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "serpbias", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    rng = random.Random(77)
    recs = []
    leanings = {f"q{k:02d}": rng.choice(["conservative", "liberal"]) for k in range(6)}
    for engine in ("news-a", "news-b"):
        for qid, leaning in leanings.items():
            stances = rng.choices(["pro", "against", "neutral", "not-relevant"], k=10)
            recs.append(record(engine, qid, stances, leaning=leaning))
    path = tmp_path_factory.mktemp("data") / "serps.jsonl"
    path.write_text(jsonl(recs), encoding="utf-8")
    return str(path)


def test_validate_reports_shape(dataset_path):
    proc = cli("validate", "--input", dataset_path)
    assert proc.returncode == 0
    info = json.loads(proc.stdout)
    assert info["engines"] == ["news-a", "news-b"]
    assert info["n_queries"] == 6
    assert info["n_documents"] == 120


def test_validate_reads_stdin(dataset_path):
    text = Path(dataset_path).read_text(encoding="utf-8")
    proc = cli("validate", "--input", "-", stdin=text)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n_queries"] == 6


def test_a_byte_order_mark_before_line_1_is_skipped(dataset_path, tmp_path):
    text = Path(dataset_path).read_text(encoding="utf-8")
    marked = tmp_path / "marked.jsonl"
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    expected = run_main("validate", "--input", dataset_path)
    assert run_main("validate", "--input", marked) == expected
    proc = cli("validate", "--input", "-", stdin="\ufeff" + text)
    assert (proc.returncode, proc.stdout, proc.stderr) == expected
    # Line numbers are those of the file.
    marked.write_text(text + "{", encoding="utf-8-sig")
    line = len(text.splitlines()) + 1
    code, out, err = run_main("validate", "--input", marked)
    assert (code, out) == (1, "")
    message = "Expecting property name enclosed in double quotes at column 2"
    assert err == f"input error: line {line}: malformed JSON: {message}\n"


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits") or sys.get_int_max_str_digits() == 0,
    reason="this Python reads integers of any length",
)
def test_an_integer_past_the_digit_limit_names_the_limit(tmp_path):
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "digits.jsonl"
    path.write_text("1" * (limit + 700) + "\n", encoding="utf-8")
    code, out, err = run_main("validate", "--input", path)
    assert (code, out) == (1, "")
    message = f"malformed JSON: an integer exceeds the limit of {limit} digits"
    assert err == f"input error: line 1: {message}\n"


def test_evaluate_defaults_in_config_block(dataset_path):
    proc = cli("evaluate", "--input", dataset_path)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["config"]["cutoff"] == 10
    assert report["config"]["persistence"] == 0.8
    assert report["config"]["log_base"] == 2.0
    assert report["config"]["alpha"] == 0.05
    assert report["config"]["measures"] == ["dcg", "precision", "rbp"]


def test_evaluate_is_byte_deterministic(dataset_path):
    first = cli("evaluate", "--input", dataset_path)
    second = cli("evaluate", "--input", dataset_path)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_evaluate_other_formats(dataset_path):
    tsv = cli("evaluate", "--input", dataset_path, "--output", "tsv")
    assert tsv.returncode == 0
    assert tsv.stdout.splitlines()[0] == "section\tengine\tengine_b\tmeasure\tquery_id\tfield\tvalue"
    md = cli("evaluate", "--input", dataset_path, "--output", "markdown", "--mode", "ideology")
    assert md.returncode == 0
    assert md.stdout.startswith("# Search bias report")


def test_evaluate_respects_measure_selection(dataset_path):
    proc = cli("evaluate", "--input", dataset_path, "--measures", "p")
    report = json.loads(proc.stdout)
    assert report["config"]["measures"] == ["precision"]
    assert {entry["measure"] for entry in report["one_sample_tests"]} == {"precision"}


def test_compare_emits_only_paired_section(dataset_path):
    proc = cli("compare", "--input", dataset_path)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["bias_summaries"] == []
    assert report["one_sample_tests"] == []
    assert len(report["paired_tests"]) == 3


def test_compare_needs_two_engines(tmp_path):
    path = tmp_path / "one.jsonl"
    path.write_text(jsonl([record("solo", "q1", ["pro"])]), encoding="utf-8")
    proc = cli("compare", "--input", str(path))
    assert proc.returncode == 1
    assert "at least 2 engines" in proc.stderr


def test_baselines_scores_and_undefined_rows(dataset_path):
    proc = cli("baselines", "--input", dataset_path, "--baseline", "rnd", "--step", "5")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["config"] == {"baseline": "rnd", "step": 5, "g1": "pro"}
    assert len(doc["scores"]) == 12
    for row in doc["scores"]:
        assert row["status"] in ("ok", "undefined")
        if row["status"] == "ok":
            assert 0.0 <= row["score"] <= 1.0


def test_baselines_rrd_majority_group_is_undefined(tmp_path):
    path = tmp_path / "major.jsonl"
    recs = [record("e", "q1", ["pro"] * 6 + ["against"] * 4)]
    path.write_text(jsonl(recs), encoding="utf-8")
    proc = cli("baselines", "--input", str(path), "--baseline", "rrd", "--step", "5")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["scores"][0]["status"] == "undefined"
    assert "minority" in doc["scores"][0]["detail"]
    assert doc["summary"][0]["undefined"] == 1


def test_baselines_custom_g1_and_mode(dataset_path):
    proc = cli(
        "baselines", "--input", dataset_path, "--mode", "ideology", "--step", "5"
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["config"]["g1"] == "conservative"
    proc = cli("baselines", "--input", dataset_path, "--g1", "against", "--step", "5")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["config"]["g1"] == "against"


def test_missing_file_is_input_error():
    proc = cli("evaluate", "--input", "/nonexistent/data.jsonl")
    assert proc.returncode == 1
    expected = "input error: cannot read '/nonexistent/data.jsonl': No such file or directory\n"
    assert proc.stderr == expected


def test_invalid_dataset_is_input_error(tmp_path):
    path = tmp_path / "bad.jsonl"
    rec = record("e", "q1", ["pro", "pro"])
    rec["docs"][1]["rank"] = 3
    path.write_text(jsonl([rec]), encoding="utf-8")
    proc = cli("validate", "--input", str(path))
    assert proc.returncode == 1
    assert "expected rank 2, got 3" in proc.stderr


def test_bad_configuration_exits_two(dataset_path):
    assert cli("evaluate", "--input", dataset_path, "--cutoff", "0").returncode == 2
    assert cli("evaluate", "--input", dataset_path, "--persistence", "1.2").returncode == 2
    assert cli("evaluate", "--input", dataset_path, "--measures", "ndcg").returncode == 2
    assert cli("evaluate", "--input", dataset_path, "--mode", "partisan").returncode == 2
    assert cli("baselines", "--input", dataset_path, "--g1", "sideways").returncode == 2
    assert cli("evaluate", "--input", dataset_path, "--output", "yaml").returncode == 2


def test_non_finite_log_base_is_configuration_error(dataset_path):
    for bad in ("inf", "nan"):
        proc = cli("evaluate", "--input", dataset_path, "--log-base", bad)
        assert proc.returncode == 2
        assert proc.stderr.startswith("configuration error: log base")
        assert "Traceback" not in proc.stderr


def test_bad_g1_mentions_configuration(dataset_path):
    proc = cli("baselines", "--input", dataset_path, "--g1", "sideways")
    assert proc.returncode == 2
    assert "configuration error" in proc.stderr


def test_excluded_g1_is_configuration_error():
    # Excluded documents are stored as not-relevant, so no list carries the
    # label and every score would be undefined.
    golden = str(Path(__file__).parent / "golden" / "serps.jsonl")
    proc = cli("baselines", "--input", golden, "--mode", "ideology", "--g1", "excluded")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("configuration error: invalid --g1: excluded documents")
    assert proc.stderr.count("\n") == 1


def test_an_unknown_g1_lists_only_the_labels_it_accepts():
    golden = str(Path(__file__).parent / "golden" / "serps.jsonl")
    for mode, valid in (
        ("ideology", "conservative, liberal, neutral, not-relevant"),
        ("stance", "pro, neutral, against, not-relevant"),
    ):
        proc = cli("baselines", "--input", golden, "--mode", mode, "--g1", "EXCLUDED")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            f"configuration error: invalid --g1: unknown {mode} label 'EXCLUDED' "
            f"(expected one of: {valid})\n"
        )
        for label in valid.split(", "):
            proc = cli("baselines", "--input", golden, "--mode", mode, "--g1", label)
            assert proc.returncode == 0, proc.stderr


def test_unencodable_stdout_is_configuration_error(tmp_path):
    path = tmp_path / "u.jsonl"
    path.write_text(jsonl([record("\u00fc", "q1", ["pro"])]), encoding="utf-8")
    raw = io.BytesIO()
    stdout, err = io.TextIOWrapper(raw, encoding="ascii"), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = cli_module.main(["validate", "--input", str(path)])
    stdout.flush()
    assert code == 2
    assert len(err.getvalue().splitlines()) == 1
    assert err.getvalue().startswith("configuration error: stdout encoding 'ascii'")
    assert raw.getvalue() == b""


@pytest.mark.parametrize("field", ["engine", "query_id", "query", "doc_id"])
def test_escaped_lone_surrogate_is_one_line_input_error(tmp_path, field):
    # json.dumps writes the surrogate as the escape \udc80; json.loads takes it back.
    rec = record("e", "q1", ["pro", "against"])
    if field == "doc_id":
        rec["docs"][1]["doc_id"] = "d\udc80"
    else:
        rec[field] += "\udc80"
    path = tmp_path / "lone.jsonl"
    path.write_text(jsonl([record("e", "q0", ["pro"]), rec]), encoding="utf-8")
    assert "\\udc80" in path.read_text(encoding="utf-8")
    env = {**os.environ, "PYTHONIOENCODING": "utf-8"}
    proc = subprocess.run(
        [sys.executable, "-m", "serpbias", "validate", "--input", str(path), "--output", "tsv"],
        capture_output=True,
        env=env,
    )
    assert proc.stdout == b""
    assert proc.stderr.decode("utf-8") == (
        f"input error: line 2: field {field!r} is not valid Unicode text "
        "(lone surrogate U+DC80)\n"
    )
    assert proc.returncode == 1


def test_escaped_surrogate_pair_is_one_character(tmp_path):
    path = tmp_path / "pair.jsonl"
    path.write_text(jsonl([record("e\U0001f600", "q1", ["pro"])]), encoding="utf-8")
    assert "\\ud83d\\ude00" in path.read_text(encoding="utf-8")
    code, out, err = run_main("validate", "--input", path, "--output", "tsv")
    assert (code, err) == (0, "")
    assert "engines\te\U0001f600\n" in out


def run_main(*argv):
    """cli.main in process: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_module.main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def assert_one_line_error(code, stderr, prefix):
    assert code == 1
    assert len(stderr.splitlines()) == 1
    assert stderr.startswith(prefix)
    assert "Traceback" not in stderr


@pytest.mark.parametrize("command", ["validate", "evaluate", "baselines"])
def test_closed_pipe_is_one_line_output_error(dataset_path, command):
    # The read end is closed before the child starts, so its first write fails with EPIPE.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "serpbias", command, "--input", dataset_path],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert_one_line_error(proc.returncode, proc.stderr, "output error: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["validate", "evaluate"])
def test_full_disk_is_one_line_output_error(dataset_path, command):
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "serpbias", command, "--input", dataset_path],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
        )
    assert_one_line_error(proc.returncode, proc.stderr, "output error: ")


def test_non_convergence_is_one_line_error(dataset_path, monkeypatch):
    monkeypatch.setattr(stats, "_MAX_ITER", 1)
    code, out, err = run_main("evaluate", "--input", dataset_path)
    assert_one_line_error(code, err, "input error: incomplete beta continued fraction")
    assert out == ""


# Each id holds one character that would split a TSV row or markdown table row,
# break a line, or split a cell or bullet that joins ids, unless it is escaped.
ODD_IDS = ("back\\slash", "tab\there", "cr\rhere", "lf\nhere", "pipe|here", "a,b")
_UNESCAPE = {"\\": "\\", "t": "\t", "r": "\r", "n": "\n", "|": "|", ",": ","}


def unescape(cell):
    return re.sub(r"\\(.)", lambda m: _UNESCAPE[m.group(1)], cell)


def split_ids(joined, sep):
    """The ids a joined cell or bullet holds: split at each sep outside an escape."""
    ids = [""]
    for token in re.findall(rf"\\.|{re.escape(sep)}|.", joined, re.S):
        if token == sep:
            ids.append("")
        else:
            ids[-1] += token
    return [unescape(i) for i in ids]


def test_cells_escape_what_would_break_their_rows(tmp_path):
    path = tmp_path / "odd.jsonl"
    stances = ["pro", "against", "neutral", "pro"]
    path.write_text(jsonl([record(e, q, stances) for e in ODD_IDS for q in ODD_IDS]))
    for command in ("validate", "evaluate", "baselines"):
        code, tsv, _ = run_main(command, "--input", path, "--output", "tsv")
        assert code == 0 and tsv.endswith("\n") and "\r" not in tsv
        lines = tsv[:-1].split("\n")
        assert all(line.count("\t") == lines[0].count("\t") for line in lines)
        if command == "baselines":
            assert {unescape(line.split("\t")[0]) for line in lines[1:]} == set(ODD_IDS)
        else:
            rows = [line.split("\t") for line in lines]
            [joined] = [row[-1] for row in rows if row[-2] == "engines"]
            assert split_ids(joined, ",") == sorted(ODD_IDS)

        code, md, _ = run_main(command, "--input", path, "--output", "markdown")
        assert code == 0 and "\r" not in md
        pipes = None  # unescaped pipes per row of the current table
        for line in md.split("\n"):
            if not line.startswith("|"):
                assert line == "" or line.startswith(("# ", "## ", "- "))
                pipes = None
                continue
            count = re.sub(r"\\.", "", line).count("|")
            assert count == (pipes or count)
            pipes = count
        if command == "baselines":
            rows = [line for line in md.split("\n") if line.startswith("| ")][1:]
            engines = {unescape(row[2:].split(" | ")[0]) for row in rows}
            assert set(ODD_IDS) <= engines
        else:
            [joined] = [line for line in md.split("\n") if line.startswith("- engines: ")]
            assert split_ids(joined.removeprefix("- engines: "), ", ") == sorted(ODD_IDS)


@st.composite
def near_valid_jsonl(draw):
    """A dataset whose names are arbitrary text and whose first list may skip a rank."""
    names = st.text(max_size=3)
    engines = draw(st.lists(names, min_size=1, max_size=3))
    queries = draw(st.lists(names, min_size=1, max_size=3))
    stances = st.sampled_from(["pro", "against", "neutral", "not-relevant"])
    records = []
    for engine in engines:
        for query_id in queries:
            leaning = ("conservative", "liberal", "both_or_neither")[len(query_id) % 3]
            records.append(record(engine, query_id, draw(st.lists(stances, max_size=12)), leaning))
    if draw(st.booleans()) and records[0]["docs"]:
        records[0]["docs"][-1]["rank"] += 1
    return jsonl(records).encode("utf-8")


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.jsonl"


_MEASURE_FLAGS = ("--cutoff", "--persistence", "--log-base", "--alpha", "--measures")
_BASELINE_FLAGS = ("--step", "--g1")

# Text, non-finite, zero, negative and huge values, and valid values for the other flags.
flag_values = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["nan", "inf", "-inf", "0", "-1", "-0.5", "1e308", "9" * 40]),
    st.sampled_from(["p,dcg", "rbp,", "against", "liberal"]),
    st.integers().map(str),
    st.floats().map(str),
)


@given(
    data=st.one_of(st.binary(max_size=300), near_valid_jsonl()),
    mode=st.sampled_from(["stance", "ideology"]),
    flags=st.dictionaries(st.sampled_from(_MEASURE_FLAGS + _BASELINE_FLAGS), flag_values),
)
@settings(max_examples=60, deadline=None)
@example(data=b"\xff\xfe\n", mode="stance", flags={})
@example(data=b"[" * 100_000, mode="stance", flags={})
@example(data=b"1" * 5000, mode="stance", flags={})
# A rank gap in a list whose engine id holds a newline.
@example(data=b'{"engine": "a\\nb", "query_id": "q", "query": "t", "leaning": "liberal", '
         b'"docs": [{"rank": 2, "doc_id": "d", "stance": "pro"}]}', mode="stance", flags={})
# An engine id whose JSON escape leaves a lone surrogate.
@example(data=b'{"engine": "e\\udc80", "query_id": "q", "query": "t", "leaning": "liberal", '
         b'"docs": []}', mode="stance", flags={})
# A flag value that does not parse.
@example(data=b"", mode="stance", flags={"--cutoff": "abc"})
def test_any_input_exits_cleanly_with_one_line(fuzz_path, data, mode, flags):
    fuzz_path.write_bytes(data)
    for command in ("validate", "evaluate", "compare", "baselines"):
        for fmt in ("json", "tsv", "markdown"):
            argv = [command, "--input", str(fuzz_path), "--output", fmt]
            if command != "validate":
                argv += ["--mode", mode]
                own = _BASELINE_FLAGS if command == "baselines" else _MEASURE_FLAGS
                for flag in own:
                    if flag in flags:
                        argv += [flag, flags[flag]]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_module.main(argv)
            assert code in (0, 1, 2)
            assert len(err.getvalue().splitlines()) <= 1


# ---------------------------------------------------------------------------
# Start-up: the CLI imports nothing it does not use. Run without `site`, as a
# site .pth file may import typing on its own, with the package's source on
# the path.

SRC = str(Path(cli_module.__file__).resolve().parents[1])
GOLDEN = Path(__file__).resolve().parent / "golden"


def bare_python(*args):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, "-S", *args], capture_output=True, env=env)


def test_cli_imports_none_of_the_heavy_standard_modules():
    proc = bare_python("-c", "import serpbias.cli, sys; print(*sorted(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    heavy = {"dataclasses", "inspect", "typing", "ast", "dis", "tokenize"}
    assert heavy.isdisjoint(proc.stdout.decode().split())


@pytest.mark.parametrize(
    "golden, args",
    [
        ("validate.json", ["validate"]),
        ("evaluate-stance.json", ["evaluate"]),
        ("baselines-rkl.json", ["baselines", "--baseline", "rkl"]),
    ],
)
def test_bare_interpreter_prints_the_golden_bytes(golden, args):
    proc = bare_python("-m", "serpbias", *args, "--input", str(GOLDEN / "serps.jsonl"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{golden}.out").read_bytes()
