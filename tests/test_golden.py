"""Byte-for-byte CLI output pinned against committed golden files.

Each case runs `cli.main` in process on a fixed dataset under
`tests/golden/` and compares its stdout with `tests/golden/<case>.out`.
`serps.jsonl` mixes all three leanings, has an engine whose lists are all
alike (degenerate one-sample tests), a list shorter than the default step
and a query whose lists hold no pro document (undefined rKL and rRD rows).
`one_query.jsonl` has a single query, so every t-test is skipped.
Both files are in the layout the dataset module reads without decoding
JSON; each case also runs on copies in another layout, which the JSON
reader reads, and must print the same bytes. Every case also runs with a
list's `doc_ids`, which `docs` reads too, made to raise, since no command
reads them.

The goldens were written by the implementation they guard; a refactor that
must keep output unchanged is checked against them. To rewrite them after a
deliberate output change, run `PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from serpbias import cli, dataset, model

GOLDEN = Path(__file__).resolve().parent / "golden"
SERPS = str(GOLDEN / "serps.jsonl")
ONE_QUERY = str(GOLDEN / "one_query.jsonl")

BASE_CASES = {
    "validate": ["validate", "--input", SERPS],
    "evaluate-one-query": ["evaluate", "--input", ONE_QUERY],
    "baselines-ideology": ["baselines", "--input", SERPS, "--mode", "ideology", "--step", "5"],
    "baselines-g1": ["baselines", "--input", SERPS, "--g1", "against", "--step", "3"],
}
for mode in ("stance", "ideology"):
    for command in ("evaluate", "compare"):
        BASE_CASES[f"{command}-{mode}"] = [command, "--input", SERPS, "--mode", mode]
for baseline in ("rnd", "rkl", "rrd"):
    BASE_CASES[f"baselines-{baseline}"] = ["baselines", "--input", SERPS, "--baseline", baseline]

CASES = {
    f"{name}.{fmt}": argv + ["--output", fmt]
    for name, argv in BASE_CASES.items()
    for fmt in ("json", "tsv", "markdown")
}
CASES["evaluate-flags.json"] = [
    "evaluate", "--input", SERPS, "--measures", "p,dcg,rbp", "--cutoff", "4",
    "--persistence", "0.55", "--log-base", "10", "--alpha", "0.2",
]


def run_case(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    assert run_case(CASES[name]) == (GOLDEN / f"{name}.out").read_bytes()


def test_every_golden_line_takes_the_layout_reader(monkeypatch):
    taken = []

    def spy(line, plain=dataset._plain_record):
        record = plain(line)
        taken.append(record is not None)
        return record

    monkeypatch.setattr(dataset, "_plain_record", spy)
    for path in (SERPS, ONE_QUERY):
        taken.clear()
        dataset.load_dataset(path)
        assert taken == [True] * len(Path(path).read_text(encoding="utf-8").splitlines())


def write_relaid(directory) -> dict[str, str]:
    """Each golden dataset's path -> a copy in directory written with compact
    separators and every object's keys reversed, so that every line takes the
    JSON reader. The CI workflow runs the golden commands on these copies too."""
    copies = {}
    for path in (SERPS, ONE_QUERY):
        lines = []
        for line in Path(path).read_text(encoding="utf-8").splitlines(keepends=True):
            rec = json.loads(line)
            rec["docs"] = [dict(reversed(doc.items())) for doc in rec["docs"]]
            lines.append(json.dumps(dict(reversed(rec.items())), separators=(",", ":")) + "\n")
            assert dataset._plain_record(lines[-1]) is None, lines[-1]
        copy = Path(directory) / Path(path).name
        copy.write_text("".join(lines), encoding="utf-8")
        copies[path] = str(copy)
    return copies


@pytest.fixture(scope="module")
def relaid(tmp_path_factory):
    return write_relaid(tmp_path_factory.mktemp("relaid"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_another_layout_prints_the_golden_bytes(name, relaid):
    argv = [relaid.get(arg, arg) for arg in CASES[name]]
    assert run_case(argv) == (GOLDEN / f"{name}.out").read_bytes()


def test_the_json_reader_reads_every_golden_list_column_by_column(monkeypatch, relaid):
    """No valid list goes through dataset._document, the per-document fall-back."""

    def refuse(raw):
        raise AssertionError(f"read document by document: {raw!r}")

    monkeypatch.setattr(dataset, "_document", refuse)
    for path, copy in relaid.items():
        assert dataset.load_dataset(copy) == dataset.load_dataset(path)


def test_no_golden_command_decodes_the_ids(monkeypatch, relaid):
    """Every command reads a list's codes and length only, never its ids."""

    def refuse(ranked):
        raise AssertionError(f"doc ids decoded: {ranked.doc_ids_json[:40]}")

    monkeypatch.setattr(model.RankedList, "doc_ids", property(refuse))
    for name, argv in sorted(CASES.items()):
        for args in (argv, [relaid.get(arg, arg) for arg in argv]):
            assert run_case(args) == (GOLDEN / f"{name}.out").read_bytes(), name


if __name__ == "__main__":
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.out").write_bytes(run_case(argv))
