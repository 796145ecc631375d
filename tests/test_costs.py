"""Call-count budgets: how many Python calls into serpbias each main path makes.

Every speed claim since the scoring rewrite rests on a shape of the code: no
Python call per list in scoring, per value in the t-tests, or per document
in parsing. Wall time on a noisy host cannot see a regression of a few
milliseconds, but a call count is exact. Calls are counted with
sys.setprofile, in frames whose code lies in the package directory (the
record types' generated code is compiled under it), on two datasets from
perfbench's generator: 4 engines x q queries x 30 documents, seed 1, with q =
50 and 100, so the second holds 200 more lists.

Each path runs once before it is counted, so every cache it fills is warm.
COUNTS pins the count of each path at each size, exactly: a count that falls
leaves no stale ceiling behind, and one that rises fails. Python 3.10 and
3.11 count alike. Python 3.12 and later inline comprehensions (PEP 709),
which then make no call, so they count fewer, and they have a table of their
own; 3.12 and 3.13 count alike. A change that moves a count updates its
entry in both tables, and one that raises an entry says why in CHANGES.md,
with the count before and after.
"""

import contextlib
import io
import json
import os
import sys

import pytest

import serpbias
from serpbias import cli, evaluate, parse_dataset, render_report

PACKAGE = os.path.dirname(serpbias.__file__)
QUERIES = (50, 100)
ENGINES, LIST_LEN = 4, 30

# Path -> (calls at q = 50, calls at q = 100) on Python 3.10 and 3.11.
COUNTS_3_10 = {
    # The documented layout, read without decoding JSON: 3.25 calls per list.
    "parse": (669, 1319),
    # The same records with compact separators and reversed keys, which the
    # JSON reader reads column by column: 14.25 per list.
    "parse-relaid": (2869, 5719),
    # The evaluate counts hold one errors.integer call (its df) per t-test
    # that reaches a p-value, 26 at both sizes. Stance scoring, the t-tests
    # and both renderings make no call per list: the same count at both sizes.
    "evaluate-stance-tsv": (1450, 1450),
    "evaluate-stance-json": (910, 910),
    # The relabel's RankedList: about 5 per list.
    "evaluate-ideology": (1713, 2712),
    # About 10 per list; an undefined score takes another path.
    "baselines-rkl-step-1": (2114, 4164),
}
# The same on Python 3.12 and later.
COUNTS_3_12 = {
    "parse": (669, 1319),
    "parse-relaid": (2869, 5719),
    "evaluate-stance-tsv": (1321, 1321),
    "evaluate-stance-json": (813, 813),
    "evaluate-ideology": (1640, 2639),
    "baselines-rkl-step-1": (1908, 3758),
}
COUNTS = COUNTS_3_12 if sys.version_info >= (3, 12) else COUNTS_3_10

def relaid(line: str) -> str:
    rec = json.loads(line)
    rec["docs"] = [dict(reversed(doc.items())) for doc in rec["docs"]]
    return json.dumps(dict(reversed(rec.items())), separators=(",", ":")) + "\n"


def calls(fn) -> int:
    """Calls into the package's code that fn() makes, after one run uncounted."""
    fn()
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return count


def path_calls(directory, queries: int) -> dict[str, int]:
    """The count of each path in COUNTS on the dataset of `queries` queries."""
    from perfbench.generate import Shape, generate

    path = os.path.join(directory, f"q{queries}.jsonl")
    generate(Shape(ENGINES, queries, LIST_LEN), 1, path)
    with open(path, encoding="utf-8") as f:
        lines = f.readlines()
    relaid_lines = list(map(relaid, lines))
    ds = parse_dataset(lines)

    def baselines():
        argv = ["baselines", "--input", path, "--baseline", "rkl", "--step", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0

    return {
        "parse": calls(lambda: parse_dataset(lines)),
        "parse-relaid": calls(lambda: parse_dataset(relaid_lines)),
        "evaluate-stance-tsv": calls(lambda: render_report(evaluate(ds), "tsv")),
        "evaluate-stance-json": calls(lambda: render_report(evaluate(ds), "json")),
        "evaluate-ideology": calls(lambda: evaluate(ds, mode="ideology")),
        "baselines-rkl-step-1": calls(baselines),
    }


@pytest.fixture(scope="module")
def counts(tmp_path_factory):
    directory = tmp_path_factory.mktemp("costs")
    return [path_calls(directory, q) for q in QUERIES]


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_call_count_within_budget(counts, name):
    expected = COUNTS[name]
    assert (counts[0][name], counts[1][name]) == expected, f"{name}: pinned at {expected}"


FLAT = [name for name, (small, large) in COUNTS.items() if small == large]


@pytest.mark.parametrize("name", FLAT)
def test_a_flat_budget_counts_the_same_at_both_sizes(counts, name):
    assert counts[0][name] == counts[1][name], f"{name}: {counts[0][name]} and {counts[1][name]}"
