"""Dataset ingestion and validation errors."""

import io
import json
import pathlib
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import jsonl, record
from serpbias import dataset
from serpbias.model import CODE
from serpbias import (
    Dataset,
    EngineRun,
    InputError,
    LeaningLabel,
    RankedList,
    StanceLabel,
    evaluate,
    load_dataset,
    parse_dataset,
)


def parse(text):
    return parse_dataset(io.StringIO(text))


def test_single_record():
    ds = parse(jsonl([record("engine-a", "q01", ["pro", "against", "neutral"])]))
    assert ds.engine_ids() == ["engine-a"]
    assert list(ds.query_table) == ["q01"]
    run = ds.runs[0]
    assert [d.stance for d in run.lists["q01"].docs] == [
        StanceLabel.PRO,
        StanceLabel.AGAINST,
        StanceLabel.NEUTRAL,
    ]
    assert ds.query_table["q01"] == ("topic q01", LeaningLabel.CONSERVATIVE)


def test_empty_input():
    with pytest.raises(InputError, match="no records"):
        parse("")


def test_blank_lines_skipped():
    text = "\n" + jsonl([record("e", "q01", ["pro"])]) + "\n\n"
    ds = parse(text)
    assert list(ds.query_table) == ["q01"]


# Every code point that str.isspace accepts: the characters str.strip removes.
WHITESPACE = "".join(filter(str.isspace, map(chr, range(0x110000))))
ONE_RECORD = jsonl([record("e", "q01", ["pro"])])


def test_lines_of_any_whitespace_are_skipped():
    assert {"\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"} <= set(WHITESPACE)
    blank = "".join(f"{c}\n" for c in WHITESPACE) + WHITESPACE + "\r\n"
    assert list(parse(blank + ONE_RECORD + blank).query_table) == ["q01"]
    # A line given without its newline, or empty, is skipped as well.
    assert list(parse_dataset(["", "\u3000", ONE_RECORD]).query_table) == ["q01"]


@pytest.mark.parametrize("item", [ONE_RECORD.encode(), 5, None], ids=["bytes", "int", "None"])
def test_a_line_that_is_not_text_is_named(item):
    with pytest.raises(InputError) as caught:
        parse_dataset([ONE_RECORD, item])
    assert str(caught.value) == f"line 2: a line must be text (str), not {type(item).__name__}"


def test_a_line_of_a_str_subclass_is_text():
    class Text(str):
        pass

    assert parse_dataset([Text(ONE_RECORD)]) == parse_dataset([ONE_RECORD])


@pytest.mark.parametrize(
    "text, message",
    [
        ("\x00\n" + ONE_RECORD, "line 1: malformed JSON: Expecting value at column 1"),
        ("\n" + ONE_RECORD + "\x00\n", "line 3: malformed JSON: Expecting value at column 1"),
        (
            ONE_RECORD.replace("\n", "\x0c\n"),
            f"line 1: malformed JSON: Extra data at column {len(ONE_RECORD)}",
        ),
        (" \x0c" + ONE_RECORD, "line 1: malformed JSON: Expecting value at column 2"),
    ],
    ids=["nul", "nul-after-a-record", "json-then-form-feed", "form-feed-then-json"],
)
def test_a_line_with_more_than_whitespace_is_read(text, message):
    with pytest.raises(InputError) as caught:
        parse(text)
    assert str(caught.value) == message


def test_a_byte_order_mark_before_line_1_is_skipped():
    assert parse("\ufeff" + ONE_RECORD) == parse(ONE_RECORD)
    assert parse_dataset(["\ufeff" + ONE_RECORD]) == parse(ONE_RECORD)
    assert list(parse("\ufeff\n" + ONE_RECORD).query_table) == ["q01"]
    # Line numbers stay those of the input, and only line 1 may start with a mark.
    with pytest.raises(InputError) as caught:
        parse("\ufeff" + ONE_RECORD + "\ufeff" + ONE_RECORD)
    assert str(caught.value) == (
        "line 2: malformed JSON: Unexpected byte-order mark at column 1 "
        "(only one, before line 1, is skipped)"
    )
    with pytest.raises(InputError, match="^line 1: .* mark at column 1 .only one, before line 1"):
        parse("\ufeff\ufeff" + ONE_RECORD)


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"bad\n', "Invalid control character at column 6"),
        ('{"engine": "e",\n', "Expecting property name enclosed in double quotes at column 17"),
        ('{"engine": "e\n', "Invalid control character at column 14"),
        ('{"engine": "e\\q"}\n', "Invalid \\escape at column 14"),
        ('{"engine": "e" "q"}\n', "Expecting ',' delimiter at column 16"),
        ('{"engine": "e}', "Unterminated string starting at column 12"),
    ],
)
def test_malformed_json_names_the_column(line, message):
    with pytest.raises(InputError) as caught:
        parse_dataset([ONE_RECORD, line])
    assert str(caught.value) == f"line 2: malformed JSON: {message}"


def test_malformed_json_names_line():
    text = jsonl([record("e", "q01", ["pro"])]) + "{not json\n"
    with pytest.raises(InputError, match="line 2: malformed JSON"):
        parse(text)


def test_rank_gap_names_line_and_gap():
    rec = record("e", "q01", ["pro", "pro", "pro"])
    rec["docs"][2]["rank"] = 4
    with pytest.raises(InputError, match="line 1.*expected rank 3, got 4"):
        parse(jsonl([rec]))


def test_unknown_stance_label():
    rec = record("e", "q01", ["pro"])
    rec["docs"][0]["stance"] = "sideways"
    with pytest.raises(InputError, match="line 1.*unknown stance"):
        parse(jsonl([rec]))


def test_unknown_leaning_label():
    rec = record("e", "q01", ["pro"], leaning="centrist")
    with pytest.raises(InputError, match="line 1.*unknown leaning"):
        parse(jsonl([rec]))


def test_not_relevant_uses_hyphenated_wire_string():
    ds = parse(jsonl([record("e", "q01", ["not-relevant"])]))
    assert ds.runs[0].lists["q01"].docs[0].stance is StanceLabel.NOT_RELEVANT


def test_duplicate_engine_query_pair():
    recs = [record("e", "q01", ["pro"]), record("e", "q01", ["against"])]
    with pytest.raises(InputError, match="line 2: duplicate record"):
        parse(jsonl(recs))


def test_duplicate_doc_id_names_line():
    rec = record("e", "q01", ["pro", "pro"])
    rec["docs"][1]["doc_id"] = rec["docs"][0]["doc_id"]
    with pytest.raises(InputError, match="line 1.*duplicate doc_id"):
        parse(jsonl([rec]))


def test_missing_field():
    rec = record("e", "q01", ["pro"])
    del rec["leaning"]
    with pytest.raises(InputError, match="line 1: missing field 'leaning'"):
        parse(jsonl([rec]))


def test_mistyped_rank():
    rec = record("e", "q01", ["pro"])
    rec["docs"][0]["rank"] = "1"
    with pytest.raises(InputError, match="must be an integer"):
        parse(jsonl([rec]))


def test_mismatched_query_sets():
    recs = [
        record("engine-a", "q01", ["pro"]),
        record("engine-a", "q02", ["pro"]),
        record("engine-b", "q01", ["pro"]),
    ]
    with pytest.raises(InputError, match="engine 'engine-b' is missing queries \\['q02'\\]"):
        parse(jsonl(recs))


def test_conflicting_query_metadata():
    recs = [
        record("engine-a", "q01", ["pro"], leaning="conservative"),
        record("engine-b", "q01", ["pro"], leaning="liberal"),
    ]
    with pytest.raises(InputError, match="line 2.*disagrees"):
        parse(jsonl(recs))


def test_two_engines_shared_queries():
    recs = [
        record("engine-b", "q01", ["pro"]),
        record("engine-a", "q01", ["against"]),
        record("engine-a", "q02", []),
        record("engine-b", "q02", ["neutral", "pro"]),
    ]
    ds = parse(jsonl(recs))
    assert ds.engine_ids() == ["engine-a", "engine-b"]
    assert list(ds.query_table) == ["q01", "q02"]
    assert ds.document_count() == 4


@given(st.permutations([(e, q) for e in ("b", "a", "é") for q in ("q3", "q1", "q10", "q2")]))
def test_parsed_runs_equal_runs_built_through_the_checking_constructor(pairs):
    # The parser builds each run without re-checking the ids it has read.
    stances = ["pro", "against", "neutral"]
    ds = parse(jsonl([record(e, q, stances[: len(e + q) % 4]) for e, q in pairs]))
    for run in ds.runs:
        rebuilt = EngineRun(run.engine_id, dict(reversed(run.lists.items())))
        assert run == rebuilt
        assert list(run.lists) == list(rebuilt.lists) == sorted(run.lists)


def test_record_must_be_object():
    with pytest.raises(InputError, match="must be a JSON object"):
        parse("[1, 2, 3]\n")


# 200 valid lines run well past the text decoder's first 8 KiB read.
VALID_LINES = jsonl([record("e", f"q{k:03d}", ["pro", "against"]) for k in range(200)])


@pytest.mark.parametrize(
    "bad_line, message",
    [
        (b'{"engine": "e\xff"}', "text is not valid UTF-8 \\(column 14\\)"),
        (b"[" * 100_000, "malformed JSON"),
        (b"1" * 5000, "malformed JSON"),
    ],
    ids=["non-utf8", "deep-nesting", "huge-integer"],
)
def test_decode_failures_name_their_line(tmp_path, bad_line, message):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(VALID_LINES.encode() + bad_line + b"\n" + VALID_LINES.encode())
    with pytest.raises(InputError, match=f"^line 201: {message}"):
        load_dataset(str(path))


class FsPath:
    """An os.PathLike whose __fspath__ returns, or raises, what it was given."""

    def __init__(self, result):
        self.result = result

    def __fspath__(self):
        if isinstance(self.result, Exception):
            raise self.result
        return self.result

    def __repr__(self):
        return "FsPath()"


GOLDEN = load_dataset(str(pathlib.Path(__file__).parent / "golden" / "serps.jsonl"))


def with_entry(entry):
    """The golden dataset built again with entry as query q01's table value."""
    return Dataset(GOLDEN.runs, {**GOLDEN.query_table, "q01": entry})


# A Dataset's runs must hold EngineRuns, its table must be a dict, and each
# table value a (text, LeaningLabel) tuple. A path must be a str, bytes or
# os.PathLike, so no file descriptor, such as True (stdout), is opened and
# closed, and one that open refuses before it reaches the file system, such
# as one holding a NUL, is named.
ENTRY = "the query table's entry for 'q01' must be a (text, leaning) tuple, got"
WRONG_KINDS = {
    "runs-entry": (lambda: Dataset([[1]], {}), "runs entry 1 must be an EngineRun, got list [1]"),
    "table-none": (lambda: Dataset((), None), "query_table must be a dict, got NoneType None"),
    "table-list": (lambda: Dataset((), []), "query_table must be a dict, got list []"),
    "entry-int": (lambda: with_entry(5), f"{ENTRY} int 5"),
    "entry-empty-runs": (lambda: Dataset((), {"q01": 5}), f"{ENTRY} int 5"),
    "entry-list": (
        lambda: with_entry(["topic", LeaningLabel.LIBERAL]),
        f"{ENTRY} list ['topic', <LeaningLabel.LIBERAL: 'liberal'>]",
    ),
    "entry-one-value": (lambda: with_entry(("topic",)), f"{ENTRY} one of length 1"),
    "entry-three-values": (
        lambda: with_entry(("topic", LeaningLabel.LIBERAL, 1)),
        f"{ENTRY} one of length 3",
    ),
    "entry-text": (
        lambda: with_entry((5, LeaningLabel.LIBERAL)),
        "the text of query 'q01' must be a string, got int 5",
    ),
    "entry-leaning": (
        lambda: with_entry(("topic", "liberal")),
        "the leaning of query 'q01' must be a LeaningLabel, got str 'liberal'",
    ),
    "path-none": (
        lambda: load_dataset(None),
        "a dataset path must be a str, bytes or os.PathLike, got NoneType None",
    ),
    "path-fd": (
        lambda: load_dataset(True),
        "a dataset path must be a str, bytes or os.PathLike, got bool True",
    ),
    "path-list": (
        lambda: load_dataset([]),
        "a dataset path must be a str, bytes or os.PathLike, got list []",
    ),
    "path-nul": (lambda: load_dataset("a\0b"), "cannot read 'a\\x00b': embedded null byte"),
    "path-nul-bytes": (
        lambda: load_dataset(b"a\0b"),
        "cannot read b'a\\x00b': embedded null byte",
    ),
    "path-like-nul": (
        lambda: load_dataset(FsPath("a\0b")),
        "cannot read FsPath(): embedded null byte",
    ),
    "path-like-int": (
        lambda: load_dataset(FsPath(5)),
        "cannot read FsPath(): expected FsPath.__fspath__() to return str or bytes, not int",
    ),
    "path-like-value-error": (
        lambda: load_dataset(FsPath(ValueError("no path"))),
        "cannot read FsPath(): no path",
    ),
}


@pytest.mark.parametrize("call, message", WRONG_KINDS.values(), ids=WRONG_KINDS)
def test_a_wrong_kind_of_runs_table_or_path_is_an_input_error(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


def test_a_dataset_path_may_be_an_os_path_like(tmp_path):
    path = tmp_path / "one.jsonl"
    path.write_text(jsonl([record("e", "q1", ["pro"])]), encoding="utf-8")
    assert load_dataset(path) == load_dataset(str(path))


def test_an_error_while_parsing_an_opened_file_is_not_named_a_read_error(tmp_path):
    # Only open's own refusals become "cannot read ...".
    path = tmp_path / "one.jsonl"
    path.write_text(jsonl([record("e", "q1", ["pro"])]), encoding="utf-8")
    with mock.patch.object(dataset, "parse_dataset", side_effect=ValueError("in parse")):
        with pytest.raises(ValueError, match="^in parse$"):
            load_dataset(path)


# The JSON reader's refusal of a text or list field of another JSON type.
MISTYPED_FIELDS = {"engine": 5, "query_id": ["q01"], "query": None, "leaning": 1.5, "docs": {}}


@pytest.mark.parametrize("key", MISTYPED_FIELDS)
def test_a_mistyped_text_or_list_field_is_named(key):
    rec = record("e", "q01", ["pro"])
    rec[key] = MISTYPED_FIELDS[key]
    kind = "list" if key == "docs" else "str"
    with pytest.raises(InputError) as info:
        parse(jsonl([rec]))
    assert str(info.value) == f"line 1: field {key!r} must be a {kind}"


QUERY_POOL = ("q1", "q2", "q3", "q4", "q5", "q6")


def hand_built(table_queries, runs):
    """A Dataset over table_queries; runs are (engine id, query ids) pairs."""
    table = {q: (f"topic {q}", LeaningLabel.LIBERAL) for q in table_queries}
    return Dataset(
        runs=tuple(
            EngineRun(engine, {q: RankedList(engine, q, LeaningLabel.LIBERAL) for q in queries})
            for engine, queries in runs
        ),
        query_table=table,
    )


query_sets = st.frozensets(st.sampled_from(QUERY_POOL))


@given(
    table=query_sets,
    # None stands for the table's own query set, so valid datasets are common.
    runs=st.lists(st.tuples(st.sampled_from("abc"), st.none() | query_sets), max_size=4),
)
# Two engines on disjoint 3-query sets: nothing to pair query by query.
@example(table=frozenset(QUERY_POOL), runs=[("a", frozenset(QUERY_POOL[:3])),
                                            ("b", frozenset(QUERY_POOL[3:]))])
def test_dataset_checks_coverage_and_unique_engines(table, runs):
    runs = [(engine, table if queries is None else queries) for engine, queries in runs]
    engines = [engine for engine, _ in runs]
    broken = len(set(engines)) < len(engines) or any(qs != table for _, qs in runs)
    if broken:
        with pytest.raises(InputError, match="more than one run|identical query set"):
            hand_built(table, runs)
    else:
        ds = hand_built(table, runs)
        assert sorted(ds.engine_ids()) == sorted(engines)
        if table:
            assert evaluate(ds).n_queries == len(table)


def test_hand_built_dataset_names_what_is_wrong():
    with pytest.raises(InputError, match="^engine 'b' is missing queries \\['q2'\\]; all"):
        hand_built(["q1", "q2"], [("c", ["q1"]), ("b", ["q1"]), ("a", ["q1", "q2"])])
    with pytest.raises(InputError, match="^engine 'a' has queries \\['q3'\\] outside the query"):
        hand_built(["q1", "q2"], [("a", ["q1", "q2", "q3"])])
    with pytest.raises(InputError, match="^engine 'a' has more than one run$"):
        hand_built(["q1"], [("a", ["q1"]), ("b", ["q1"]), ("a", ["q1"])])
    # The list's own leaning would decide how ideology mode scores it.
    lists = {"q1": RankedList("a", "q1", LeaningLabel.LIBERAL)}
    table = {"q1": ("topic q1", LeaningLabel.CONSERVATIVE)}
    with pytest.raises(
        InputError,
        match="^engine 'a' gives query 'q1' leaning liberal, but the query table gives "
        "conservative$",
    ):
        Dataset(runs=(EngineRun("a", lists),), query_table=table)
    # Ids are text, so they sort, and render and read back as strings.
    ranked = {q: RankedList("a", q, LeaningLabel.LIBERAL) for q in ("q1", "q2")}
    with pytest.raises(InputError, match="^query_id must be a string, got int 1$"):
        EngineRun("a", {"q1": ranked["q1"], 1: ranked["q2"]})
    with pytest.raises(InputError, match="^query_id must be a string, got int 1$"):
        hand_built([1, 2], [("a", [1, 2])])
    mixed = {"q1": ("topic q1", LeaningLabel.LIBERAL), 1: ("topic 1", LeaningLabel.LIBERAL)}
    with pytest.raises(InputError, match="^query_id must be a string, got int 1$"):
        Dataset(runs=(), query_table=mixed)
    with pytest.raises(InputError, match="^engine_id must be a string, got NoneType None$"):
        Dataset(runs=(EngineRun(None, {}),), query_table={})


# ---------------------------------------------------------------------------
# The documented-layout reader against the JSON reader.

# Ids and query text are drawn from printable ASCII without the two characters
# json.dumps escapes, plus the layout's own punctuation; a placeholder marks
# where a mutation puts a raw control character.
SAFE_TEXT = st.lists(
    st.sampled_from([*"abq09 -_.:~'", "}", "{", ", ", "]}", "[", ": "]), max_size=4
).map("".join)
CONTROL = "@"
MUTATIONS = (
    "as-is", "compact", "reorder", "extra-key", "non-ascii", "surrogate", "escape", "control",
    "rank-float", "rank-true", "rank-leading-zero", "rank-negative", "rank-gap",
    "duplicate-id", "unknown-stance", "unknown-leaning", "empty-docs", "truncate",
    "trailing-spaces", "too-long",
)
# Lines in the documented layout that the layout reader must take.
PLAIN = ("as-is", "empty-docs")


@st.composite
def layout_lines(draw):
    """JSON Lines written by json.dumps in the documented key order, one
    (engine, query) pair a line, each line left as it is or mutated once."""
    engines = draw(st.lists(SAFE_TEXT, min_size=1, max_size=2, unique=True))
    queries = draw(st.lists(SAFE_TEXT, min_size=1, max_size=2, unique=True))
    lines, mutations = [], []
    for query_id in queries:
        query = draw(SAFE_TEXT)
        leaning = draw(st.sampled_from([label.value for label in LeaningLabel]))
        for engine in engines:
            ids = draw(st.lists(SAFE_TEXT, max_size=5, unique=True))
            stances = [draw(st.sampled_from([label.value for label in StanceLabel])) for _ in ids]
            rec = record(engine, query_id, stances, leaning=leaning, query=query)
            for doc, doc_id in zip(rec["docs"], ids):
                doc["doc_id"] = doc_id
            rec["query"] = query  # record() puts a default in place of empty text
            mutation = draw(st.sampled_from(("as-is",) * 5 + MUTATIONS))
            lines.append(mutate(draw, rec, mutation))
            mutations.append(mutation)
    return lines, mutations


def mutate(draw, rec, mutation):
    docs = rec["docs"]
    i = draw(st.integers(0, max(len(docs) - 1, 0)))
    dumps = {}
    if mutation == "compact":
        dumps["separators"] = (",", ":")
    elif mutation == "reorder":
        rec = dict(reversed(rec.items()))
        rec["docs"] = [dict(reversed(doc.items())) for doc in docs]
    elif mutation == "extra-key":
        (docs[i] if docs else rec)["extra"] = draw(st.sampled_from([1, "x", None]))
    elif mutation in ("non-ascii", "surrogate", "escape", "control"):
        char = {
            "non-ascii": draw(st.sampled_from(["é", "\u2028", "\U0001f600"])),
            "surrogate": "\udc80",
            "escape": draw(st.sampled_from(['"', "\\", "/", "\n", "\x7f", "é"])),
            "control": CONTROL,
        }[mutation]
        dumps["ensure_ascii"] = mutation == "escape"
        if docs and draw(st.booleans()):
            docs[i]["doc_id"] += char
        else:
            rec[draw(st.sampled_from(["engine", "query_id", "query"]))] += char
    elif mutation.startswith("rank-") and docs:
        wrong = {"rank-float": float(docs[i]["rank"]), "rank-true": True, "rank-negative": -1,
                 "rank-gap": docs[i]["rank"] + 1, "rank-leading-zero": "LEADING-ZERO"}
        docs[i]["rank"] = wrong[mutation]
    elif mutation == "duplicate-id" and len(docs) > 1:
        docs[i]["doc_id"] = docs[i - 1]["doc_id"]
    elif mutation == "unknown-stance" and docs:
        # Near misses of a label: a letter more or fewer, another label's
        # second letter (the letter the layout reader keeps), a trailing space.
        labels = [label.value for label in StanceLabel]
        label, other = draw(st.permutations(labels))[:2]
        near = [label + "s", label[:-1], label[0] + other[1] + label[2:], label + " "]
        docs[i]["stance"] = draw(st.sampled_from(["Pro", "", "sideways", *near]))
    elif mutation == "unknown-leaning":
        rec["leaning"] = draw(st.sampled_from(["Liberal", "", "centrist"]))
    elif mutation == "empty-docs":
        rec["docs"] = []
    elif mutation == "too-long":
        rec["docs"] = [
            {"rank": k, "doc_id": f"d{k}", "stance": "pro"}
            for k in range(1, dataset._MAX_PLAIN + 2)
        ]
    line = json.dumps(rec, **dumps)
    if mutation == "control":
        line = line.replace(CONTROL, draw(st.sampled_from(["\x00", "\x01", "\t", "\x1f"])))
    elif mutation == "rank-leading-zero":
        line = line.replace('"LEADING-ZERO"', f"0{i + 1}")
    elif mutation == "truncate":
        line = line[: draw(st.integers(1, len(line) - 1))]
    elif mutation == "trailing-spaces":
        line += "  "
    return line + "\n"


@given(layout_lines())
@settings(deadline=None)
def test_layout_reader_agrees_with_the_json_reader(drawn):
    lines, mutations = drawn
    for line, mutation in zip(lines, mutations):
        got = dataset._plain_record(line)
        if mutation in PLAIN:
            assert got is not None
        if got is not None:
            assert got == dataset._parse_record(dataset._decode(line))

    def outcome():
        try:
            return parse_dataset(lines)
        except InputError as exc:
            return str(exc)

    expected = outcome()
    with mock.patch.object(dataset, "_plain_record", lambda line: None):
        assert outcome() == expected


def test_each_stance_has_its_own_second_letter_and_code():
    # The layout reader keeps only a stance's second letter.
    letters = [label.value[1] for label in StanceLabel]
    assert len(set(letters)) == len(letters)
    for letter, label in zip(letters, StanceLabel):
        assert dataset._LETTER_CODE[ord(letter)] == CODE[label]


def near_misses():
    """Each stance label's near misses: a letter more or fewer, another
    label's second letter (the letter the layout reader keeps), a trailing
    space, a capitalised first letter."""
    labels = [label.value for label in StanceLabel]
    for label in labels:
        others = [label[0] + other[1] + label[2:] for other in labels if other != label]
        for near in [label + "s", label[:-1], *others, label + " ", label.capitalize()]:
            yield pytest.param(near, id=repr(near))


@pytest.mark.parametrize("stance", near_misses())
def test_every_near_miss_of_a_stance_label_is_unknown(stance):
    rec = record("e", "q01", ["pro", "neutral", "against"])
    rec["docs"][1]["stance"] = stance
    line = json.dumps(rec) + "\n"
    assert dataset._plain_record(line) is None
    with pytest.raises(InputError) as info:
        parse_dataset([line])
    assert str(info.value).startswith(f"line 1: unknown stance label {stance!r} ")


ONE_LINE = (
    '{"engine": "e", "query_id": "q", "query": "t", "leaning": "liberal", "docs": ['
    '{"rank": 1, "doc_id": "d1", "stance": "pro"}, '
    '{"rank": 2, "doc_id": "d2", "stance": "against"}]}\n'
)


@pytest.mark.parametrize(
    "line, error",
    [
        (ONE_LINE.replace("[{", "[ {"), None),
        (ONE_LINE.replace("[{", "[0, {"), "each docs entry must be an object"),
        (
            ONE_LINE.replace('"rank": 1,', '"rank": 2,'),
            "rank gap in list (e, q): expected rank 1, got 2",
        ),
    ],
    ids=["space-before-entry-1", "junk-before-entry-1", "first-rank-2"],
)
def test_the_layout_reader_declines_a_first_entry_out_of_place(line, error):
    assert dataset._plain_record(line) is None
    if error is None:
        with mock.patch.object(dataset, "_plain_record", lambda line: None):
            expected = parse_dataset([line])
        assert parse_dataset([line]) == expected
        assert expected.runs[0].lists["q"].doc_ids_json == '["d1", "d2"]'
    else:
        with pytest.raises(InputError) as info:
            parse_dataset([line])
        assert str(info.value) == f"line 1: {error}"
