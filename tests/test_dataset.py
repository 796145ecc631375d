"""Dataset ingestion and validation errors."""

import io

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import jsonl, record
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
