"""Label vocabularies, list invariants, and the stance-to-ideology transform."""

import copy
import pickle
import random

import pytest

from conftest import STANCES, make_list, random_stances
from serpbias import (
    Document,
    EngineRun,
    IdeologyLabel,
    InputError,
    LeaningLabel,
    RankedList,
    StanceLabel,
    mirror,
    transform_list,
    transform_stance_to_ideology,
)


@pytest.mark.parametrize("cls", [StanceLabel, LeaningLabel, IdeologyLabel])
def test_label_round_trip(cls):
    for member in cls:
        assert cls.from_str(str(member)) is member


@pytest.mark.parametrize("cls", [StanceLabel, LeaningLabel, IdeologyLabel])
def test_unknown_label_rejected(cls):
    with pytest.raises(InputError, match="unknown"):
        cls.from_str("sideways")


@pytest.mark.parametrize("text", ["PRO", None, 1, ["pro"], StanceLabel.PRO])
def test_non_member_values_rejected(text):
    for cls in (StanceLabel, LeaningLabel, IdeologyLabel):
        with pytest.raises(InputError, match="unknown"):
            cls.from_str(text)


def test_stance_wire_strings():
    assert str(StanceLabel.NOT_RELEVANT) == "not-relevant"
    assert str(LeaningLabel.BOTH_OR_NEITHER) == "both_or_neither"


# The full transform table is the oracle: pro on a side's topic favors that
# side, against favors the opposite side, and both_or_neither has no side to
# credit for either stance.
TRANSFORM_TABLE = {
    (LeaningLabel.CONSERVATIVE, StanceLabel.PRO): IdeologyLabel.CONSERVATIVE,
    (LeaningLabel.CONSERVATIVE, StanceLabel.AGAINST): IdeologyLabel.LIBERAL,
    (LeaningLabel.CONSERVATIVE, StanceLabel.NEUTRAL): IdeologyLabel.NEUTRAL,
    (LeaningLabel.CONSERVATIVE, StanceLabel.NOT_RELEVANT): IdeologyLabel.NOT_RELEVANT,
    (LeaningLabel.LIBERAL, StanceLabel.PRO): IdeologyLabel.LIBERAL,
    (LeaningLabel.LIBERAL, StanceLabel.AGAINST): IdeologyLabel.CONSERVATIVE,
    (LeaningLabel.LIBERAL, StanceLabel.NEUTRAL): IdeologyLabel.NEUTRAL,
    (LeaningLabel.LIBERAL, StanceLabel.NOT_RELEVANT): IdeologyLabel.NOT_RELEVANT,
    (LeaningLabel.BOTH_OR_NEITHER, StanceLabel.PRO): IdeologyLabel.EXCLUDED,
    (LeaningLabel.BOTH_OR_NEITHER, StanceLabel.AGAINST): IdeologyLabel.EXCLUDED,
    (LeaningLabel.BOTH_OR_NEITHER, StanceLabel.NEUTRAL): IdeologyLabel.NEUTRAL,
    (LeaningLabel.BOTH_OR_NEITHER, StanceLabel.NOT_RELEVANT): IdeologyLabel.NOT_RELEVANT,
}


def test_transform_is_total_and_matches_table():
    seen = 0
    for leaning in LeaningLabel:
        for stance in StanceLabel:
            assert transform_stance_to_ideology(leaning, stance) is TRANSFORM_TABLE[(leaning, stance)]
            seen += 1
    assert seen == len(TRANSFORM_TABLE) == 12


def test_transform_preserves_relevance():
    for leaning in LeaningLabel:
        assert (
            transform_stance_to_ideology(leaning, StanceLabel.NOT_RELEVANT)
            is IdeologyLabel.NOT_RELEVANT
        )


def test_transform_list_all_neutral_stays_neutral():
    r = transform_list(make_list([StanceLabel.NEUTRAL] * 4))
    assert [d.stance for d in r.docs] == [IdeologyLabel.NEUTRAL] * 4


def test_transform_list_conservative_query():
    r = make_list([StanceLabel.PRO, StanceLabel.AGAINST], leaning=LeaningLabel.CONSERVATIVE)
    out = transform_list(r)
    assert [d.stance for d in out.docs] == [IdeologyLabel.CONSERVATIVE, IdeologyLabel.LIBERAL]


def test_transform_list_collapses_excluded():
    r = make_list([StanceLabel.PRO], leaning=LeaningLabel.BOTH_OR_NEITHER)
    out = transform_list(r)
    assert [d.stance for d in out.docs] == [IdeologyLabel.NOT_RELEVANT]


def test_transform_list_keeps_ranks_and_ids():
    r = make_list(random_stances(random.Random(3), 10))
    out = transform_list(r)
    assert [d.rank for d in out.docs] == [d.rank for d in r.docs]
    assert [d.doc_id for d in out.docs] == [d.doc_id for d in r.docs]


def test_transform_list_matches_per_document_transform():
    rng = random.Random(5)
    for leaning in LeaningLabel:
        for _ in range(200):
            r = make_list(random_stances(rng, rng.randrange(0, 12)), leaning=leaning)
            expected = [transform_stance_to_ideology(leaning, d.stance) for d in r.docs]
            expected = [
                IdeologyLabel.NOT_RELEVANT if i is IdeologyLabel.EXCLUDED else i for i in expected
            ]
            assert [d.stance for d in transform_list(r).docs] == expected


def test_transform_list_rejects_ideology_labels():
    # A second pass would read conservative as pro and credit the wrong side.
    once = transform_list(make_list([StanceLabel.PRO, StanceLabel.AGAINST]))
    with pytest.raises(InputError, match="only stance labels map to ideology"):
        transform_list(once)


@pytest.mark.parametrize(
    "label", list(IdeologyLabel) + list(LeaningLabel), ids=lambda l: f"{type(l).__name__}.{l.name}"
)
def test_transform_rejects_non_stance_labels(label):
    with pytest.raises(InputError, match="only stance labels map to ideology"):
        transform_stance_to_ideology(LeaningLabel.CONSERVATIVE, label)


def test_mirror_swaps_sides():
    r = make_list([StanceLabel.PRO, StanceLabel.NEUTRAL])
    assert [d.stance for d in mirror(r).docs] == [StanceLabel.AGAINST, StanceLabel.NEUTRAL]


def test_mirror_fixes_all_neutral():
    r = make_list([StanceLabel.NEUTRAL] * 5)
    assert mirror(r) == r


def test_mirror_is_involution_and_preserves_counts():
    rng = random.Random(11)
    for _ in range(1000):
        r = make_list(random_stances(rng, rng.randrange(0, 15)))
        m = mirror(r)
        assert mirror(m) == r
        for a, b in ((StanceLabel.PRO, StanceLabel.AGAINST), (StanceLabel.AGAINST, StanceLabel.PRO)):
            assert sum(1 for d in m.docs if d.stance is a) == sum(
                1 for d in r.docs if d.stance is b
            )


def test_mirror_handles_ideology_labels():
    r = transform_list(make_list([StanceLabel.PRO, StanceLabel.AGAINST]))
    m = mirror(r)
    assert [d.stance for d in m.docs] == [IdeologyLabel.LIBERAL, IdeologyLabel.CONSERVATIVE]
    assert mirror(m) == r


def test_rank_contiguity_enforced():
    docs = (
        Document(rank=1, stance=StanceLabel.PRO, doc_id="a"),
        Document(rank=2, stance=StanceLabel.PRO, doc_id="b"),
        Document(rank=4, stance=StanceLabel.PRO, doc_id="c"),
    )
    with pytest.raises(InputError, match="expected rank 3, got 4"):
        RankedList("e", "q", LeaningLabel.LIBERAL, docs)


def test_mixed_label_types_rejected():
    docs = (
        Document(rank=1, stance=StanceLabel.PRO, doc_id="a"),
        Document(rank=2, stance=IdeologyLabel.LIBERAL, doc_id="b"),
    )
    with pytest.raises(InputError, match="mixed label types"):
        RankedList("e", "q", LeaningLabel.LIBERAL, docs)


def test_rank_positions_match_index():
    r = make_list(random_stances(random.Random(5), 12))
    for k, doc in enumerate(r.docs):
        assert doc.rank == k + 1


def test_duplicate_doc_ids_rejected():
    # The message names each repeated id once, sorted, and no other id.
    ids = ["d2", "d1", "unique", "d1", "d2", "d2"]
    docs = [Document(k, StanceLabel.PRO, doc_id) for k, doc_id in enumerate(ids, start=1)]
    with pytest.raises(InputError) as info:
        RankedList("e", "q", LeaningLabel.LIBERAL, docs)
    assert str(info.value) == "duplicate doc_id in list (e, q): ['d1', 'd2']"


def test_labels_outside_both_vocabularies_rejected():
    docs = (Document(rank=1, stance="pro", doc_id="a"),)
    with pytest.raises(InputError, match="rank 1 .* not a stance or ideology label"):
        RankedList("e", "q", LeaningLabel.LIBERAL, docs)


def test_columns_mirror_the_documents():
    r = make_list([StanceLabel.PRO, StanceLabel.NOT_RELEVANT, StanceLabel.PRO])
    columns = ["engine_id", "query_id", "leaning", "codes", "doc_ids_json"]
    assert list(r._fields) == columns
    assert r.doc_ids == ("q01-d1", "q01-d2", "q01-d3")
    assert r.mask(StanceLabel.PRO) == bytes([1, 0, 1])
    assert r.mask(IdeologyLabel.NOT_RELEVANT) == bytes(3)
    # Built from the columns of a list made without documents.
    m = mirror(r)
    assert m.docs[1] == Document(rank=2, stance=StanceLabel.NOT_RELEVANT, doc_id="q01-d2")


def test_ranked_list_is_frozen_and_copyable():
    r = mirror(make_list([StanceLabel.PRO, StanceLabel.AGAINST]))
    with pytest.raises(AttributeError):
        r.codes = b""
    with pytest.raises(AttributeError):
        del r.leaning
    for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert twin == r and hash(twin) == hash(r) and twin.docs == r.docs
    assert repr(r).startswith("RankedList(engine_id='engine-a', query_id='q01', leaning=")


def test_document_rank_must_be_positive():
    with pytest.raises(InputError, match="rank"):
        Document(rank=0, stance=StanceLabel.PRO, doc_id="x")


@pytest.mark.parametrize("rank", ["1", None, True, 1.0], ids=["text", "none", "bool", "float"])
def test_document_rank_must_be_an_int(rank):
    # The JSON reader refuses these ranks too; a bool or 1.0 would pass as rank 1.
    with pytest.raises(InputError) as info:
        Document(rank, StanceLabel.PRO, "d")
    assert str(info.value) == f"document rank must be an integer >= 1, got {rank!r}"


def test_empty_list_is_legal():
    assert len(make_list([])) == 0


def test_engine_run_rejects_foreign_lists():
    r = make_list([StanceLabel.PRO], engine="other")
    with pytest.raises(InputError, match="belongs to engine"):
        EngineRun(engine_id="mine", lists={"q01": r})
    with pytest.raises(InputError, match="carries query_id"):
        EngineRun(engine_id="other", lists={"not-q01": r})


# A leaning that is not a LeaningLabel, such as its wire text, was once read as
# conservative by the transform, and a list holding one ended ideology mode
# in a bare KeyError.
@pytest.mark.parametrize("leaning", ["liberal", None, 1], ids=["text", "none", "int"])
def test_a_leaning_that_is_not_a_leaning_label_is_an_input_error(leaning):
    message = f"leaning must be a LeaningLabel, got {type(leaning).__name__} {leaning!r}"
    for stance in (StanceLabel.PRO, StanceLabel.AGAINST):
        with pytest.raises(InputError) as info:
            transform_stance_to_ideology(leaning, stance)
        assert str(info.value) == message
    with pytest.raises(InputError) as info:
        RankedList("e", "q", leaning, (Document(1, StanceLabel.PRO, "d"),))
    assert str(info.value) == message


# A container argument that is not the container a record holds, or that holds
# an element of the wrong kind, is an InputError naming it.
CONTAINERS = {
    "list-docs-entry": (
        lambda: RankedList("e", "q", LeaningLabel.LIBERAL, [[1]]),
        "docs entry 1 of list (e, q) must be a Document, got list [1]",
    ),
    "run-lists": (lambda: EngineRun("e", None), "lists must be a dict, got NoneType None"),
    "run-lists-list": (lambda: EngineRun("e", []), "lists must be a dict, got list []"),
    "run-list": (
        lambda: EngineRun("e", {"q": 5}),
        "the list for query 'q' must be a RankedList, got int 5",
    ),
}


@pytest.mark.parametrize("call, message", CONTAINERS.values(), ids=CONTAINERS)
def test_a_wrong_container_or_element_is_an_input_error(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


def test_all_stances_cover_enum():
    assert set(STANCES) == set(StanceLabel)
