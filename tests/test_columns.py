"""Columnar label storage against the per-document model.

A RankedList keeps one label code per rank next to its doc ids, held as one
JSON array text, and the parser, the relabelings and the measures work on
those columns. These tests hold each of them to what the public
Document/RankedList constructors and brute-force sums over `r.docs` give.
"""

import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import jsonl, record
from serpbias import (
    BaselineConfig,
    Document,
    IdeologyLabel,
    InputError,
    LeaningLabel,
    RankedList,
    StanceLabel,
    baseline_score,
    dcg_at,
    mirror,
    normalizer_z,
    parse_dataset,
    precision_at,
    rbp,
    transform_list,
)
from serpbias import dataset
from serpbias.model import LABELS, ids_text

STANCE_TEXT = [label.value for label in StanceLabel]
LEANING_TEXT = [label.value for label in LeaningLabel]
# Every document label, one label no document carries, and an unhashable one.
PROBE_LABELS = (*LABELS, LeaningLabel.CONSERVATIVE, [])

# ---------------------------------------------------------------------------
# Differential parse: parse_dataset against the Document/RankedList path.


def reference_field(obj, key, kind):
    if key not in obj:
        raise InputError(f"missing field {key!r}")
    value = obj[key]
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise InputError(f"field {key!r} must be an integer")
    elif not isinstance(value, kind):
        raise InputError(f"field {key!r} must be a {kind.__name__}")
    return value


def reference_list(rec):
    """The record's list built document by document, in the established check order:
    each entry's fields, label and rank >= 1 in document order, then rank gaps,
    then duplicate ids."""
    leaning = LeaningLabel.from_str(rec["leaning"])
    docs = []
    for raw in rec["docs"]:
        if not isinstance(raw, dict):
            raise InputError("each docs entry must be an object")
        rank = reference_field(raw, "rank", int)
        doc_id = reference_field(raw, "doc_id", str)
        stance = StanceLabel.from_str(reference_field(raw, "stance", str))
        docs.append(Document(rank=rank, stance=stance, doc_id=doc_id))
    return RankedList(rec["engine"], rec["query_id"], leaning, docs)


odd_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 30),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.sampled_from(STANCE_TEXT + ["PRO", "Pro", ""]),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)


@st.composite
def docs_entries(draw):
    """A valid docs array, then up to three faults in it."""
    n = draw(st.integers(0, 8))
    entries = [
        {"rank": i + 1, "doc_id": f"d{i + 1}", "stance": draw(st.sampled_from(STANCE_TEXT))}
        for i in range(n)
    ]
    for _ in range(draw(st.integers(0, 3))):
        if not entries:
            break
        i = draw(st.integers(0, len(entries) - 1))
        fault = draw(st.sampled_from(["value", "drop", "duplicate", "entry", "swap", "rank"]))
        entry = entries[i]
        if not isinstance(entry, dict):
            continue
        key = draw(st.sampled_from(["rank", "doc_id", "stance"]))
        if fault == "value":
            entry[key] = draw(odd_values)
        elif fault == "drop":
            entry.pop(key, None)
        elif fault == "duplicate":
            entry["doc_id"] = draw(st.sampled_from(["d1", f"d{len(entries)}"]))
        elif fault == "entry":
            entries[i] = draw(odd_values)
        elif fault == "swap":
            j = draw(st.integers(0, len(entries) - 1))
            entries[i], entries[j] = entries[j], entries[i]
        else:
            entry["rank"] = draw(st.sampled_from([0, -1, True, False, 1.0, i, i + 2, "1"]))
    return entries


@st.composite
def datasets(draw):
    """One engine, one record per query, so only the docs arrays can fail."""
    records = []
    for q in range(draw(st.integers(1, 3))):
        rec = record("e", f"q{q}", [], leaning=draw(st.sampled_from(LEANING_TEXT)))
        rec["docs"] = draw(docs_entries())
        records.append(rec)
    return records


@given(records=datasets())
@settings(deadline=None)
def test_parse_matches_document_path(records):
    expected = []
    first_error = None
    for line_no, rec in enumerate(records, start=1):
        try:
            expected.append(reference_list(rec))
        except InputError as exc:
            first_error = f"line {line_no}: {exc}"
            break
    text = "".join(json.dumps(rec) + "\n" for rec in records)
    if first_error is not None:
        with pytest.raises(InputError) as info:
            parse_dataset(io.StringIO(text))
        assert str(info.value) == first_error
        return
    lists = parse_dataset(io.StringIO(text)).runs[0].lists
    for ref in expected:
        got = lists[ref.query_id]
        assert got == ref
        assert hash(got) == hash(ref)
        assert got.docs == ref.docs


def refuse_document(raw):
    raise AssertionError(f"read document by document: {raw!r}")


unicode_ids = st.text(st.characters(blacklist_categories=("Cs",)), max_size=3)


@given(
    st.lists(
        st.lists(
            st.tuples(unicode_ids, st.sampled_from(STANCE_TEXT)),
            max_size=8,
            unique_by=lambda doc: doc[0],
        ),
        min_size=1,
        max_size=3,
    )
)
@settings(deadline=None)
def test_valid_docs_arrays_never_take_the_document_path(lists):
    """The JSON reader's column loop takes every valid docs array whole: only
    a fault sends a list through dataset._document."""
    records = []
    for q, docs in enumerate(lists):
        rec = record("e", f"q{q}", [])
        rec["docs"] = [
            {"stance": stance, "doc_id": doc_id, "rank": rank}
            for rank, (doc_id, stance) in enumerate(docs, start=1)
        ]
        records.append(rec)
    expected = [reference_list(rec) for rec in records]
    compact = (json.dumps(dict(reversed(rec.items())), separators=(",", ":")) for rec in records)
    lines = [line + "\n" for line in compact]
    assert not any(map(dataset._plain_record, lines))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataset, "_document", refuse_document)
        parsed = parse_dataset(lines).runs[0].lists
    assert [parsed[ref.query_id] for ref in expected] == expected


@pytest.mark.parametrize(
    "docs, message",
    [
        # Entries are checked in order, so an earlier entry's rank < 1 comes
        # before a later entry's missing fields.
        ([{"rank": 0, "doc_id": "a", "stance": "pro"}, {"rank": 2}], "rank must be an integer >= 1, got 0"),
        ([{"rank": 0, "doc_id": "a", "stance": "sideways"}], "unknown stance label 'sideways'"),
        ([{"rank": True, "doc_id": "a", "stance": "pro"}], "field 'rank' must be an integer"),
        ([{"rank": 2, "doc_id": "a", "stance": "pro"}, 7], "each docs entry must be an object"),
        # Rank gaps come before duplicate ids.
        ([{"rank": 1, "doc_id": "a", "stance": "pro"}] * 2, "expected rank 2, got 1"),
    ],
)
def test_first_error_in_each_list(docs, message):
    rec = record("e", "q0", [])
    rec["docs"] = docs
    with pytest.raises(InputError, match=f"^line 1: .*{message}"):
        parse_dataset(io.StringIO(jsonl([rec])))


# ---------------------------------------------------------------------------
# Representation contract: every list the library hands out scores as its docs do.


def brute_utility(r, label, kind, n, p, base):
    hits = [doc for doc in r.docs if doc.stance == label]
    if kind == "precision":
        return math.fsum(1.0 for doc in hits if doc.rank <= n) / n
    if kind == "rbp":
        return (1.0 - p) * math.fsum(p ** (doc.rank - 1) for doc in hits)
    return math.fsum(1.0 / math.log(doc.rank + 1, base) for doc in hits if doc.rank <= n)


def brute_distance(kind, share, q):
    if kind == "rnd":
        return abs(share - q)
    if kind == "rkl":
        total = 0.0
        for a, b in ((share, q), (1.0 - share, 1.0 - q)):
            if a == 0.0:
                continue
            if b == 0.0:
                return None
            total += a * math.log2(a / b)
        return max(total, 0.0)
    if q >= 0.5 or share == 1.0:
        return None
    return abs(share / (1.0 - share) - q / (1.0 - q))


def brute_baseline(r, g1, cfg):
    """The normalized score from r.docs, or None where the library must raise."""
    member = [doc.stance == g1 for doc in r.docs]
    n = len(member)
    if n < cfg.step:
        return None
    q = sum(member) / n
    terms = []
    for i in range(cfg.step, n + 1, cfg.step):
        if i == 1:
            continue
        d = brute_distance(cfg.kind, sum(member[:i]) / i, q)
        if d is None:
            return None
        terms.append(d / math.log2(i))
    z = normalizer_z(cfg.kind, n, sum(member), cfg.step)
    return None if z == 0.0 else math.fsum(terms) / z


def library_baseline(r, g1, cfg):
    try:
        return baseline_score(r, g1, cfg)
    except InputError:  # MeasureUndefinedError included
        return None


def derived_lists(ds):
    """Every list of ds, relabeled and mirrored in each combination the library offers."""
    for run in ds.runs:
        for r in run.lists.values():
            ideology = transform_list(r)
            yield from (r, mirror(r), ideology, mirror(ideology))


stance_lists = st.lists(st.sampled_from(STANCE_TEXT), max_size=24)


@st.composite
def small_datasets(draw):
    page = st.tuples(stance_lists, st.sampled_from(LEANING_TEXT))
    pages = draw(st.lists(page, min_size=1, max_size=3))
    records = [
        record("e", f"q{q}", stances, leaning=leaning) for q, (stances, leaning) in enumerate(pages)
    ]
    return parse_dataset(io.StringIO(jsonl(records)))


@given(
    ds=small_datasets(),
    n=st.integers(1, 12),
    p=st.floats(0.01, 0.99),
    base=st.sampled_from([2.0, math.e, 10.0, 1.5]),
)
@settings(deadline=None)
def test_measures_match_brute_force_over_docs(ds, n, p, base):
    for r in derived_lists(ds):
        for label in PROBE_LABELS:
            assert precision_at(r, label, n) == brute_utility(r, label, "precision", n, p, base)
            assert rbp(r, label, p) == brute_utility(r, label, "rbp", n, p, base)
            assert dcg_at(r, label, n, base) == brute_utility(r, label, "dcg", n, p, base)


@given(
    ds=small_datasets(),
    kind=st.sampled_from(["rnd", "rkl", "rrd"]),
    step=st.integers(1, 5),
)
@settings(deadline=None)
def test_baselines_match_brute_force_over_docs(ds, kind, step):
    cfg = BaselineConfig(step=step, kind=kind)
    for r in derived_lists(ds):
        for g1 in PROBE_LABELS:
            assert library_baseline(r, g1, cfg) == brute_baseline(r, g1, cfg)


@given(ds=small_datasets())
@settings(deadline=None)
def test_relabelings_keep_the_contract(ds):
    for run in ds.runs:
        for r in run.lists.values():
            for s in (r, transform_list(r)):
                twice = mirror(mirror(s))
                assert twice == s
                assert hash(twice) == hash(s)
                assert twice.docs == s.docs
            ideology = transform_list(r)
            assert [d.rank for d in ideology.docs] == [d.rank for d in r.docs]
            assert all(type(d.stance) is IdeologyLabel for d in ideology.docs)
            if len(r):
                with pytest.raises(InputError, match="^the label at rank 1 of list "):
                    transform_list(ideology)
                with pytest.raises(InputError, match="^the label at rank 1 of list "):
                    transform_list(mirror(ideology))


# ---------------------------------------------------------------------------
# Id storage: one text per list, whichever path built it.

# Characters json.dumps escapes ('"', backslash, control characters), DEL,
# which it does not, non-ASCII text and the layout's own punctuation.
ID_TEXT = st.lists(
    st.sampled_from(
        [*"ab09 -", '"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", "\u2028", "😀", '", "']
    ),
    max_size=4,
).map("".join)


@given(
    ids=st.lists(ID_TEXT, max_size=6, unique=True),
    stances=st.lists(st.sampled_from(STANCE_TEXT), min_size=6, max_size=6),
)
@settings(deadline=None)
def test_every_reader_stores_the_same_id_text(ids, stances):
    rec = record("e", "q", stances[: len(ids)])
    for doc, doc_id in zip(rec["docs"], ids):
        doc["doc_id"] = doc_id
    expected = json.dumps(ids, ensure_ascii=False)
    assert ids_text(ids) == expected
    docs = [Document(doc["rank"], StanceLabel(doc["stance"]), doc["doc_id"]) for doc in rec["docs"]]
    built = {"constructor": RankedList("e", "q", LeaningLabel.CONSERVATIVE, docs)}
    layout = json.dumps(rec, ensure_ascii=False) + "\n"
    plain = dataset._plain_record(layout)
    # The layout reader takes the line when no id needs an escape.
    assert (plain is not None) is (layout.isascii() and "\\" not in layout)
    if plain is not None:
        built["layout reader"] = plain[-1]
    for dumps in ({}, {"ensure_ascii": False}, {"separators": (",", ":")}):
        line = json.dumps(rec, **dumps)
        built[f"JSON reader {dumps}"] = dataset._json_record(line)[-1]
        built[f"parse_dataset {dumps}"] = parse_dataset([line]).runs[0].lists["q"]
    for how, r in built.items():
        assert vars(r)["doc_ids_json"] == expected, how
        assert r.doc_ids == tuple(ids), how
        assert r == built["constructor"] and hash(r) == hash(built["constructor"]), how
        assert [doc.doc_id for doc in r.docs] == ids, how
        # The relabelings pass the text through as it is.
        assert transform_list(r).doc_ids_json is mirror(r).doc_ids_json is r.doc_ids_json


@pytest.mark.parametrize("compact", [False, True], ids=["layout reader", "JSON reader"])
def test_a_parsed_list_holds_its_ids_as_one_str(compact):
    rec = record("e", "q", ["pro", "against", "neutral"])
    line = json.dumps(rec, separators=(",", ":") if compact else None)
    assert (dataset._plain_record(line) is None) is compact
    r = parse_dataset([line]).runs[0].lists["q"]
    for held in (r, transform_list(r)):
        assert list(vars(held)) == list(RankedList._fields)
        assert type(vars(held)["doc_ids_json"]) is str
        assert not [value for value in vars(held).values() if isinstance(value, (tuple, list))]
    assert r.doc_ids == ("q-d1", "q-d2", "q-d3")
    # doc_ids decodes anew on each access; only docs is kept once read.
    assert r.doc_ids is not r.doc_ids and "doc_ids" not in vars(r)


def test_hand_built_ids_must_be_text():
    docs = [Document(1, StanceLabel.PRO, "a"), Document(2, StanceLabel.PRO, 2)]
    with pytest.raises(InputError, match="^doc_id must be a string, got int 2$"):
        RankedList("e", "q", LeaningLabel.CONSERVATIVE, docs)
