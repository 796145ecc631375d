"""The record types against frozen-dataclass twins of the same fields.

Each public record type is a plain class on `serpbias.record.Record`. Its
twin here is the frozen dataclass it replaced: the same field names, in the
same order, with the same defaults (BaselineScore's twin is the NamedTuple
it replaced). Hypothesis draws valid constructor arguments, and every part
of the record contract must behave as the twin's does: repr, equality,
hashing, keyword construction and defaults, refusing changes, copying and
pickling, and `vars()`.
"""

import collections
import copy
import dataclasses
import inspect
import pickle
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serpbias import (
    BASELINE_KINDS,
    MEASURE_KINDS,
    BaselineConfig,
    BaselineReport,
    BaselineScore,
    BiasRecord,
    BiasSummary,
    ComparisonReport,
    Dataset,
    DatasetReport,
    Document,
    EngineRun,
    IdeologyLabel,
    LeaningLabel,
    MeasureConfig,
    RankedList,
    ReportConfig,
    StanceLabel,
    TestEntry as Entry,
    TTestResult,
)
from serpbias.model import LABELS
from serpbias.record import Record


def twin(name, fields, **defaults):
    """A frozen dataclass named name with the given fields, as the old definitions were."""
    specs = [
        (f, object, dataclasses.field(default=defaults[f])) if f in defaults else (f, object)
        for f in fields.split()
    ]
    return dataclasses.make_dataclass(name, specs, frozen=True)


def old_baseline_score():
    class BaselineScore(typing.NamedTuple):
        engine: str
        query_id: str
        status: str
        score: typing.Optional[float]
        detail: str = ""

    return BaselineScore


TWINS = {
    Document: twin("Document", "rank stance doc_id"),
    RankedList: twin("RankedList", "engine_id query_id leaning codes doc_ids"),
    EngineRun: twin("EngineRun", "engine_id lists"),
    Dataset: twin("Dataset", "runs query_table"),
    MeasureConfig: twin(
        "MeasureConfig",
        "cutoff persistence log_base measure_kind",
        cutoff=10,
        persistence=0.8,
        log_base=2.0,
        measure_kind="precision",
    ),
    BaselineConfig: twin("BaselineConfig", "step kind", step=10, kind="rnd"),
    TTestResult: twin(
        "TTestResult", "t_stat df p_value sample_mean std_err reject_at", reject_at=None
    ),
    BiasRecord: twin("BiasRecord", "query_id beta"),
    BiasSummary: twin("BiasSummary", "engine measure mb mab per_query"),
    ReportConfig: twin("ReportConfig", "cutoff persistence log_base alpha measures"),
    Entry: twin(
        "TestEntry", "engine engine_b measure status detail result", detail="", result=None
    ),
    ComparisonReport: twin(
        "ComparisonReport",
        "mode config engines n_queries warnings bias_summaries one_sample_tests paired_tests",
    ),
    DatasetReport: twin("DatasetReport", "engines n_queries n_records n_documents"),
    BaselineReport: twin("BaselineReport", "mode baseline step g1 engines scores"),
    BaselineScore: old_baseline_score(),
}

# ---------------------------------------------------------------------------
# Valid constructor arguments for each type.

text = st.text(max_size=3)
floats = st.floats()  # NaN and the infinities too
ints = st.integers(-(2**70), 2**70)
texts = st.lists(text, max_size=3).map(tuple)


def few(strategy):
    return st.lists(strategy, max_size=2).map(tuple)


@st.composite
def list_args(draw, engine=None, query=None, leaning=None):
    """(engine_id, query_id, leaning, docs) of a valid RankedList."""
    labels = draw(st.sampled_from([StanceLabel, IdeologyLabel]))
    stances = draw(st.lists(st.sampled_from(labels), max_size=4))
    docs = [Document(i, label, f"d{i}") for i, label in enumerate(stances, start=1)]
    return (
        draw(text) if engine is None else engine,
        draw(text) if query is None else query,
        draw(st.sampled_from(LeaningLabel)) if leaning is None else leaning,
        docs,
    )


def ranked_list(engine, query, leaning):
    return list_args(engine, query, leaning).map(lambda args: RankedList(*args))


@st.composite
def run_args(draw, engine=None, table=None):
    """(engine_id, lists) of a valid EngineRun, over table's queries when given."""
    engine = draw(text) if engine is None else engine
    if table is None:
        table = {q: ("", draw(st.sampled_from(LeaningLabel))) for q in draw(texts)}
    lists = {q: draw(ranked_list(engine, q, leaning)) for q, (_, leaning) in table.items()}
    return engine, lists


@st.composite
def dataset_args(draw):
    table = draw(st.dictionaries(text, st.tuples(text, st.sampled_from(LeaningLabel)), max_size=3))
    engines = draw(st.lists(text, max_size=3, unique=True))
    runs = tuple(EngineRun(*draw(run_args(engine, table))) for engine in engines)
    return runs, table


results = st.builds(TTestResult, floats, ints, floats, floats, floats, st.none() | floats)
entries = st.builds(Entry, text, st.none() | text, text, text, text, st.none() | results)
report_configs = st.builds(ReportConfig, ints, floats, floats, floats, texts)
records = st.builds(BiasRecord, text, floats)
summaries = st.builds(BiasSummary, text, text, floats, floats, few(records))
scores = st.builds(BaselineScore, text, text, text, st.none() | floats, text)

ARGS = {
    Document: st.tuples(st.integers(1, 2**70), st.sampled_from(LABELS), text),
    RankedList: list_args(),
    EngineRun: run_args(),
    Dataset: dataset_args(),
    MeasureConfig: st.tuples(
        st.integers(1, 100),
        st.floats(0, 1, exclude_min=True, exclude_max=True),
        st.floats(1, 1e9, exclude_min=True),
        st.sampled_from(MEASURE_KINDS),
    ),
    BaselineConfig: st.tuples(st.integers(1, 100), st.sampled_from(BASELINE_KINDS)),
    TTestResult: st.tuples(floats, ints, floats, floats, floats, st.none() | floats),
    BiasRecord: st.tuples(text, floats),
    BiasSummary: st.tuples(text, text, floats, floats, few(records)),
    ReportConfig: st.tuples(ints, floats, floats, floats, texts),
    Entry: st.tuples(text, st.none() | text, text, text, text, st.none() | results),
    ComparisonReport: st.tuples(
        text, report_configs, texts, ints, texts, few(summaries), few(entries), few(entries)
    ),
    DatasetReport: st.tuples(texts, ints, ints, ints),
    BaselineReport: st.tuples(text, text, ints, text, texts, few(scores)),
    BaselineScore: st.tuples(text, text, text, st.none() | floats, text),
}


def outcome(fn, *args):
    """fn(*args), or the type and text of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # a record and its twin must fail alike
        return type(exc), str(exc)


def refusal(fn, *args) -> str:
    """The text of the AttributeError that fn(*args) raises."""
    with pytest.raises(AttributeError) as info:
        fn(*args)
    return str(info.value)


def record_type(name, fields):
    """A record type with the given fields and no __init__."""
    return type(name, (Record,), {"__annotations__": dict.fromkeys(fields, "object")})


def field_names(twin_type) -> list[str]:
    if issubclass(twin_type, tuple):
        return list(twin_type._fields)
    return [f.name for f in dataclasses.fields(twin_type)]


@pytest.mark.parametrize("cls", list(TWINS), ids=lambda cls: cls.__name__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_record_behaves_as_its_frozen_dataclass_twin(cls, data):
    Twin = TWINS[cls]
    args, other_args = data.draw(ARGS[cls]), data.draw(ARGS[cls])
    ours, other = cls(*args), cls(*other_args)
    # The twin holds the record's field values, which construction may have
    # sorted (Dataset, EngineRun) or turned into columns (RankedList).
    twin_field_names = field_names(Twin)
    assert list(cls._fields) == list(twin_field_names)
    mine = [getattr(ours, name) for name in twin_field_names]
    theirs = Twin(*mine)
    their_other = Twin(*[getattr(other, name) for name in twin_field_names])

    assert repr(ours) == repr(theirs)
    assert (ours == other) is (theirs == their_other)
    assert (ours != other) is (theirs != their_other)
    assert cls(*args) == ours and not cls(*args) != ours
    assert outcome(hash, ours) == outcome(hash, theirs)
    if not isinstance(outcome(hash, ours), tuple):
        assert hash(cls(*args)) == hash(ours)

    # Another type with the same fields: a dataclass is never equal to one,
    # a named tuple is equal to any tuple of its values.
    if issubclass(Twin, tuple):
        strangers = [collections.namedtuple("Stranger", twin_field_names)(*mine)]
    else:
        strangers = [twin("Stranger", " ".join(twin_field_names))(*mine)]
        strangers.append(object.__new__(record_type("Stranger", twin_field_names)))
        strangers[-1].__dict__.update(zip(twin_field_names, mine))
    equal = theirs == strangers[0]
    for stranger in (theirs, *strangers):
        assert (ours == stranger) is equal and (ours != stranger) is not equal

    # Keyword construction, and the defaults of the trailing fields.
    names = list(inspect.signature(cls).parameters)
    assert cls(**dict(zip(names, args))) == ours
    if cls is not BaselineScore:
        defaults = {
            f.name: f.default
            for f in dataclasses.fields(Twin)
            if f.default is not dataclasses.MISSING
        }
        if defaults:
            required = dict(zip(names[: len(names) - len(defaults)], args))
            assert repr(cls(**required)) == repr(Twin(**required))
    else:
        assert cls(*args[:4]) == Twin(*mine[:4])

    # Assignment and deletion are refused alike, of fields and other names.
    for name in (twin_field_names[0], twin_field_names[-1], "not_a_field"):
        assert refusal(setattr, ours, name, None) == refusal(setattr, theirs, name, None)
        assert refusal(delattr, ours, name) == refusal(delattr, theirs, name)
    assert [getattr(ours, name) for name in twin_field_names] == mine

    # A copy equals and hashes like the original as the twin's copy does: a NaN
    # that deepcopy or pickle makes anew is not equal to, or hashed as, the old.
    def kept(original, copied):
        return copied == original, outcome(hash, copied) == outcome(hash, original)

    pickled = pickle.loads(pickle.dumps(ours))
    for copier in (copy.copy, copy.deepcopy):
        copied = copier(ours)
        assert type(copied) is cls and repr(copied) == repr(ours)
        assert kept(ours, copied) == kept(theirs, copier(theirs))
    assert type(pickled) is cls and repr(pickled) == repr(ours)
    assert pickle.dumps(pickled) == pickle.dumps(ours)

    # vars() is the fields in order, as the TSV rows and the JSON writer read it.
    their_vars = outcome(vars, theirs)
    if isinstance(their_vars, tuple):  # a named tuple has no instance dict
        assert outcome(vars, ours)[0] is their_vars[0]
    else:
        assert list(vars(ours).items()) == list(their_vars.items())


@settings(max_examples=30, deadline=None)
@given(list_args())
def test_a_ranked_list_with_cached_docs_compares_and_hashes_as_before(args):
    r, fresh = RankedList(*args), RankedList(*args)
    before = hash(r), repr(r)
    assert r.docs == tuple(args[3])
    assert "docs" in vars(r)
    assert (hash(r), repr(r)) == before
    assert r == fresh and fresh == r and not r != fresh
    for copied in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert copied == fresh and hash(copied) == hash(fresh) and copied.docs == r.docs
