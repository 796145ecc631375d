"""The record types against frozen-dataclass twins of the same fields.

Each public record type is a plain class on `serpbias.record.Record`. Its
twin here is a frozen dataclass of the same field names, in the same order,
with the same defaults. Hypothesis draws valid constructor arguments, and
every part of the record contract must behave as the twin's does: repr,
equality, hashing, keyword construction and defaults, the TypeError of a
missing argument, the constructor's name, refusing changes, copying and
pickling, and `vars()`. A subclass that declares no fields behaves as a
subclass of the twin does, and so does one that adds fields to a type
without checks or declares one of its parent's fields again; one that
declares fields on a type with checks must say how it checks them. Every
record that the golden commands build holds its fields and nothing else.
"""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import serpbias
from serpbias import (
    BASELINE_KINDS,
    MEASURE_KINDS,
    BaselineConfig,
    BaselineReport,
    BaselineScore,
    BiasRecord,
    BiasSummary,
    ComparisonReport,
    ConfigError,
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
from serpbias import cli, report
from serpbias.dataset import load_dataset
from serpbias.model import LABELS
from serpbias.record import Record
from test_golden import CASES


def twin(name, fields, **defaults):
    """A frozen dataclass named name with the given fields, as the old definitions were."""
    specs = [
        (f, object, dataclasses.field(default=defaults[f])) if f in defaults else (f, object)
        for f in fields.split()
    ]
    return dataclasses.make_dataclass(name, specs, frozen=True)


TWINS = {
    Document: twin("Document", "rank stance doc_id"),
    RankedList: twin("RankedList", "engine_id query_id leaning codes doc_ids_json"),
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
    BiasSummary: twin("BiasSummary", "engine measure mb mab query_ids betas"),
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
    BaselineScore: twin("BaselineScore", "engine query_id status score detail", detail=""),
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
summaries = st.builds(BiasSummary, text, text, floats, floats, texts, few(floats))
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
    BiasSummary: st.tuples(text, text, floats, floats, texts, few(floats)),
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
    """A record type with the given fields and nothing else."""
    return type(name, (Record,), {"__annotations__": dict.fromkeys(fields, "object")})


def field_names(twin_type) -> list[str]:
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

    # Another type with the same fields: a dataclass is never equal to one.
    strangers = [twin("Stranger", " ".join(twin_field_names))(*mine)]
    strangers.append(record_type("Stranger", twin_field_names)(*mine))
    for stranger in (theirs, *strangers):
        assert ours != stranger and not ours == stranger

    # Keyword construction, and the defaults of the trailing fields.
    names = list(inspect.signature(cls).parameters)
    assert cls(**dict(zip(names, args))) == ours
    defaults = {
        f.name: f.default for f in dataclasses.fields(Twin) if f.default is not dataclasses.MISSING
    }
    if defaults:
        required = dict(zip(names[: len(names) - len(defaults)], args))
        assert repr(cls(**required)) == repr(Twin(**required))

    # A missing argument is named alike, with the constructor's qualified name.
    # RankedList takes docs where its twin takes the columns.
    for method in ("__new__", "__init__"):
        assert getattr(cls, method).__qualname__ == getattr(Twin, method).__qualname__
    required = [p for p in inspect.signature(Twin).parameters.values() if p.default is p.empty]
    if cls is not RankedList and required:
        n = len(required) - 1
        assert outcome(cls, *args[:n]) == outcome(Twin, *mine[:n])

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
    assert list(vars(ours).items()) == list(vars(theirs).items())


@settings(max_examples=30, deadline=None)
@given(list_args())
def test_reading_docs_leaves_a_ranked_list_as_it_was(args):
    r, fresh = RankedList(*args), RankedList(*args)
    before = tuple(vars(r)), pickle.dumps(r), hash(r), repr(r)
    assert r.docs == tuple(args[3])
    assert r.doc_ids == tuple(doc.doc_id for doc in args[3])
    assert (tuple(vars(r)), pickle.dumps(r), hash(r), repr(r)) == before
    assert r == fresh and fresh == r and not r != fresh
    for copied in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert copied == fresh and hash(copied) == hash(fresh) and copied.docs == r.docs


# Per type: valid arguments, and keyword arguments the type refuses.
SUBCLASS_CASES = {
    MeasureConfig: ((5, 0.5, 2.0, "rbp"), {"cutoff": 0}),
    Document: ((1, StanceLabel.PRO, "d1"), {"rank": 0, "stance": StanceLabel.PRO, "doc_id": ""}),
    DatasetReport: ((("a",), 1, 1, 3), {"engines": ()}),
}


@pytest.mark.parametrize("cls", list(SUBCLASS_CASES), ids=lambda cls: cls.__name__)
def test_a_subclass_that_declares_no_fields_keeps_its_parents(cls):
    args, refused = SUBCLASS_CASES[cls]
    Sub, TwinSub = type("Sub", (cls,), {}), type("Sub", (TWINS[cls],), {})
    sub, parent = Sub(*args), cls(*args)
    assert Sub._fields == cls._fields and vars(sub) == vars(parent)
    assert outcome(lambda: Sub(**refused)) == outcome(lambda: cls(**refused))
    assert repr(sub) == "Sub" + repr(parent).removeprefix(cls.__name__)
    # As for a subclass of a dataclass: equal to its own kind only.
    twin_values = [getattr(parent, name) for name in cls._fields]
    assert (TwinSub(*twin_values) == TWINS[cls](*twin_values)) is False
    assert sub != parent and parent != sub and sub == Sub(*args)


def test_a_subclass_that_adds_fields_follows_its_parents():
    Sub = type("Sub", (DatasetReport,), {"__annotations__": {"extra": "int"}, "extra": 0})
    TwinSub = dataclasses.make_dataclass(
        "Sub",
        [("extra", object, dataclasses.field(default=0))],
        bases=(TWINS[DatasetReport],),
        frozen=True,
    )
    assert Sub._fields == (*DatasetReport._fields, "extra") == tuple(field_names(TwinSub))
    args = (("a",), 1, 1, 3)
    for given_args in (args, (*args, 9)):
        sub, theirs = Sub(*given_args), TwinSub(*given_args)
        assert repr(sub) == repr(theirs) and hash(sub) == hash(theirs)
        assert sub == Sub(*given_args) and sub != DatasetReport(*args)
    assert outcome(lambda: Sub(*args[:3])) == outcome(lambda: TwinSub(*args[:3]))


def test_a_subclass_that_declares_a_field_again_takes_its_new_default():
    Sub = type("Sub", (Entry,), {"__annotations__": {"detail": "str"}, "detail": "x"})
    TwinSub = dataclasses.make_dataclass(
        "Sub",
        [("detail", object, dataclasses.field(default="x"))],
        bases=(TWINS[Entry],),
        frozen=True,
    )
    assert Sub._fields == Entry._fields == tuple(field_names(TwinSub))
    args = ("e", None, "p", "ok")
    for given_args in (args, (*args, "y"), (*args, "y", None)):
        sub, theirs = Sub(*given_args), TwinSub(*given_args)
        assert repr(sub) == repr(theirs) and hash(sub) == hash(theirs)
    # Declaring a field again on a type that checks still needs an __init__.
    refused = r"^Y declares fields but would skip the checks of MeasureConfig\.__init__: "
    with pytest.raises(TypeError, match=refused):
        type("Y", (MeasureConfig,), {"__annotations__": {"cutoff": "int"}, "cutoff": 5})


def test_a_record_type_may_have_one_field():
    One = record_type("One", ["x"])
    TwinOne = twin("One", "x")
    assert One._fields == ("x",)
    for value in (1, "a", (1, 2), None):
        ours, theirs = One(value), TwinOne(value)
        assert repr(ours) == repr(theirs) and hash(ours) == hash(theirs)
        assert ours == One(value) and ours != One([value])
    Two = type("Two", (One,), {"__annotations__": {"y": "object"}})
    assert repr(Two(1, 2)) == "Two(x=1, y=2)"


def test_a_subclass_that_adds_fields_keeps_or_replaces_its_parents_checks():
    # A generated __init__ would skip MeasureConfig's checks, so the class is refused.
    refused = r"^Y declares fields but would skip the checks of MeasureConfig\.__init__: define "
    with pytest.raises(TypeError, match=refused):
        type("Y", (MeasureConfig,), {"__annotations__": {"extra": "int"}})

    class Z(MeasureConfig):
        extra: int

        def __init__(self, extra, **config):
            checked = MeasureConfig(**config)
            self._fill(*(getattr(checked, name) for name in MeasureConfig._fields), extra)

    assert Z._fields == (*MeasureConfig._fields, "extra")
    fields = "cutoff=3, persistence=0.8, log_base=2.0, measure_kind='precision', extra=1"
    assert repr(Z(1, cutoff=3)).endswith(f".<locals>.Z({fields})")
    with pytest.raises(ConfigError):
        Z(1, cutoff=0)


def test_a_field_without_a_default_may_not_follow_one_with_a_default():
    annotations = {"__annotations__": {"extra": "int"}}
    with pytest.raises(TypeError):
        dataclasses.make_dataclass("Late", [("extra", object)], bases=(TWINS[Entry],))
    late = "^field 'extra' without a default follows one with a default$"
    with pytest.raises(TypeError, match=late):
        type("Late", (Entry,), annotations)


def reached(value):
    """value and every value inside it, depth first: the fields of a record,
    the items of a tuple or list and the values of a dict."""
    yield value
    if isinstance(value, Record):
        children = vars(value).values()
    elif isinstance(value, dict):
        children = value.values()
    elif isinstance(value, (tuple, list)):
        children = value
    else:
        return
    for child in children:
        yield from reached(child)


def test_every_record_holds_only_its_fields():
    """Every record that the golden commands build holds its fields and nothing
    else, also once each list's docs and doc_ids have been read; and every
    type of the package that names fields is a Record."""
    seen = set()
    for argv in CASES.values():
        args = cli.build_parser().parse_args(argv)
        ds = load_dataset(args.input)
        for run in ds.runs:
            for ranked in run.lists.values():
                assert len(ranked.docs) == len(ranked.doc_ids) == len(ranked)
                seen.update(map(type, ranked.docs))
        for value in (*reached(ds), *reached(cli._REPORTS[args.command](args))):
            if hasattr(type(value), "_fields"):
                seen.add(type(value))
                assert tuple(vars(value)) == type(value)._fields, type(value).__name__
    assert {BaselineScore, RankedList, Document, TTestResult, DatasetReport} <= seen

    for info in pkgutil.iter_modules(serpbias.__path__):
        module = importlib.import_module(f"serpbias.{info.name}")
        for cls in vars(module).values():
            named = isinstance(cls, type) and hasattr(cls, "_fields")
            if named and cls.__module__ == module.__name__ and cls is not report._Slot:
                assert issubclass(cls, Record), cls.__qualname__


def test_generated_code_names_its_type_and_no_file():
    # A profile line or a traceback frame of generated code names its type,
    # and, as no such file exists, no traceback quotes a source line for it.
    package = Path(serpbias.__file__).parent
    assert RankedList._fill.__code__.co_filename == str(package / "<record RankedList>")
    assert TTestResult.__init__.__code__.co_filename == str(package / "<record TTestResult>")
    assert not Path(RankedList._fill.__code__.co_filename).exists()
    assert Path(record_type("One", ["x"]).__init__.__code__.co_filename).name == "<record One>"
