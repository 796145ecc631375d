"""The package's public names, the names each module imports, where records are
stored, and how every number argument is read and refused."""

import ast
import math
import pathlib
import sys
import types
from decimal import Decimal
from fractions import Fraction

import pytest
from conftest import run_of

import serpbias
from serpbias import (
    BaselineConfig,
    ConfigError,
    Dataset,
    Document,
    InputError,
    LeaningLabel,
    MeasureConfig,
    RankedList,
    SerpBiasError,
    StanceLabel,
    distance_rnd,
    evaluate,
    normalizer_z,
    one_sample_ttest,
    paired_ttest,
    parse_dataset,
    rbp,
    regularized_incomplete_beta,
    render_report,
    student_t_sf,
)
from serpbias.record import Record

# Imported and not called where imported: bias.py keeps the measures on its
# call path under these names, because perfbench/trace.py times them there.
KEPT_IMPORTS = {"bias.py": {"precision_at", "rbp", "dcg_at"}}


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from serpbias import *", namespace)
    del namespace["__builtins__"]
    public = {
        name
        for name, value in vars(serpbias).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(serpbias.__all__) == len(set(serpbias.__all__))
    assert set(serpbias.__all__) == set(namespace) == public


def test_every_imported_name_is_used():
    # __init__.py imports to re-export, so only the other modules are read.
    unused = {}
    for path in sorted(pathlib.Path(serpbias.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        left = imported - used - KEPT_IMPORTS.get(path.name, set())
        if left:
            unused[path.name] = sorted(left)
    assert unused == {}


def module_nodes(skip: str):
    """(module file name, AST node) for every node of every module but skip."""
    for path in sorted(pathlib.Path(serpbias.__file__).parent.glob("*.py")):
        if path.name != skip:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                yield path.name, node


def test_only_record_py_stores_record_fields():
    # record.py states once how a record keeps its fields: no other module
    # touches an instance dict or makes an instance without __init__.
    # Reading the fields through vars() is allowed.
    found = {}
    for name, node in module_nodes("record.py"):
        if isinstance(node, ast.Attribute) and (
            node.attr == "__dict__"
            or node.attr == "__new__" and isinstance(node.value, ast.Name)
            and node.value.id == "object"
        ):
            found.setdefault(name, []).append(node.lineno)
    assert found == {}


def test_only_errors_py_calls_float():
    # errors.real is the one reading of a number argument. Passing float
    # without calling it, as map(float, values) does, is allowed.
    found = {}
    for name, node in module_nodes("errors.py"):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            found.setdefault(name, []).append(node.lineno)
    assert found == {}


def test_only_errors_py_refuses_an_unknown_choice_or_one_whole_text():
    # errors.choice is the one refusal of a value outside a closed vocabulary,
    # and errors.collection the one refusal of one whole text where an iterable
    # of items belongs: no other module writes either test or its message.
    found = {}
    for name, node in module_nodes("errors.py"):
        message = isinstance(node, ast.Constant) and "(expected one of:" in str(node.value)
        texts = (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "isinstance"
            and len(node.args) == 2
            and isinstance(node.args[1], ast.Tuple)
            and {"str", "bytes"} <= {getattr(kind, "id", None) for kind in node.args[1].elts}
        )
        if message or texts:
            found.setdefault(name, []).append(node.lineno)
    assert found == {}


def test_only_errors_py_writes_the_type_and_text_of_a_refused_value():
    # errors.instance is the one refusal of a value of the wrong type: no other
    # module writes an f-string holding both type(...).__name__ and shown(...).
    def type_name(part):
        return (
            isinstance(part, ast.Attribute)
            and part.attr == "__name__"
            and isinstance(part.value, ast.Call)
            and getattr(part.value.func, "id", None) == "type"
        )

    def text(part):
        return isinstance(part, ast.Call) and getattr(part.func, "id", None) == "shown"

    found = {}
    for name, node in module_nodes("errors.py"):
        if isinstance(node, ast.JoinedStr):
            parts = [part.value for part in node.values if isinstance(part, ast.FormattedValue)]
            if any(map(type_name, parts)) and any(map(text, parts)):
                found.setdefault(name, []).append(node.lineno)
    assert found == {}


# Each entry point that names a refused value in its message, given an int too
# long for Python to write in decimal (or its negative): the error it
# documents, with a one-line message and none of Python's advice to programs.
BIG = 10**5000
ONE_PRO = RankedList("e", "q", LeaningLabel.LIBERAL, (Document(1, StanceLabel.PRO, "d"),))
REFUSALS = {
    "cutoff": (ConfigError, lambda: MeasureConfig(cutoff=-BIG)),
    "persistence": (ConfigError, lambda: MeasureConfig(persistence=BIG)),
    "log_base": (ConfigError, lambda: MeasureConfig(log_base=-BIG)),
    "log_base-big": (ConfigError, lambda: MeasureConfig(log_base=BIG)),
    "step": (ConfigError, lambda: BaselineConfig(step=-BIG)),
    "evaluate-alpha": (ConfigError, lambda: evaluate(Dataset((), {}), alpha=BIG)),
    "render-format": (ConfigError, lambda: render_report(None, BIG)),
    "one-sample-alpha": (ConfigError, lambda: one_sample_ttest([1.0, 2.0], alpha=BIG)),
    "one-sample-observation": (InputError, lambda: one_sample_ttest([1.0, BIG])),
    "one-sample-mu0": (InputError, lambda: one_sample_ttest([1.0, 2.0], mu0=-BIG)),
    "paired-observation": (InputError, lambda: paired_ttest([1.0, BIG], [1.0, 2.0])),
    "t-df": (ConfigError, lambda: student_t_sf(1.0, -BIG)),
    "beta-shape": (ValueError, lambda: regularized_incomplete_beta(-BIG, 1.0, 0.5)),
    "beta-shape-big": (ValueError, lambda: regularized_incomplete_beta(BIG, 1.0, 0.5)),
    "beta-x": (ValueError, lambda: regularized_incomplete_beta(1.0, 1.0, BIG)),
    "beta-text": (ValueError, lambda: regularized_incomplete_beta([BIG], 1.0, 0.5)),
    "normalizer-length": (InputError, lambda: normalizer_z("rnd", -BIG, 0)),
    "distance-rank": (InputError, lambda: distance_rnd(ONE_PRO, StanceLabel.PRO, BIG)),
    "document-rank": (InputError, lambda: Document(-BIG, StanceLabel.PRO, "d")),
    "list-rank": (
        InputError,
        lambda: RankedList("e", "q", LeaningLabel.LIBERAL, (Document(BIG, StanceLabel.PRO, "d"),)),
    ),
    "list-label": (
        InputError,
        lambda: RankedList("e", "q", LeaningLabel.LIBERAL, (Document(1, BIG, "d"),)),
    ),
    "engine-id": (InputError, lambda: RankedList(BIG, "q", LeaningLabel.LIBERAL)),
    "label-text": (InputError, lambda: StanceLabel.from_str(BIG)),
}


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits") or sys.get_int_max_str_digits() == 0,
    reason="this Python writes integers of any length",
)
@pytest.mark.parametrize("error, call", REFUSALS.values(), ids=REFUSALS)
def test_a_refused_integer_past_the_digit_limit_keeps_a_one_line_message(error, call):
    with pytest.raises(error) as info:
        call()
    message = str(info.value)
    assert "\n" not in message and "set_int_max_str_digits" not in message
    assert len(message) < 200


# Every entry point that reads a number, each given numbers of other types and
# at the edges of the float range: it returns, or raises the error it documents
# with a one-line message. A Decimal or a Fraction it takes gives the bits that
# the float 0.5 gives, and each setting it keeps is that float.
QUERIES = {"q1": ("one", LeaningLabel.CONSERVATIVE), "q2": ("two", LeaningLabel.CONSERVATIVE)}
TWO_RUNS = Dataset(
    (
        run_of("a", {"q1": [StanceLabel.PRO, StanceLabel.AGAINST], "q2": [StanceLabel.PRO] * 3}),
        run_of("b", {"q1": [StanceLabel.AGAINST], "q2": [StanceLabel.NEUTRAL, StanceLabel.PRO]}),
    ),
    QUERIES,
)
SAMPLE = [1.0, 2.0, 4.0, 4.5]


def evaluated(*args, **kwargs):
    report = evaluate(TWO_RUNS, *args, **kwargs)
    return report, render_report(report, "json")


NUMBER_ARGUMENTS = {
    "config-persistence": (ConfigError, lambda v: MeasureConfig(persistence=v)),
    "config-log_base": (ConfigError, lambda v: MeasureConfig(log_base=v)),
    "rbp": (ConfigError, lambda v: rbp(ONE_PRO, StanceLabel.PRO, v)),
    "evaluate-alpha": (ConfigError, lambda v: evaluated(alpha=v)),
    "evaluate-persistence": (ConfigError, lambda v: evaluated(MeasureConfig(persistence=v))),
    "evaluate-log_base": (ConfigError, lambda v: evaluated(MeasureConfig(log_base=v))),
    "one-sample-alpha": (ConfigError, lambda v: one_sample_ttest(SAMPLE, alpha=v)),
    "one-sample-observation": (InputError, lambda v: one_sample_ttest([*SAMPLE, v])),
    "one-sample-mu0": (InputError, lambda v: one_sample_ttest(SAMPLE, mu0=v)),
    "t": (InputError, lambda v: student_t_sf(v, 3)),
    "beta-a": (ValueError, lambda v: regularized_incomplete_beta(v, 1.0, 0.5)),
    "beta-x": (ValueError, lambda v: regularized_incomplete_beta(1.0, 1.0, v)),
}
NUMBERS = {
    "big": 10**400,
    "minus-big": -(10**400),
    "snan": Decimal("sNaN"),
    "decimal-half": Decimal("0.5"),
    "fraction-half": Fraction(1, 2),
    "inf": math.inf,
}


def bits(value):
    """value with its type, each float as float.hex, and records and tuples walked."""
    if isinstance(value, float):
        return "float", value.hex()
    if isinstance(value, Record):
        return type(value).__name__, bits(tuple(vars(value).values()))
    if isinstance(value, tuple):
        return tuple(map(bits, value))
    return type(value).__name__, value


@pytest.mark.parametrize("number", NUMBERS)
@pytest.mark.parametrize("error, call", NUMBER_ARGUMENTS.values(), ids=NUMBER_ARGUMENTS)
def test_every_number_argument_is_read_as_a_float_or_refused(error, call, number):
    try:
        result = call(NUMBERS[number])
    except error as exc:
        assert "\n" not in str(exc)
        return
    if number.endswith("-half"):
        assert bits(result) == bits(call(0.5))


class Seven(int):
    """An int that writes itself as a word."""

    def __str__(self):
        return "seven"


# Every integer argument, read by errors.integer: (what its messages call it,
# the least value, the error it documents, a call that takes it). Only the
# int subclass is taken, as the plain int it holds; each other value of
# INTEGERS is refused with one of the two messages.
PRO = StanceLabel.PRO
SEVEN_DOCS = RankedList(
    "e", "q", LeaningLabel.LIBERAL, [Document(k, PRO, str(k)) for k in range(1, 8)]
)
INTEGER_ARGUMENTS = {
    "cutoff": ("cutoff", 1, ConfigError, lambda v: MeasureConfig(cutoff=v)),
    "step": ("step", 1, ConfigError, lambda v: BaselineConfig(step=v)),
    "df": ("degrees of freedom", 1, ConfigError, lambda v: student_t_sf(1.0, v)),
    "list-length": ("list length", 0, InputError, lambda v: normalizer_z("rnd", v, 0, 1)),
    "g1-count": ("g1 count", 0, InputError, lambda v: normalizer_z("rnd", 9, v, 1)),
    "distance-rank": ("rank", 1, InputError, lambda v: distance_rnd(SEVEN_DOCS, PRO, v)),
    "document-rank": ("document rank", 1, InputError, lambda v: Document(v, PRO, "d")),
}
INTEGERS = {
    "bool": True,
    "float": 1.0,
    "text": "3",
    "none": None,
    "subclass": Seven(7),
    "below-least": None,  # the argument's least value, less 1
    "big": 10**400,
    "huge": BIG,
}


@pytest.mark.parametrize("number", INTEGERS)
@pytest.mark.parametrize(
    "what, low, error, call", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS
)
def test_every_integer_argument_is_read_as_a_plain_int_or_refused(what, low, error, call, number):
    value = low - 1 if number == "below-least" else INTEGERS[number]
    if number == "subclass":
        result = call(value)
        if isinstance(result, Record):
            kept = [v for v in vars(result).values() if isinstance(v, int)]
            assert 7 in kept and all(type(v) is int for v in kept)
        return
    with pytest.raises(error) as info:
        call(value)
    if number in ("big", "huge"):
        assert str(info.value) == f"{what} must lie in the float range, up to 1.8e308"
    else:
        assert str(info.value) == f"{what} must be an integer >= {low}, got {value!r}"


def test_a_cutoff_of_an_int_subclass_renders_as_its_int():
    for fmt in ("json", "tsv", "markdown"):
        text = render_report(evaluate(TWO_RUNS, MeasureConfig(cutoff=Seven(7))), fmt)
        assert text == render_report(evaluate(TWO_RUNS, MeasureConfig(cutoff=7)), fmt)
        assert "7" in text and "seven" not in text


def list_of(docs):
    return RankedList("e", "q", LeaningLabel.LIBERAL, docs)


# Where the t-test observations, a dataset's lines, a list's documents or a
# dataset's runs belong, a value that is not iterable is an InputError.
OBSERVATIONS = "t-test observations must be an iterable of numbers"
NOT_ITERABLE = {
    "one-sample": (one_sample_ttest, OBSERVATIONS),
    "paired-a": (lambda v: paired_ttest(v, SAMPLE), OBSERVATIONS),
    "paired-b": (lambda v: paired_ttest(SAMPLE, v), OBSERVATIONS),
    "parse-dataset": (parse_dataset, "a dataset must be an iterable of lines"),
    "list-docs": (list_of, "docs must be an iterable of Documents"),
    "dataset-runs": (lambda v: Dataset(v, {}), "runs must be an iterable of EngineRuns"),
}


@pytest.mark.parametrize("value", [5, None, 2.5, object], ids=["int", "none", "float", "type"])
@pytest.mark.parametrize("call, text", NOT_ITERABLE.values(), ids=NOT_ITERABLE)
def test_a_non_iterable_argument_is_an_input_error(call, text, value):
    with pytest.raises(InputError) as info:
        call(value)
    assert str(info.value) == f"{text}, got {value!r}"


# One whole text where its items belong is refused as a whole, not read one
# character or byte at a time.
WHOLE_TEXT = {
    "one-sample": (one_sample_ttest, OBSERVATIONS),
    "paired-a": (lambda v: paired_ttest(v, "34"), OBSERVATIONS),
    "paired-b": (lambda v: paired_ttest(SAMPLE, v), OBSERVATIONS),
    "parse-dataset": (parse_dataset, "a dataset must be an iterable of lines"),
    "list-docs": (list_of, "docs must be an iterable of Documents"),
    "dataset-runs": (lambda v: Dataset(v, {}), "runs must be an iterable of EngineRuns"),
}
GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "serps.jsonl"
GOLDEN_LINES = GOLDEN_PATH.read_text()


TEXTS = {"str": "12", "bytes": b"12", "bytearray": bytearray(b"12"), "file": GOLDEN_LINES}


@pytest.mark.parametrize("value", TEXTS.values(), ids=TEXTS)
@pytest.mark.parametrize("call, text", WHOLE_TEXT.values(), ids=WHOLE_TEXT)
def test_one_whole_text_is_an_input_error(call, text, value):
    with pytest.raises(InputError) as info:
        call(value)
    assert str(info.value) == f"{text}, got one whole text ({type(value).__name__})"


@pytest.mark.parametrize("length", [2**63, 2**70], ids=["2**63", "2**70"])
def test_a_list_length_past_the_longest_list_is_an_input_error(length):
    with pytest.raises(InputError) as info:
        normalizer_z("rnd", length, 0)
    longest = f"list length must be at most {sys.maxsize}, the longest a list can be"
    assert str(info.value) == longest
    with pytest.raises(InputError):
        normalizer_z("rkl", length, length, 1)


@pytest.mark.parametrize("base", [3, Fraction(3), Decimal(3)], ids=["int", "fraction", "decimal"])
def test_a_log_base_is_kept_as_its_float(base):
    expected = bits(evaluated(MeasureConfig(log_base=3.0)))
    assert bits(evaluated(MeasureConfig(log_base=base))) == expected


# The sweep over every public callable: one valid call each, by its public
# name. Each argument that is not a record is given each value of HOSTILE in
# turn, and every such call returns, or raises a SerpBiasError with a one-line
# message; regularized_incomplete_beta may raise the ValueError it documents.
# A label class is called through from_str: calling the class looks a member
# up by value and raises ValueError, as every Enum does.
class Lines:
    """A value whose repr spans two lines."""

    def __repr__(self):
        return "first line\nsecond line"


HOSTILE = {
    "none": None,
    "empty-list": [],
    "empty-dict": {},
    "text": "x",
    "bytes": b"x",
    "big": 10**400,
    "minus-one": -1,
    "zero": 0,
    "nan": math.nan,
    "inf": math.inf,
    "object": object(),
    "nested": [[1]],
    "snan": Decimal("sNaN"),
    "true": True,
    "huge": 10**5000,  # past the digits Python writes in decimal
    "two-lines": Lines(),
}
REPORT = evaluate(TWO_RUNS)
TEST_RESULT = (1.0, 3, 0.5, 1.0, 0.5, None)
MIXED = RankedList(
    "e", "q", LeaningLabel.LIBERAL,
    [Document(k, PRO if k % 3 == 1 else StanceLabel.AGAINST, str(k)) for k in range(1, 8)],
)
VALID_CALLS = {
    "BaselineConfig": (BaselineConfig, (10, "rnd")),
    "BaselineReport": (serpbias.BaselineReport, ("stance", "rnd", 10, "pro", ("a",), ())),
    "BaselineScore": (serpbias.BaselineScore, ("a", "q1", "ok", 0.5, "")),
    "BiasRecord": (serpbias.BiasRecord, ("q1", 0.5)),
    "BiasSummary": (serpbias.BiasSummary, ("a", "rbp", 0.5, 0.5, ("q1",), (0.5,))),
    "ComparisonReport": (serpbias.ComparisonReport, tuple(vars(REPORT).values())),
    "ConfigError": (ConfigError, ("message",)),
    "ConvergenceError": (serpbias.ConvergenceError, ("message",)),
    "Dataset": (Dataset, (TWO_RUNS.runs, TWO_RUNS.query_table)),
    "DatasetReport": (serpbias.DatasetReport, (("a", "b"), 2, 4, 8)),
    "DegenerateSampleError": (serpbias.DegenerateSampleError, ("message",)),
    "Document": (Document, (1, PRO, "d")),
    "EngineRun": (serpbias.EngineRun, ("e", {"q": ONE_PRO})),
    "IdeologyLabel": (serpbias.IdeologyLabel.from_str, ("neutral",)),
    "InputError": (InputError, ("message",)),
    "LeaningLabel": (LeaningLabel.from_str, ("liberal",)),
    "MeasureConfig": (MeasureConfig, (10, 0.8, 2.0, "precision")),
    "MeasureUndefinedError": (serpbias.MeasureUndefinedError, ("message",)),
    "RankedList": (RankedList, ("e", "q", LeaningLabel.LIBERAL, ONE_PRO.docs)),
    "ReportConfig": (serpbias.ReportConfig, (10, 0.8, 2.0, 0.05, ("precision",))),
    "SerpBiasError": (SerpBiasError, ("message",)),
    "StanceLabel": (StanceLabel.from_str, ("pro",)),
    "TTestResult": (serpbias.TTestResult, TEST_RESULT),
    "TestEntry": (
        serpbias.TestEntry, ("a", None, "rbp", "ok", "", serpbias.TTestResult(*TEST_RESULT))
    ),
    "baseline_score": (serpbias.baseline_score, (MIXED, PRO, BaselineConfig(2))),
    "bias": (serpbias.bias, (ONE_PRO, MeasureConfig())),
    "dcg_at": (serpbias.dcg_at, (MIXED, PRO, 5, 2.0)),
    "distance_rkl": (serpbias.distance_rkl, (MIXED, PRO, 3)),
    "distance_rnd": (distance_rnd, (MIXED, PRO, 3)),
    "distance_rrd": (serpbias.distance_rrd, (MIXED, PRO, 3)),
    "evaluate": (evaluate, (TWO_RUNS, MeasureConfig(), "stance", None, 0.05)),
    "load_dataset": (serpbias.load_dataset, (str(GOLDEN_PATH),)),
    "mirror": (serpbias.mirror, (ONE_PRO,)),
    "normalizer_z": (normalizer_z, ("rnd", 20, 5, 10)),
    "one_sample_ttest": (one_sample_ttest, (SAMPLE, 0.0, None)),
    "paired_ttest": (paired_ttest, (SAMPLE, SAMPLE[::-1], 0.05)),
    "parse_dataset": (parse_dataset, (GOLDEN_LINES.splitlines(),)),
    "precision_at": (serpbias.precision_at, (MIXED, PRO, 5)),
    "rbp": (rbp, (MIXED, PRO, 0.8)),
    "regularized_incomplete_beta": (regularized_incomplete_beta, (1.0, 2.0, 0.5)),
    "render_report": (render_report, (REPORT, "json")),
    "report_from_json": (serpbias.report_from_json, (render_report(REPORT, "json"),)),
    "student_t_sf": (student_t_sf, (1.0, 3)),
    "summarize_run": (serpbias.summarize_run, (TWO_RUNS.runs[0], MeasureConfig())),
    "transform_list": (serpbias.transform_list, (ONE_PRO,)),
    "transform_stance_to_ideology": (
        serpbias.transform_stance_to_ideology,
        (LeaningLabel.LIBERAL, StanceLabel.PRO),
    ),
}
# The one known gap: normalizer_z's lru_cache hashes its arguments before its
# body reads them, so an unhashable argument or a signaling NaN ends in the
# cache's TypeError. A check in front of the cache would add a call per list
# to baseline_score, so it waits until the library times its own stages. These
# cells must still raise TypeError: a change that mends them empties this set.
UNREAD = {
    ("normalizer_z", position, value)
    for position in range(4)
    for value in ("empty-list", "empty-dict", "nested", "snan")
}
PUBLIC_CALLABLES = sorted(name for name in serpbias.__all__ if callable(getattr(serpbias, name)))


def swept_values(name, position, arg, value_name, value):
    """(cell name, value) for each way value takes the place of arg. Dataset's
    query table is also swept one level down: value as one query's whole
    entry, as its text and as its leaning."""
    yield value_name, value
    if (name, position) == ("Dataset", 1):
        query_id, (text, leaning) = next(iter(arg.items()))
        yield f"{value_name}-as-entry", {**arg, query_id: value}
        yield f"{value_name}-as-text", {**arg, query_id: (value, leaning)}
        yield f"{value_name}-as-leaning", {**arg, query_id: (text, value)}


def test_the_sweep_holds_one_valid_call_per_public_callable():
    assert sorted(VALID_CALLS) == PUBLIC_CALLABLES


@pytest.mark.parametrize("name", PUBLIC_CALLABLES)
def test_every_public_callable_returns_or_refuses_each_hostile_value(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # so the text "x" names no file
    call, args = VALID_CALLS[name]
    call(*args)
    documented = SerpBiasError
    if name == "regularized_incomplete_beta":
        documented = (SerpBiasError, ValueError)
    outcomes = {}
    for position, arg in enumerate(args):
        if isinstance(arg, Record):
            continue
        for value_name, value in HOSTILE.items():
            for cell, swept_arg in swept_values(name, position, arg, value_name, value):
                swept = (*args[:position], swept_arg, *args[position + 1 :])
                try:
                    call(*swept)
                except documented as exc:
                    if "\n" in str(exc):
                        outcomes[(name, position, cell)] = "a message of more than one line"
                except Exception as exc:  # any other exception is the finding to record
                    outcomes[(name, position, cell)] = type(exc).__name__
    unread = {cell for cell in UNREAD if cell[0] == name}
    assert outcomes == dict.fromkeys(unread, "TypeError")
