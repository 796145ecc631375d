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
    StanceLabel,
    distance_rnd,
    evaluate,
    normalizer_z,
    one_sample_ttest,
    paired_ttest,
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


@pytest.mark.parametrize("base", [3, Fraction(3), Decimal(3)], ids=["int", "fraction", "decimal"])
def test_a_log_base_is_kept_as_its_float(base):
    expected = bits(evaluated(MeasureConfig(log_base=3.0)))
    assert bits(evaluated(MeasureConfig(log_base=base))) == expected
