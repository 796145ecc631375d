"""The package's public names, the names each module imports, and where records are stored."""

import ast
import pathlib
import types

import serpbias

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


def test_only_record_py_stores_record_fields():
    # record.py states once how a record keeps its fields: no other module
    # touches an instance dict or makes an instance without __init__.
    # Reading the fields through vars() is allowed.
    found = {}
    for path in sorted(pathlib.Path(serpbias.__file__).parent.glob("*.py")):
        if path.name == "record.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and (
                node.attr == "__dict__"
                or node.attr == "__new__" and isinstance(node.value, ast.Name)
                and node.value.id == "object"
            ):
                found.setdefault(path.name, []).append(node.lineno)
    assert found == {}
