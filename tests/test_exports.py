import ast
import inspect
from pathlib import Path

import markovtoric


def _imported_names():
    tree = ast.parse(inspect.getsource(markovtoric))
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def test_every_export_resolves():
    for name in markovtoric.__all__:
        assert getattr(markovtoric, name, None) is not None, name


def test_exports_match_imports():
    assert len(set(markovtoric.__all__)) == len(markovtoric.__all__)
    assert set(markovtoric.__all__) == _imported_names()



def _top_level_statements():
    src = Path(markovtoric.__file__).parent
    return [(path.stem, stmt) for path in sorted(src.glob("*.py"))
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body]


def _names_used(stmt):
    used = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_public_definition_is_exported_or_used():
    # A public function or class of a layer module that is neither
    # exported nor used by another top-level statement is dead code.
    statements = _top_level_statements()
    used = [_names_used(stmt) for _, stmt in statements]
    exported = set(markovtoric.__all__)
    dead = [f"{module}.{stmt.name}"
            for i, (module, stmt) in enumerate(statements)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_") and stmt.name not in exported
            and not any(stmt.name in u for k, u in enumerate(used) if k != i)]
    assert not dead, f"public but neither exported nor used: {dead}"
