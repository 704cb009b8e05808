import ast
import inspect

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
