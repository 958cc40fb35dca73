"""The package's public names: ``vrgrad.__all__`` is exactly the public
names ``vrgrad/__init__.py`` imports, so a name half removed (from the
imports but not from ``__all__``, or the other way) fails here, not in a
user's ``from vrgrad import *``."""

import ast
from pathlib import Path

import vrgrad


def imported_public_names():
    tree = ast.parse(Path(vrgrad.__file__).read_text())
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names if not (alias.asname or alias.name).startswith("_")]


def test_all_is_exactly_the_imported_public_names():
    names = imported_public_names()
    assert len(vrgrad.__all__) == len(set(vrgrad.__all__))
    assert sorted(vrgrad.__all__) == sorted(names)


def test_every_name_in_all_resolves():
    namespace = {}
    exec("from vrgrad import *", namespace)
    for name in vrgrad.__all__:
        assert namespace[name] is getattr(vrgrad, name)
