"""The package's public surface."""

from __future__ import annotations

import ast
from pathlib import Path

import calerr


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse(Path(calerr.__file__).read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]
    assert calerr.__all__ == [*imported, "__version__"]
