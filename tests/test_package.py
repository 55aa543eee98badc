"""The package's public surface."""

from __future__ import annotations

import ast
import re
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


def test_readme_python_examples_run():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
