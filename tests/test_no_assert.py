"""Runtime checks in the package raise real exceptions: ``python -O`` strips
``assert`` statements, so none may appear in the sources of toeppencil."""

import ast
from pathlib import Path

import toeppencil


def test_no_assert_in_package_sources():
    files = sorted(Path(toeppencil.__file__).parent.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
