#!/usr/bin/env python3
"""Code lines of Python files: lines that hold a token other than a comment,
a newline or indentation, and that are not part of a docstring.

Usage: python3 scripts/code_lines.py FILE...

Prints "<count> <file>" for each file and then "<total> total", the size
that ROADMAP aim 2 tracks next to ``wc -l``. A docstring is the first
statement of a module, class or function when it is a string constant; any
other string, on one line or many, counts as code.
"""

import argparse
import ast
import io
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every docstring in the parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: str) -> int:
    with open(path, "rb") as fh:
        source = fh.read()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source, path)))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+", help="Python source files")
    args = ap.parse_args()
    total = 0
    for path in args.files:
        count = code_lines(path)
        total += count
        print(f"{count} {path}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
