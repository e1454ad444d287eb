"""Count the code lines of every Python file under a directory.

    python3 tools/code_lines.py <dir>

A code line is a line that holds a token which is neither a comment nor
a docstring: blank lines, comment lines and the lines of a module, class
or function docstring do not count, and a string or bracket that spans
lines counts every line it spans. Prints one `<count> <file>` line per
file, sorted by path, then `<total> total`.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

# Tokens that carry no code: layout, comments and the encoding marker.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.AST) -> set:
    """(line, column) of the first token of every docstring in tree."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            first = node.body[0]
            starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """How many lines of source hold a token that is neither a comment
    nor a docstring."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE or token.start in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/code_lines.py <dir>", file=sys.stderr)
        return 2
    counts = {}
    for folder, _, names in os.walk(argv[0]):
        for name in names:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as fh:
                    counts[path] = code_lines(fh.read())
    for path in sorted(counts):
        print(f"{counts[path]} {path}")
    print(f"{sum(counts.values())} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
