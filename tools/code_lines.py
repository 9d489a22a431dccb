"""Count the code lines of Python files: lines holding a token that is not
a comment, with blank lines and docstrings left out.

    python tools/code_lines.py src/totsim [more files or directories]

Prints each file's count and the total. A directory counts every `*.py`
file under it. A docstring is the string-literal first statement of a
module, class or function; a line is code when a token other than a
comment, a newline or an indent starts on it or a multi-line token spans it.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring in `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """How many lines of `path` hold code."""
    with open(path, "rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
        f.seek(0)
        tree = ast.parse(f.read())
    lines = set()
    for tok in tokens:
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(tree))


def main(argv: list[str]) -> int:
    files = []
    for arg in argv or ["."]:
        path = Path(arg)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
