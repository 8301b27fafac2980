"""Count the code lines of Python sources: no docstrings, comments or blank lines.

A code line is a source line that holds part of a token other than a
comment, and that lies in no docstring: the string that opens a module,
class or function body. Files under a `data` directory are left out. This
module is not collected by pytest; run it from the command line, for
example

    python tests/codelines.py src/gridjam

which prints each module's count and the total. Paths may be files or
directories, which are searched for `*.py` files.
"""

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path) -> int:
    """The number of code lines in the Python source file at path."""
    source = Path(path).read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and ast.get_docstring(node):
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    with open(path, "rb") as fh:
        for token in tokenize.tokenize(fh.readline):
            if token.type not in _NOT_CODE:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def sources(paths) -> list:
    """Every `*.py` file under paths, sorted, leaving out any under a `data` directory."""
    found = []
    for path in map(Path, paths):
        found += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return [path for path in found if "data" not in path.parts]


if __name__ == "__main__":
    total = 0
    for path in sources(sys.argv[1:]):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
