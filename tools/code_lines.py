"""Count the lines of each module of a package that hold code.

A line holds code when some token on it is neither a comment nor a line
break; lines that belong to a docstring (the string that opens a module,
class or function body) do not count.  With no argument the script counts
``src/matroidcat`` beside it:

    python3 tools/code_lines.py            # src/matroidcat
    python3 tools/code_lines.py some/pkg   # any directory of modules
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}

_DEFAULT_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "matroidcat"


def code_lines(source: str) -> int:
    """Number of lines of source that hold code."""
    docstring_lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstring_lines.update(range(doc.lineno, doc.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else _DEFAULT_PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:20} {count:6,}")
    print(f"{'total':20} {total:6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
