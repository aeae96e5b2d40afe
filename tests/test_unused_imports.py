"""No module of the package, the tests or the tools imports a name it never
reads.

A name bound by an import counts as read when it appears as a ``Name`` node
of the module (an attribute chain starts with one) or is one of its string
constants, which covers ``__all__`` and quoted annotations.  A docstring
that mentions the name does not read it.  ``from __future__`` imports
switch on a feature and bind nothing to read.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unread_imports(source: str) -> list[str]:
    """Names that the module's imports bind and nothing reads."""
    bound = []
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return [name for name in bound if name not in read]


def test_the_check_finds_an_unread_import():
    source = (
        '"""Uses os and d."""\n'
        "from __future__ import annotations\n"
        "import os\nimport os.path\nimport sys\nfrom a import b, c as d\n"
        "__all__ = ['b']\nx: 'd' = sys.argv\n"
    )
    assert unread_imports(source) == ["os", "os"]


def test_every_import_is_read():
    unread = {
        str(path.relative_to(ROOT)): unread_imports(path.read_text())
        for folder in ("src/matroidcat", "tests", "tools")
        for path in sorted((ROOT / folder).glob("*.py"))
    }
    assert {path: names for path, names in unread.items() if names} == {}
