"""tools/code_lines.py, the line count that simplicity claims cite."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts as code

# a comment line


class Thing:
    """Class docstring."""

    size = 1


def f(x):
    """Function
    docstring."""
    total = (
        x
        + 1
    )
    return total


async def g():
    """Async docstring."""
    return "not a docstring"
'''


def test_counts_code_lines_only():
    # counted: import, class, size, def f, the four lines of the
    # parenthesized expression, return, async def, return
    assert code_lines.code_lines(SOURCE) == 11


def test_a_string_after_the_first_statement_counts():
    assert code_lines.code_lines('x = 1\n"""not a docstring"""\n') == 2


def test_default_run_totals_its_modules(capsys):
    assert code_lines.main([]) == 0
    rows = [line.rsplit(None, 1) for line in capsys.readouterr().out.splitlines()]
    counts = {name: int(n.replace(",", "")) for name, n in rows}
    total = counts.pop("total")
    assert set(counts) >= {"__init__.py", "enumeration.py", "catalogue.py"}
    assert all(re.fullmatch(r"\w+\.py", name) for name in counts)
    assert total == sum(counts.values())


def test_several_directories_print_one_grand_total(capsys):
    root = TOOL.parent.parent
    dirs = [str(root / "src" / "matroidcat"), str(root / "tests")]
    tables = []
    for argv in ([dirs[0]], [dirs[1]], dirs):
        assert code_lines.main(argv) == 0
        rows = [line.rsplit(None, 1) for line in capsys.readouterr().out.splitlines()]
        tables.append([(name, int(n.replace(",", ""))) for name, n in rows])
    package, tests, both = tables
    # the modules of each directory, under their paths, then one total
    assert [name for name, _ in both[:-1]] == [
        str(Path(d) / name)
        for d, table in zip(dirs, (package, tests))
        for name, _ in table[:-1]
    ]
    assert [n for _, n in both[:-1]] == [n for _, n in package[:-1] + tests[:-1]]
    assert both[-1] == ("total", package[-1][1] + tests[-1][1])
