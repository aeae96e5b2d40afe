"""The README's documented library surface and its first command."""

from __future__ import annotations

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

import matroidcat
from matroidcat.catalogue import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_snippet() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_snippet_prints_what_it_documents():
    snippet = _library_snippet()
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(snippet, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == [
        "14",
        "(False, FanoWitness(flat=frozenset(), kind='fano'))",
        "((0, 3, 6, 3, 1), (3, 7, 0, 0, 0), (4, 0, 0, 0, 0), (1, 0, 0, 0, 0))",
        "(1, 2, 3, 4, 5)",
    ]
    # each print states its output in the comment beside it
    documented = re.findall(r"print\(.*?\)[ \t]+# (.*)", snippet)
    assert documented == out.getvalue().splitlines()


def test_first_command_line_example_prints_what_it_documents(capsys):
    # the first command of the Command line section, and the output lines
    # commented right below it
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    example = re.search(r"^matroidcat (.*)\n((?:# .*\n)+)", block, re.M)
    documented = [line.removeprefix("# ") for line in example.group(2).splitlines()]
    assert main(example.group(1).split()) == 0
    assert capsys.readouterr().out.splitlines() == documented


def test_every_exported_name_resolves():
    # the package root exports exactly the names the Library snippet imports
    imported = re.search(r"^from matroidcat import (.*)$", _library_snippet(), re.M)
    assert sorted(matroidcat.__all__) == sorted(imported.group(1).split(", "))
    for name in matroidcat.__all__:
        assert getattr(matroidcat, name) is not None, name
