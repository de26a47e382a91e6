"""The command-line examples of README.md print what the README shows.

Every `$ dercalc ...` line under "Command line" runs through `cli.main`,
and its stdout is compared line for line with the lines the README shows
after it, up to the next blank line or the end of the block.  A line
`...` in the README stands for any number of printed lines.  The table
file `rem1.txt` is `tests/data/rem1_table.txt`.
"""
import re
import shlex
from pathlib import Path

import pytest

from dercalc.cli import main

ROOT = Path(__file__).resolve().parent.parent
FILES = {"rem1.txt": str(ROOT / "tests" / "data" / "rem1_table.txt")}


def examples():
    """(argv, expected lines) of each example in the "Command line" section."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    found = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        for example in block.strip("\n").split("\n\n"):
            command, *lines = example.split("\n")
            assert command.startswith("$ dercalc "), command
            argv = [FILES.get(arg, arg) for arg in shlex.split(command)[2:]]
            found.append((argv, lines))
    return found


EXAMPLES = examples()


def matches(out, expected) -> bool:
    """Whether `out` is `expected` with each `...` line standing for any
    run of lines."""
    if "..." not in (line.strip() for line in expected):
        return out == expected
    i = next(i for i, line in enumerate(expected) if line.strip() == "...")
    head, rest = expected[:i], expected[i + 1:]
    return out[:len(head)] == head and any(
        matches(out[j:], rest) for j in range(len(head), len(out) + 1))


def test_readme_has_the_nine_examples():
    assert len(EXAMPLES) == 9


@pytest.mark.parametrize("argv, expected", EXAMPLES, ids=[" ".join(a[:2]) for a, _ in EXAMPLES])
def test_readme_example_prints_what_the_readme_shows(argv, expected, capsys):
    main(argv)
    out = capsys.readouterr().out.splitlines()
    assert matches(out, expected), "\n".join(out)


def test_an_elision_stands_for_any_run_of_lines():
    assert matches(["a", "b", "c"], ["a", "...", "c"])
    assert matches(["a", "c"], ["a", "...", "c"])
    assert matches(["a", "b"], ["a", "  ..."])
    assert not matches(["a", "b"], ["a", "...", "c"])
    assert not matches(["b", "c"], ["a", "...", "c"])
    assert not matches(["a", "b"], ["a"])
