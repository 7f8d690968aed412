"""The README's examples print what the README shows.

The first ``python`` block after the "## Library" heading is run as it
stands; each ``print`` line ends in a ``# ...`` comment giving the line it
prints.  Each ``mvcalc derive`` and ``mvcalc eval`` command of the ``sh``
blocks runs in-process through ``cli.run``, written both ``--flag value``
and ``--flag=value``, and prints the lines shown under it.
"""

import contextlib
import io
import itertools
import re
import shlex
from pathlib import Path

import pytest

from mvcalc import cli

README = Path(__file__).resolve().parents[1] / "README.md"
GOLDEN = Path(__file__).resolve().parent / "golden" / "readme_cli.txt"


def library_block() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_prints_its_comments():
    block = library_block()
    expected = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert len(expected) == 2
    assert out.getvalue().splitlines() == expected


def cli_examples() -> list:
    """(argv, printed lines) of each ``$ mvcalc derive`` and ``$ mvcalc eval`` line in the
    README's ``sh`` blocks, ``\\`` continuations joined; the lines it prints run to the next
    ``$`` line or the block's end."""
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        lines = block.replace("\\\n", " ").splitlines()
        for pos, line in enumerate(lines):
            if line.startswith(("$ mvcalc derive ", "$ mvcalc eval ")):
                shown = itertools.takewhile(lambda out: not out.startswith("$ "), lines[pos + 1:])
                examples.append((shlex.split(line)[2:], list(shown)))
    return examples


def equals_spelling(argv: list) -> list:
    """``argv`` with each ``--flag value`` pair written ``--flag=value``."""
    out, args = [], iter(argv)
    for arg in args:
        out.append(f"{arg}={next(args)}" if arg.startswith("--") else arg)
    return out


@pytest.mark.parametrize("spell", [list, equals_spelling], ids=["flag-value", "flag=value"])
def test_cli_examples_print_what_the_readme_shows(spell):
    examples = cli_examples()
    assert len(examples) == 8
    # the golden file that CI diffs the commands against holds the same lines
    assert [line for _, shown in examples for line in shown] == GOLDEN.read_text().splitlines()
    for argv, shown in examples:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.run(spell(argv)) == 0, argv
        assert out.getvalue().splitlines() == shown, argv
