"""The README's "Library" example prints what its comments say.

The first ``python`` block after the "## Library" heading is run as it
stands; each ``print`` line ends in a ``# ...`` comment giving the line it
prints.
"""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


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
