"""Every fenced python block of README.md runs, each in a fresh namespace."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    """(first line number, source) of each ```python block; the source is
    padded with blank lines so tracebacks point at README lines."""
    text = README.read_text(encoding="utf-8")
    out = []
    for match in re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S):
        line = text.count("\n", 0, match.start(1))
        out.append((line + 1, "\n" * line + match.group(1)))
    return out


BLOCKS = python_blocks()


def test_readme_has_python_blocks():
    assert BLOCKS


# ids count the blocks, so prose edits above an example do not rename its test
@pytest.mark.parametrize("line, source", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_block_runs(line, source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})
