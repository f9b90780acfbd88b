import importlib.util
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _opcount():
    return _tool("opcount")


def test_opcount_counts_the_instructions_of_every_frame_called():
    counted = _opcount().counted
    before = sys.gettrace()

    def loop(n):
        total = 0
        for i in range(n):
            total += square(i)
        return total

    def square(i):
        return i * i

    out, small = counted(lambda: loop(10))
    assert out == 285 and small > 10
    # the same work counts the same, more work counts more, and the
    # tracer that ran before is back afterwards
    assert counted(lambda: loop(10)) == (285, small)
    assert counted(lambda: loop(20))[1] > small
    assert sys.gettrace() is before


def test_loc_counts_code_lines_without_docstrings_comments_or_blanks():
    source = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line


class Box:
    """Class docstring."""

    # a comment line
    size = 2


def area(box):
    """Function docstring,

    over three lines."""
    text = """a string that is
    not a docstring"""
    return box.size * len(text)
'''
    # import, class, size, def, text (two lines) and return
    assert _tool("loc").code_lines(source) == 7
