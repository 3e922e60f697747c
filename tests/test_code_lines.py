"""``tools/code_lines.py``, the code-line count that simplifications cite."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SAMPLE = '''"""Module docstring,
over two lines."""

import math  # a comment after code counts as code

# a comment alone does not count


def f(x):
    """A function docstring

    that spans several lines.
    """
    y = (x +
         1)
    return math.sqrt(y)


class C:
    """One-line class docstring."""

    value = "not a docstring"
'''


def _load():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # import, def, the two lines of the statement, return, class, value
    assert _load().code_lines(path) == 7
