"""The code-line counter behind CHANGES.md's "src/ code lines" figures."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


SAMPLE = '''"""A module docstring
over two lines."""

# a comment
import os  # a trailing comment counts as code


def f(x):
    """A function docstring."""
    message = """a string that is not a docstring
    spans two lines"""
    return (x +
            1)


class K:
    """A class docstring."""

    value = 1
'''


def test_counts_code_lines_only(code_lines, tmp_path):
    # import, def, the two-line string, return (two lines), class, value
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert code_lines(path) == 8
