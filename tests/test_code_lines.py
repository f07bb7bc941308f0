import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"


def _code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


def test_counts_code_outside_comments_and_docstrings():
    source = '''"""A module docstring
over two lines."""

import math  # a trailing comment leaves the line code

# a comment line


class Box:
    """A class docstring."""

    def area(self, side):
        """A function docstring."""
        text = """a string that is
not a docstring"""
        return math.pow(side, 2), text
'''
    # import, class, def, the string's two lines and the return.
    assert _code_lines()(source) == 6
