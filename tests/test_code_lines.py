"""benchmarks/code_lines.py counts code, not comments, docstrings or blanks."""

from code_lines import code_lines

SNIPPET = '''"""A module docstring
over two lines."""
import os  # a comment after code


# a comment line
class A:
    """A class docstring."""

    def f(self, x):
        """A function docstring."""
        s = """an assigned string,
        not a docstring"""
        t = "# not a comment"
        return x + len(s + t)
'''


def test_counts_code_lines_only():
    # import, class, def, the two lines of s, t and return
    assert code_lines(SNIPPET) == 7
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n') == 0
