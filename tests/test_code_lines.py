"""The code-line counter in tools/ leaves out docstrings, comments and
blank lines, and counts each line a multi-line token spans."""

import runpy
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
code_lines = runpy.run_path(str(TOOL))["code_lines"]


def test_docstrings_comments_and_blank_lines_are_not_code(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        '"""Module\ndocstring."""\n\n# comment\nx = (1,\n     2)  # trailing\n\n\n'
        'class C:\n    """Doc."""\n\n    def f(self):\n        """Doc."""\n'
        '        s = """not a\n        docstring"""\n        return s\n'
    )
    # x = (1, | 2) | class C: | def f | s = """not a | docstring""" | return s
    assert code_lines(path) == 7
