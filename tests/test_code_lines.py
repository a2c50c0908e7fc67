"""``tools/code_lines.py`` counts the lines that hold code: not blank lines,
comments or docstrings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
SPEC = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines)


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "m.py"
    path.write_text('"""Module\ndocstring."""\n\n# a comment\nx = """a\nb"""  # trailing\n\n'
                    'class C:\n    """Doc."""\n\n    def f(self):\n        """Doc."""\n'
                    '        return x\n')
    # x = """a / b""" / class C: / def f(self): / return x
    assert code_lines.code_lines(path) == 5
