"""tools/code_lines.py counts the lines that hold a statement's tokens."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def _count(tmp_path, source: str) -> int:
    path = tmp_path / "module.py"
    path.write_text(source)
    return code_lines.code_lines(path)


def test_docstring_statement_does_not_count(tmp_path):
    assert _count(tmp_path, '"""Module docstring."""\n') == 0
    assert _count(tmp_path, 'def f():\n    """Docstring\n    over lines."""\n'
                            '    return 1\n') == 2
    # a string that is part of an expression is code
    assert _count(tmp_path, 'x = "text"\n') == 1


def test_comments_and_blank_lines_do_not_count(tmp_path):
    assert _count(tmp_path, '# a comment\n\n\nx = 1  # trailing\n\n# end\n') == 1


def test_statement_over_three_lines_counts_three(tmp_path):
    assert _count(tmp_path, 'x = (1 +\n     2 +\n     3)\n') == 3
