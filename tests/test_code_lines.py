"""tools/code_lines.py counts a line when part of a token lies on it,
leaving out comments and docstrings."""
import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""A module docstring
over two lines."""
import os

# a comment line


def f(x):
    """A function docstring."""
    "a string statement that is not first"
    return max(
        x,
        0,
    )
'''
# by hand: `import os`, `def f(x):`, the second string, and the call's
# four lines
FIXTURE_CODE_LINES = 7


def test_fixture_matches_the_hand_count():
    assert code_lines.count_code_lines(FIXTURE) == FIXTURE_CODE_LINES


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1  # a trailing comment\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["7", "1", "8"]
    assert out[-1].endswith("total")
