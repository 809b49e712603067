"""The README's library overview, run: each expression must give the value
in its `# value` comment, so the overview cannot drift from the code."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_overview_values():
    section = README.read_text(encoding="utf-8").split("## Library overview", 1)[1]
    source = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset :].strip()
        assert comment.startswith("#"), f"no value comment: {code}"
        assert eval(code, namespace) == ast.literal_eval(comment[1:].strip()), code
        checked += 1
    assert checked, "no expression in the overview"
