"""The README's library example runs, and every value its comments show is
what the line computes."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_block_runs_and_matches_its_comments():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert blocks
    namespace: dict = {}
    checked = 0
    for block in blocks:
        exec(block, namespace)
        for line in block.splitlines():
            code, sep, comment = line.partition("  # ")
            if not sep:
                continue
            try:
                want = ast.literal_eval(comment.split(";")[0].strip())
            except (ValueError, SyntaxError):
                continue
            assert eval(code, namespace) == want, line
            checked += 1
    assert checked >= 4
