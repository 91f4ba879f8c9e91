"""The README's examples run: the library block's values match its
comments, and every shell example prints what the README shows."""

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

from eulerparts.cli import SERIES, main
from eulerparts.verify import REGISTRY

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


def shell_examples(text):
    """(command line, output lines) for every ``$ eulerparts`` line in the
    README's code blocks; the output runs to the next ``$`` line or the end
    of the block."""
    bodies = re.split(r"^```.*\n", text, flags=re.M)[1::2]
    for body in bodies:
        for chunk in re.split(r"^\$ ", body, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            if command.startswith("eulerparts "):
                yield command, output.rstrip("\n").split("\n")


def line_pattern(line):
    """A shown line as a regex: ``(N ms)`` and ``(...)`` stand for any
    parenthesised wall time."""
    chunks = re.split(r"\(\d+ ms\)|\(\.\.\.\)", line)
    return r"\(\d+ ms\)".join(map(re.escape, chunks))


def test_readme_shell_examples():
    examples = list(shell_examples(README.read_text(encoding="utf-8")))
    assert len(examples) >= 8
    for command, shown in examples:
        argv = shlex.split(command)[1:]
        head = None
        if "|" in argv:
            pipe = argv.index("|")
            assert argv[pipe + 1] == "head", command
            head = int(argv[pipe + 2].lstrip("-"))
            argv = argv[:pipe]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code == 0, command
        lines = out.getvalue().rstrip("\n").split("\n")[:head]
        assert len(lines) == len(shown), command
        for got, want in zip(lines, shown):
            assert re.fullmatch(line_pattern(want), got), (command, got, want)


def test_readme_verify_table_lists_the_registry():
    section = README.read_text(encoding="utf-8").split("### verify", 1)[1]
    section = section.split("\n## ", 1)[0]
    assert re.findall(r"^\| `([\w-]+)` \|", section, re.M) == list(REGISTRY)


def test_readme_series_list_names_every_series():
    section = README.read_text(encoding="utf-8").split("### series", 1)[1]
    listed = section.split("Available:", 1)[1].split("\n\n", 1)[0]
    listed = re.sub(r"\([^)]*\)", "", listed)  # the notes on some names
    assert re.findall(r"`([\w-]+)`", listed) == list(SERIES)
