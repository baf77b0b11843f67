"""README.md's examples: every shell session and Python block prints what it shows."""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

from rcbc.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_blocks(language: str) -> list[list[str]]:
    """The lines of each ```language block of README.md, in order."""
    blocks = re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(), re.S | re.M)
    return [block.splitlines() for block in blocks]


def shell_sessions() -> list[tuple[str, list[str]]]:
    """Each `$ rcbc ...` line of the sh blocks with the output lines under it."""
    sessions: list[tuple[str, list[str]]] = []
    for block in fenced_blocks("sh"):
        shown = None  # lines before a block's first `$` are not output
        for line in block:
            if line.startswith("$ "):
                shown = []
                sessions.append((line[2:], shown))
            elif shown is not None:
                shown.append(line)
    return sessions


def leading_value(comment: str) -> str:
    """The value a `# ...` comment begins with: a quoted string, a dict, or a word."""
    if comment.startswith('"'):
        return comment[1 : comment.index('"', 1)]
    return re.match(r"\{[^}]*\}|[^\s,]+", comment).group(0)


def test_shell_examples_print_what_they_show(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # later examples read the files earlier ones write
    sessions = shell_sessions()
    assert [command.split()[:2] for command, _ in sessions] == [
        ["rcbc", "construct"],
        ["rcbc", "construct"],
        ["rcbc", "verify"],
        ["rcbc", "retrieve"],
        ["rcbc", "optimal"],
        ["rcbc", "table"],
        ["rcbc", "girth-search"],
    ]
    for command, shown in sessions:
        code = main(shlex.split(command)[1:])
        out, _ = capsys.readouterr()
        assert code == 0, command
        assert out.splitlines() == shown, command


def test_python_examples_print_what_their_comments_say():
    blocks = fenced_blocks("python")
    assert len(blocks) == 2  # the quick start and the graph example
    for block in blocks:
        expected = [
            leading_value(line.split("# ", 1)[1])
            for line in block
            if line.startswith("print(")
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec("\n".join(block), {})
        assert out.getvalue().splitlines() == expected
