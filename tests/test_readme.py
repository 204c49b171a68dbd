"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    """The python block under the README's ``## Library quick start``."""
    section = README.read_text(encoding="utf-8").split(
        "\n## Library quick start\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_prints_what_its_comments_say():
    code = _quick_start()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    comments = [line.split("# ", 1)[1] for line in code.splitlines()
                if line.startswith("print(")]
    assert len(comments) == len(printed) == 3, (comments, printed)
    for comment, line in zip(comments, printed):
        assert comment.startswith(line), (comment, line)
