"""The README's library example runs and prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example():
    text = README.read_text()
    section = text[text.index("## Library example") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_prints_its_comments(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == ["-528.000 -528.000", "3.002"]
