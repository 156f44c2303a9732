"""The README's library examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_runs(capsys):
    text = README.read_text()
    start = text.index("\n## Library quickstart\n")
    section = text[start : text.index("\n## ", start + 1)]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:  # later blocks use the names the first one imports
        exec(compile(block, str(README), "exec"), namespace)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("tolerance_met ")
    assert lines[1:] == ["True", "True", "3.0"]
