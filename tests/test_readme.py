"""The README's library examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 3
    namespace: dict = {}
    for block in blocks:  # later blocks use the names the first one imports
        exec(compile(block, str(README), "exec"), namespace)
    lines = capsys.readouterr().out.splitlines()
    # the quickstart's solve, its two verdicts, the custom operator's L, then the strong-regime example
    assert lines[0].startswith("tolerance_met ")
    assert lines[1:] == ["True", "True", "3.0", "tolerance_met"]
