"""The README's library examples and CLI lines run as written."""

import re
import shlex
import shutil
from pathlib import Path

from tsengsplit.cli import main

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


def test_readme_cli_lines_run(tmp_path, monkeypatch, capsys):
    """Each ``tsengsplit`` line of a bash block, the install block's aside, in
    order and in a directory holding ``configs/``, exits 0."""
    blocks = re.findall(r"^```bash\n(.*?)^```$", README.read_text(), re.M | re.S)
    lines = [
        line
        for block in blocks
        if "pip install" not in block
        for line in block.splitlines()
        if line.startswith("tsengsplit ")
    ]
    assert len(lines) == 6
    shutil.copytree(README.parent / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
