"""The README's library example runs and prints what it says it does."""

import re
from pathlib import Path

from plankb.mapper import action_iri

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_the_four_blocksworld_actions(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    rows = [{"a": action_iri("blocksworld", name)}
            for name in ("pick-up", "put-down", "stack", "unstack")]
    assert capsys.readouterr().out == repr(rows) + "\n"
