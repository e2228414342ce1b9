"""The README's Python examples run against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    text = README.read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, flags=re.M | re.S))
    assert blocks
    for block in blocks:
        # pad with blank lines so a traceback points at the README's own line
        source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})
