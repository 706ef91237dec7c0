"""README's Python API runs as written, and every `pp.` name it uses exists."""

import re
from pathlib import Path

import planprobe as pp

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_python_api():
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert [n for n in sorted(set(re.findall(r"\bpp\.(\w+)", README))) if not hasattr(pp, n)] == []
