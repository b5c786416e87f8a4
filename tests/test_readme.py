"""The README's Python examples run as written: every ```python block, in
order, in one namespace (later blocks use names the earlier ones define)."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK_RE = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


def test_readme_python_blocks_run(capsys):
    blocks = BLOCK_RE.findall(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 2
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    assert "ev=withdraw-finalized" in capsys.readouterr().out
