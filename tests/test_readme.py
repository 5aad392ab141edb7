"""README's Library examples run as written."""

from pathlib import Path
import re

README = Path(__file__).parent.parent / "README.md"


def test_python_blocks_run_in_order(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # The first block prints the cost its comment gives.
    assert capsys.readouterr().out.startswith("7\n")
