"""README's Library examples run as written, and its option table matches
the command line."""

import argparse
from pathlib import Path
import re

from hmplan.cli import _build_parser

README = Path(__file__).parent.parent / "README.md"


def test_python_blocks_run_in_order(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # The first block prints the cost its comment gives.
    assert capsys.readouterr().out.startswith("7\n")


def test_option_table_lists_every_plan_option():
    # The first cell of each row of the "Command line" table names options.
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `--")]
    listed = [opt for row in rows for opt in re.findall(r"--[a-z][a-z-]*", row.split(" | ")[0])]
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = [opt for action in sub.choices["plan"]._actions
               for opt in action.option_strings if opt != "--help" and opt.startswith("--")]
    assert sorted(listed) == sorted(options)
