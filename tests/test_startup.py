"""What importing the package does to a fresh interpreter.

Each test starts its own interpreter, since this one has already imported
the package.  The tests compare ``sys.modules`` before and after the import
rather than checking membership, because ``site`` may load some of these
modules on its own.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_interpreter(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_importing_the_cli_loads_no_module_that_only_some_commands_use():
    added = set(fresh_interpreter(
        "import sys; before = set(sys.modules); import gwcount.cli; "
        "print(*sorted(set(sys.modules) - before))").split())
    assert {"gwcount.cli", "gwcount.tables", "argparse"} <= added
    unused = {"dataclasses", "inspect", "json", "csv", "random", "typing", "gwcount.checks"}
    assert added.isdisjoint(unused), sorted(added & unused)


def test_importing_gwcount_leaves_the_recursion_limit_alone():
    before, after = fresh_interpreter(
        "import sys; before = sys.getrecursionlimit(); import gwcount, gwcount.cli; "
        "print(before, sys.getrecursionlimit())").split()
    assert before == after
