"""Every ```python block of README.md runs, with warnings as errors, and the
Layout table has one row per module of the package."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bcsim

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code):
    src = str(Path(bcsim.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and not proc.stderr, proc.stderr


def test_layout_has_one_row_per_module():
    section = README.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")][2:]  # past the header
    named = [re.match(r"\| `bcsim\.(\w+)` \|", row) for row in rows]
    assert all(named), [row for row, match in zip(rows, named) if not match]
    package = Path(bcsim.__file__).resolve().parent
    modules = sorted(path.stem for path in package.glob("*.py")
                     if path.stem not in ("__init__", "__main__"))
    assert sorted(match[1] for match in named) == modules
