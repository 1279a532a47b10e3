"""The README's Python examples run as written."""

import re
from pathlib import Path

import pytest
from conftest import run_python

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                    re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=lambda code: code.splitlines()[0][:40])
def test_readme_python_block_runs(tmp_path, code):
    run = run_python(code=code, cwd=tmp_path, timeout=120)
    assert run.returncode == 0, run.stderr
