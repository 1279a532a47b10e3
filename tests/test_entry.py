"""The process entry, `fibersdc.__main__.run`: what `python -m fibersdc`
and the installed `fibersdc` script call.  The CLI tests call `cli.main`
in-process; these run the real entry, in a child or with `main` stubbed.
"""

import ast
import gc
import os
import re
import subprocess
import sys
import weakref
from importlib import import_module
from pathlib import Path

import fibersdc.__main__ as entry
from fibersdc import cli

ROOT = Path(__file__).resolve().parents[1]


def script_target() -> str:
    """The `fibersdc` line of `[project.scripts]` in pyproject.toml.  Read
    with a regex: Python 3.10 has no `tomllib`."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert section, "pyproject.toml has no [project.scripts]"
    line = re.search(r'^fibersdc\s*=\s*"([^"]*)"\s*$', section.group(1), re.M)
    assert line, "[project.scripts] has no fibersdc script"
    return line.group(1)


def test_the_script_calls_the_function_python_m_runs():
    module, _, name = script_target().partition(":")
    # `python -m fibersdc` executes this module as __main__; its guard calls the entry.
    assert module == "fibersdc.__main__"
    tree = ast.parse(Path(entry.__file__).read_text(encoding="utf-8"))
    guard = next(node for node in tree.body if isinstance(node, ast.If))
    called = {
        node.func.id for node in ast.walk(guard)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert called == {"SystemExit", name}
    assert getattr(import_module(module), name) is entry.run


def python_m_fibersdc(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.pop(cli.OUTDIR_ENV, None)
    return subprocess.run(
        [sys.executable, "-m", "fibersdc", *argv], env=env, capture_output=True, text=True
    )


def test_python_m_fibersdc_writes_and_echoes_the_report(tmp_path):
    done = python_m_fibersdc("calibrate", "--grid", "3", "--outdir", str(tmp_path))
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (tmp_path / "calibration_report.txt").read_text(encoding="utf-8")


def test_python_m_fibersdc_exits_2_naming_a_bad_setting(tmp_path):
    done = python_m_fibersdc(
        "characterize", "--set", "source_fidelity=nan", "--outdir", str(tmp_path)
    )
    assert done.returncode == 2
    assert "source_fidelity must be finite" in done.stderr
    assert done.stdout == ""


class _Node:
    pass


def test_the_entry_freezes_the_import_heap_and_keeps_collecting(monkeypatch):
    seen = {}

    def stub_main():
        seen["enabled"] = gc.isenabled()
        seen["frozen"] = gc.get_freeze_count()
        # A cycle the command makes is still reclaimed.
        node = _Node()
        node.self = node
        ref = weakref.ref(node)
        del node
        gc.collect()
        seen["cycle_freed"] = ref() is None
        return 7

    monkeypatch.setattr(cli, "main", stub_main)
    try:
        assert entry.run() == 7
    finally:
        gc.unfreeze()
    assert seen["enabled"]
    assert seen["frozen"] > 0
    assert seen["cycle_freed"]
