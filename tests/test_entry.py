"""The process entry, `fibersdc.__main__.run`: what `python -m fibersdc`
and the installed `fibersdc` script call.  The CLI tests call `cli.main`
in-process; these run the real entry, in a child or with `main` stubbed.
"""

import ast
import hashlib
import hmac
import io
import json
import os
import re
import subprocess
import sys
from importlib import import_module
from importlib.util import find_spec
from pathlib import Path
from types import SimpleNamespace

import pytest

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


def python_m_fibersdc(
    *argv: str, code: str | None = None, stdout=subprocess.PIPE
) -> subprocess.CompletedProcess:
    """Run `python -m fibersdc ARGV` in a child, or `python -c CODE ARGV`
    when `code` is given, with this checkout's sources first on the path.
    The child's stdout is block-buffered, as on a pipe by default, so
    output the entry fails to flush is lost."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.pop(cli.OUTDIR_ENV, None)
    env.pop("PYTHONUNBUFFERED", None)
    entry_args = ["-m", "fibersdc"] if code is None else ["-c", code]
    return subprocess.run(
        [sys.executable, *entry_args, *argv],
        env=env, stdout=stdout, stderr=subprocess.PIPE, text=True,
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


class _Recorder(io.StringIO):
    """A stream that logs its flushes in the shared event list."""

    def __init__(self, events: list, name: str, fail: bool = False):
        super().__init__()
        self.events, self.name, self.fail = events, name, fail

    def flush(self):
        self.events.append(f"flush {self.name}")
        if self.fail:
            raise BrokenPipeError(32, "Broken pipe")


def stub_the_exit(monkeypatch, events: list, stdout_fails: bool = False) -> None:
    """Stub `main` to print and return 7, and record what `run` does
    after it.  The real `atexit._run_exitfuncs` would run and clear the
    pytest process's own callbacks, so the entry gets a stand-in; a child
    test runs the real one.  The entry's block on `_hashlib` is undone
    after the test, so this process keeps its OpenSSL-backed hashlib."""
    def stub_main():
        print("report")
        return 7

    monkeypatch.setitem(sys.modules, "_hashlib", sys.modules.get("_hashlib"))
    monkeypatch.setattr(cli, "main", stub_main)
    monkeypatch.setattr(
        entry, "atexit", SimpleNamespace(_run_exitfuncs=lambda: events.append("atexit"))
    )
    monkeypatch.setattr(entry.os, "_exit", lambda code: events.append(("os._exit", code)))
    monkeypatch.setattr(sys, "stdout", _Recorder(events, "stdout", fail=stdout_fails))
    monkeypatch.setattr(sys, "stderr", _Recorder(events, "stderr"))


def test_the_entry_runs_atexit_flushes_and_ends_with_mains_code(monkeypatch):
    events: list = []
    stub_the_exit(monkeypatch, events)
    entry.run()
    assert events == ["atexit", "flush stdout", "flush stderr", ("os._exit", 7)]
    assert sys.stdout.getvalue() == "report\n"


def test_a_failed_flush_leaves_through_the_interpreter_exit(monkeypatch):
    # The interpreter's exit flushes again and reports the failure itself.
    events: list = []
    stub_the_exit(monkeypatch, events, stdout_fails=True)
    assert entry.run() == 7
    assert events == ["atexit", "flush stdout"]


def test_the_entry_blocks_openssl_before_it_imports_the_cli(monkeypatch):
    stub_the_exit(monkeypatch, [])
    del sys.modules["_hashlib"]
    seen = []
    monkeypatch.setattr(cli, "main", lambda: seen.append(sys.modules.get("_hashlib", "unset")))
    entry.run()
    assert seen == [None]


def test_the_entry_leaves_a_loaded_hashlib_loaded(monkeypatch):
    loaded = pytest.importorskip("_hashlib")
    stub_the_exit(monkeypatch, [])
    sys.modules["_hashlib"] = loaded
    entry.run()
    assert sys.modules["_hashlib"] is loaded


def test_the_guard_lists_the_module_behind_every_guaranteed_hash():
    # A release that renames a built-in hash module fails here rather
    # than silently leaving OpenSSL in every command.
    assert [name for name in entry.BUILTIN_HASHES if find_spec(name) is None] == []
    done = subprocess.run(
        [sys.executable, "-c", _BUILTIN_HASH_MODULES], capture_output=True, text=True, check=True
    )
    assert done.stderr == ""
    assert sorted(done.stdout.split()) == sorted(entry.BUILTIN_HASHES)


_BUILTIN_HASH_MODULES = """
import sys
sys.modules["_hashlib"] = None
import hashlib
print(*{type(hashlib.new(name)).__module__ for name in hashlib.algorithms_guaranteed})
"""


_WITH_AN_ATEXIT_HANDLER = """
import atexit, runpy, sys
atexit.register(lambda: print("atexit handler ran"))
sys.argv = ["fibersdc", *sys.argv[1:]]
runpy.run_module("fibersdc", run_name="__main__", alter_sys=True)
"""


def test_an_atexit_handler_registered_before_the_entry_runs(tmp_path):
    # Registered ahead of the entry, as coverage and site hooks are; its
    # output, written after the report, is flushed by the entry too.
    done = python_m_fibersdc(
        "calibrate", "--grid", "3", "--outdir", str(tmp_path), code=_WITH_AN_ATEXIT_HANDLER
    )
    assert (done.returncode, done.stderr) == (0, "")
    report = (tmp_path / "calibration_report.txt").read_text(encoding="utf-8")
    assert done.stdout == report + "atexit handler ran\n"


def test_characterize_child_leaves_every_event_in_its_log(tmp_path):
    done = python_m_fibersdc(
        "characterize", "--seconds-per-state", "0.1", "--outdir", str(tmp_path)
    )
    assert (done.returncode, done.stderr) == (0, "")
    total = int(re.search(r"^events_total=(\d+)$", done.stdout, re.M).group(1))
    lines = (tmp_path / "events.csv").read_text(encoding="utf-8").splitlines()
    rows = [line for line in lines if not line.startswith("#")][1:]  # after the column line
    assert total > 0
    assert len(rows) == total


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["bogus"]], ids=" ".join)
def test_argparse_exits_of_the_child_match_main(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    expected = capsys.readouterr()
    done = python_m_fibersdc(*argv)
    assert (done.returncode, done.stdout, done.stderr) == (
        exc.value.code, expected.out, expected.err
    )
    assert done.returncode == (2 if argv == ["bogus"] else 0)


def test_a_closed_stdout_pipe_is_reported_by_the_interpreter_exit(tmp_path):
    # The report stays in stdout's buffer and the entry's flush fails; the
    # interpreter's exit flushes again, reports the error and exits 120.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = python_m_fibersdc(
            "calibrate", "--grid", "3", "--outdir", str(tmp_path), stdout=write_end
        )
    finally:
        os.close(write_end)
    assert done.returncode == 120
    assert "BrokenPipeError" in done.stderr


COMMANDS = [
    ["calibrate", "--grid", "3"],
    ["capacity", "--resamples", "10"],
    ["characterize", "--seconds-per-state", "0.1"],
    ["transfer"],
]

_HASH_AT_EXIT = """
import atexit, json, runpy, sys

def report():
    modules = sorted(name for name, module in sys.modules.items() if module)
    import hashlib, hmac, secrets
    from fibersdc.seeds import substream_seed
    print(json.dumps({
        "modules": modules,
        "sha256": hashlib.sha256(b"abc").hexdigest(),
        "hmac": hmac.new(b"key", b"message", "sha256").hexdigest(),
        "token": secrets.token_hex(16),
        "entropy": substream_seed(1, "characterize").entropy,
    }))

atexit.register(report)
sys.argv = ["fibersdc", *sys.argv[1:]]
runpy.run_module("fibersdc", run_name="__main__", alter_sys=True)
"""


def exit_report(done: subprocess.CompletedProcess) -> dict:
    """What the child's exit handler printed, as the last line of stdout,
    after the command's own report."""
    assert (done.returncode, done.stderr) == (0, "")
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_no_command_loads_openssl_and_hashing_still_works(tmp_path, argv):
    report = exit_report(
        python_m_fibersdc(*argv, "--outdir", str(tmp_path), code=_HASH_AT_EXIT)
    )
    assert "fibersdc.cli" in report["modules"]
    assert "_hashlib" not in report["modules"]
    # the built-in hashes agree with OpenSSL's, in this process
    assert report["sha256"] == hashlib.sha256(b"abc").hexdigest()
    assert report["hmac"] == hmac.new(b"key", b"message", "sha256").hexdigest()
    assert len(report["token"]) == 32
    # as pinned in test_seeds.py
    assert report["entropy"] == [1, 543815835, 344174542, 2607538168, 832824954]


_WITHOUT_BUILTIN_MD5 = """
import atexit, json, runpy, sys

def report():
    import _hashlib
    print(json.dumps({"modules": sorted(n for n, m in sys.modules.items() if m)}))

atexit.register(report)
sys.modules["_md5"] = None
sys.argv = ["fibersdc", *sys.argv[1:]]
runpy.run_module("fibersdc", run_name="__main__", alter_sys=True)
"""


def test_without_a_builtin_hash_the_entry_leaves_openssl_importable(tmp_path):
    pytest.importorskip("_hashlib")
    report = exit_report(python_m_fibersdc(
        "capacity", "--resamples", "10", "--outdir", str(tmp_path), code=_WITHOUT_BUILTIN_MD5
    ))
    assert "_hashlib" in report["modules"]
