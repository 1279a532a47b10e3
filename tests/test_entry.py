"""The process entry, `fibersdc.__main__.run`: what `python -m fibersdc`
and the installed `fibersdc` script call.  The CLI tests call `cli.main`
in-process; these run the real entry, in a child or with `main` stubbed.
What each command loads through the entry is checked by `FOOTPRINTS` in
test_imports.py.  The entry turns the cyclic garbage collector off for
good, so `GARBAGE_FREE_RUNS` checks that no command leaves a reference
cycle behind.
"""

import ast
import gc
import io
import os
import re
import sys
from importlib import import_module
from importlib.util import find_spec
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import THROUGH_THE_ENTRY, run_python

import fibersdc.__main__ as entry
from fibersdc import cli
from fibersdc.imagecodec import ImageRaster, write_ppm

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


def test_python_m_fibersdc_writes_and_echoes_the_report(tmp_path):
    done = run_python("calibrate", "--grid", "3", "--outdir", str(tmp_path))
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (tmp_path / "calibration_report.txt").read_text(encoding="utf-8")


def test_python_m_fibersdc_exits_2_naming_a_bad_setting(tmp_path):
    done = run_python("characterize", "--set", "source_fidelity=nan", "--outdir", str(tmp_path))
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


@pytest.fixture
def collector_back_on():
    """`run` leaves the collector off, as a command process needs; this
    process turns it back on after the test."""
    yield
    gc.enable()


def test_the_entry_runs_atexit_flushes_and_ends_with_mains_code(monkeypatch, collector_back_on):
    events: list = []
    stub_the_exit(monkeypatch, events)
    entry.run()
    assert events == ["atexit", "flush stdout", "flush stderr", ("os._exit", 7)]
    assert sys.stdout.getvalue() == "report\n"


def test_a_failed_flush_leaves_through_the_interpreter_exit(monkeypatch, collector_back_on):
    # The interpreter's exit flushes again and reports the failure itself.
    events: list = []
    stub_the_exit(monkeypatch, events, stdout_fails=True)
    assert entry.run() == 7
    assert events == ["atexit", "flush stdout"]


def test_the_entry_disables_collection_before_it_imports_the_cli(monkeypatch, collector_back_on):
    stub_the_exit(monkeypatch, [])
    seen = []
    monkeypatch.setattr(cli, "main", lambda: seen.append(gc.isenabled()))
    entry.run()
    assert seen == [False]


def test_cli_main_in_process_leaves_the_collector_on(tmp_path, capsys):
    assert cli.main(["calibrate", "--grid", "2", "--outdir", str(tmp_path)]) == 0
    assert gc.isenabled()


def test_the_entry_blocks_openssl_before_it_imports_the_cli(monkeypatch, collector_back_on):
    stub_the_exit(monkeypatch, [])
    del sys.modules["_hashlib"]
    seen = []
    monkeypatch.setattr(cli, "main", lambda: seen.append(sys.modules.get("_hashlib", "unset")))
    entry.run()
    assert seen == [None]


def test_the_entry_leaves_a_loaded_hashlib_loaded(monkeypatch, collector_back_on):
    loaded = pytest.importorskip("_hashlib")
    stub_the_exit(monkeypatch, [])
    sys.modules["_hashlib"] = loaded
    entry.run()
    assert sys.modules["_hashlib"] is loaded


def test_the_guard_lists_the_module_behind_every_guaranteed_hash():
    # A release that renames a built-in hash module fails here rather
    # than silently leaving OpenSSL in every command.
    assert [name for name in entry.BUILTIN_HASHES if find_spec(name) is None] == []
    done = run_python(code=_BUILTIN_HASH_MODULES)
    assert (done.returncode, done.stderr) == (0, "")
    assert sorted(done.stdout.split()) == sorted(entry.BUILTIN_HASHES)


# Each command at two sizes, `{tmp}` standing for the test's directory.
# A command process runs without the collector, so a cycle left by each
# chunk of events, session run or resample would hold its memory until
# the process ends.
GARBAGE_FREE_RUNS = {
    "characterize 1 s": ["characterize", "--seconds-per-state", "1"],
    "characterize 50 s": ["characterize", "--seconds-per-state", "50"],
    "transfer bundled": ["transfer"],
    "transfer 68x100": ["transfer", "--image", "{tmp}/image.ppm"],
    "capacity 300": ["capacity", "--resamples", "300"],
    "capacity 3000": ["capacity", "--resamples", "3000"],
    "calibrate 8": ["calibrate", "--grid", "8"],
    "calibrate 64": ["calibrate", "--grid", "64"],
}


@pytest.mark.parametrize("argv", GARBAGE_FREE_RUNS.values(), ids=GARBAGE_FREE_RUNS)
def test_a_command_leaves_no_cyclic_garbage(tmp_path, capsys, argv):
    pixels = np.random.default_rng(3).integers(0, 4, 68 * 100, dtype=np.uint8)
    write_ppm(tmp_path / "image.ppm", ImageRaster(68, 100, pixels.tobytes()))
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    gc.collect()
    gc.disable()  # as in a command process: nothing is collected during the run
    try:
        assert cli.main([*argv, "--outdir", str(tmp_path / "out")]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


# Linux starts a child's ru_maxrss at the RSS of the process it was
# spawned from, so a small launcher, not this process, spawns the command
# and prints its exit code and peak RSS in kB.
_PEAK_RSS = """
import os, sys
quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
argv = [sys.executable, "-m", "fibersdc", *sys.argv[1:]]
_, status, usage = os.wait4(os.posix_spawn(sys.executable, argv, os.environ, file_actions=quiet), 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _characterize_peak_rss_mb(outdir, seconds_per_state: str) -> tuple[float, int]:
    """Peak RSS in MB of a `characterize` child, and its event count."""
    done = run_python(
        "characterize", "--seconds-per-state", seconds_per_state, "--outdir", str(outdir),
        code=_PEAK_RSS,
    )
    assert done.stderr == ""
    code, peak_kb = map(int, done.stdout.split())
    assert code == 0
    report = (outdir / "characterization_report.txt").read_text(encoding="utf-8")
    return peak_kb / 1024, int(re.search(r"^events_total=(\d+)$", report, re.M).group(1))


def test_characterize_memory_through_the_entry_does_not_grow_with_the_run(tmp_path):
    # About 1.6k and 160k events, in processes that never collect.  Both
    # peak near 32 MB; one object left per event would add about 16 MB.
    short_mb, short_events = _characterize_peak_rss_mb(tmp_path / "short", "2")
    long_mb, long_events = _characterize_peak_rss_mb(tmp_path / "long", "200")
    assert long_events > 50 * short_events
    assert long_mb - short_mb < 4


_BUILTIN_HASH_MODULES = """
import sys
sys.modules["_hashlib"] = None
import hashlib
print(*{type(hashlib.new(name)).__module__ for name in hashlib.algorithms_guaranteed})
"""


_WITH_AN_ATEXIT_HANDLER = """
import atexit
atexit.register(lambda: print("atexit handler ran"))
""" + THROUGH_THE_ENTRY


def test_an_atexit_handler_registered_before_the_entry_runs(tmp_path):
    # Registered ahead of the entry, as coverage and site hooks are; its
    # output, written after the report, is flushed by the entry too.
    done = run_python(
        "calibrate", "--grid", "3", "--outdir", str(tmp_path), code=_WITH_AN_ATEXIT_HANDLER
    )
    assert (done.returncode, done.stderr) == (0, "")
    report = (tmp_path / "calibration_report.txt").read_text(encoding="utf-8")
    assert done.stdout == report + "atexit handler ran\n"


def test_characterize_child_leaves_every_event_in_its_log(tmp_path):
    done = run_python("characterize", "--seconds-per-state", "0.1", "--outdir", str(tmp_path))
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
    done = run_python(*argv)
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
        done = run_python("calibrate", "--grid", "3", "--outdir", str(tmp_path), stdout=write_end)
    finally:
        os.close(write_end)
    assert done.returncode == 120
    assert "BrokenPipeError" in done.stderr


_WITHOUT_BUILTIN_MD5 = """
import atexit, sys

def report():
    import _hashlib
    print("imported", _hashlib.__name__)

atexit.register(report)
sys.modules["_md5"] = None
""" + THROUGH_THE_ENTRY


def test_without_a_builtin_hash_the_entry_leaves_openssl_importable(tmp_path):
    pytest.importorskip("_hashlib")
    done = run_python(
        "capacity", "--resamples", "10", "--outdir", str(tmp_path), code=_WITHOUT_BUILTIN_MD5
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-1] == "imported _hashlib"
