"""What the package's modules import, what each command loads, and who
calls the public functions and reads the public names.

No linter is among the test dependencies, so the first check reads each
module's syntax tree: a name an import binds must be read somewhere in
the module.  `__init__.py` is skipped, since it resolves the public API
by name.  The second runs each command in a fresh interpreter through
the process entry and checks `sys.modules` at its exit against
`FOOTPRINTS`, the one statement of what each command loads, and that
hashing still works there without OpenSSL; it also checks that the
kernel loads no numpy when its tables are read and a calibration point
is scored.  The third reads
the syntax trees of the package, the demos and the acceptance tests:
each public function a module of the package defines at its top level
must be referred to there, outside its own definition.  The fourth
widens the third to every public name a module defines at its top
level, read by the package, the demos or any test.
"""

import ast
import hashlib
import hmac
import json
from pathlib import Path

import pytest
from conftest import THROUGH_THE_ENTRY, run_python

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fibersdc"
# Every source file of the package, its subpackages included.
SOURCES = sorted(PACKAGE.rglob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """`line: name` of each imported name the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in bound.items() if name not in read]


def test_the_scan_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nprint(os, d)\n"
    assert unused_imports(source) == ["2: np", "3: c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# What each command loads: the one statement of it, checked through the
# process entry, as `python -m fibersdc` and the installed script run it.
# No command loads the state algebra, the kernel's oracle, the wire codec
# and state machines, another command's body, `dataclasses`, OpenSSL
# (`_hashlib`, which the entry blocks), or argparse and the `gettext`
# and `locale` it loads: a well-formed command line is parsed without
# it, and argparse is left to help, `--version`, abbreviations and
# errors.  The settings load only for the commands that take them, and
# numpy for the commands that use arrays.  `characterize` writes its
# counts through the timed-run layer and loads no capacity layer;
# `transfer` draws through the sampler and loads no timed-run layer.
COMMANDS = ["calibrate", "capacity", "characterize", "transfer"]


def never(command: str) -> list[str]:
    """What no command loads, plus the other commands' bodies."""
    others = [f"fibersdc.commands.{name}" for name in COMMANDS if name != command]
    return ["fibersdc.states", "fibersdc.interferometer", "fibersdc.wire", "dataclasses",
            "argparse", "gettext", "locale", "_hashlib", *others]


FOOTPRINTS = [
    (["calibrate", "--grid", "2"],
     [*never("calibrate"), "fibersdc.configs", "fibersdc.noise", "fibersdc.sampler",
      "fibersdc.protocol", "fibersdc.imagecodec", "fibersdc.capacity", "numpy"]),
    (["capacity", "--resamples", "10"],
     [*never("capacity"), "fibersdc.configs", "fibersdc.noise", "fibersdc.sampler",
      "fibersdc.protocol", "fibersdc.imagecodec"]),
    (["characterize", "--seconds-per-state", "0.01"],
     [*never("characterize"), "fibersdc.protocol", "fibersdc.imagecodec",
      "fibersdc.capacity"]),
    (["transfer"], [*never("transfer"), "fibersdc.noise", "fibersdc.capacity"]),
]

# At exit, after the command's report: the modules it loaded (a blocked
# one is None and not counted), then hashes taken without OpenSSL.
_REPORT_AT_EXIT = """
import atexit, json, sys

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
""" + THROUGH_THE_ENTRY


@pytest.mark.parametrize("argv, unloaded", FOOTPRINTS, ids=[a[0] for a, _ in FOOTPRINTS])
def test_command_loads_only_the_layers_it_runs(tmp_path, argv, unloaded):
    done = run_python(*argv, "--outdir", str(tmp_path), code=_REPORT_AT_EXIT)
    assert (done.returncode, done.stderr) == (0, "")
    report = json.loads(done.stdout.splitlines()[-1])
    loaded = set(report["modules"])
    assert {"fibersdc.cli", f"fibersdc.commands.{argv[0]}"} <= loaded
    assert sorted(loaded.intersection(unloaded)) == []
    # the built-in hashes agree with OpenSSL's, in this process
    assert report["sha256"] == hashlib.sha256(b"abc").hexdigest()
    assert report["hmac"] == hmac.new(b"key", b"message", "sha256").hexdigest()
    assert len(report["token"]) == 32
    # as pinned in test_seeds.py
    assert report["entropy"] == [1, 543815835, 344174542, 2607538168, 832824954]


_KERNEL_TABLES_AND_SCORE = """
import sys
import fibersdc.kernel as kernel
for name in ("CAL_DEPTH", "LOOP_TRAVERSALS", "OUTCOMES", "OUTCOME_VERDICT",
             "UNCORRELATED_DIST", "BRANCH_OUTCOMES", "BRANCH_VERDICTS"):
    getattr(kernel, name)
kernel.mean_diagonal(0.3, 0.7)
print("numpy" in sys.modules)
"""


def test_the_kernel_loads_no_numpy_whatever_is_read():
    done = run_python(code=_KERNEL_TABLES_AND_SCORE)
    assert (done.stderr, done.stdout.split()) == ("", ["False"])


CALLER_SOURCES = [
    *SOURCES,
    *sorted((ROOT / "demos").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def references(tree: ast.AST, name: str) -> int:
    """How many names and attributes in `tree` read `name`, not counting
    those inside a definition of `name` itself."""
    count, todo = 0, [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, _DEFINITIONS) and node.name == name:
            continue
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            count += (node.id if isinstance(node, ast.Name) else node.attr) == name
        todo.extend(ast.iter_child_nodes(node))
    return count


def public_definitions(tree: ast.Module) -> list[str]:
    """The functions, classes and constants a module defines at its top
    level, but not those whose names start with `_`."""
    names = []
    for node in tree.body:
        if isinstance(node, _DEFINITIONS):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def test_the_scan_skips_a_function_referring_to_itself():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n\ndef g():\n    pass\n\nx.g()\n")
    assert references(tree, "f") == 0
    assert references(tree, "g") == 1


def test_the_scan_counts_reads_of_constants_and_classes_only():
    source = (
        "A, _B = 1, 2\nC: int = A\nD = 3\nD += 1\n__all__ = []\n"
        "class K:\n    def new(self):\n        return K()\n"
    )
    tree = ast.parse(source)
    assert public_definitions(tree) == ["A", "C", "D", "K"]
    assert [references(tree, name) for name in ("A", "C", "D", "K")] == [1, 0, 0, 0]


def test_every_public_function_has_a_caller():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in CALLER_SOURCES]
    uncalled = [
        f"{path.stem}.{node.name}"
        for path in SOURCES
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and not any(references(tree, node.name) for tree in trees)
    ]
    assert uncalled == []


def test_every_public_name_is_read():
    readers = [
        *SOURCES,
        *sorted((ROOT / "demos").glob("*.py")),
        *sorted((ROOT / "tests").glob("*.py")),
    ]
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in readers]
    unread = [
        f"{path.stem}.{name}"
        for path in SOURCES
        for name in public_definitions(ast.parse(path.read_text(encoding="utf-8")))
        if not any(references(tree, name) for tree in trees)
    ]
    assert unread == []
