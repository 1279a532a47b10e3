"""What the package's modules import, what each command loads, and who
calls the public functions and reads the public names.

No linter is among the test dependencies, so the first check reads each
module's syntax tree: a name an import binds must be read somewhere in
the module.  `__init__.py` is skipped, since it resolves the public API
by name.  The second runs each command in a fresh interpreter and reads
`sys.modules` after it.  The third reads the syntax trees of the
package, the demos and the acceptance tests: each public function must
be referred to there, outside its own definition.  The fourth widens the
third to every public name a module defines at its top level, read by
the package, the demos or any test.
"""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fibersdc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# Each command loads the layers it runs and no other.  No command loads
# the state algebra, the kernel's oracle; the settings load only for the
# commands that take them.
ORACLE = ["fibersdc.states", "fibersdc.interferometer"]
FOOTPRINTS = [
    (["calibrate", "--grid", "2"],
     [*ORACLE, "fibersdc.configs", "fibersdc.noise", "fibersdc.protocol",
      "fibersdc.imagecodec", "fibersdc.capacity"]),
    (["capacity", "--resamples", "10"],
     [*ORACLE, "fibersdc.configs", "fibersdc.noise", "fibersdc.protocol",
      "fibersdc.imagecodec"]),
    (["characterize", "--seconds-per-state", "0.01"],
     [*ORACLE, "fibersdc.protocol", "fibersdc.imagecodec"]),
    (["transfer"], [*ORACLE, "fibersdc.capacity"]),
]

_RUN_AND_LIST_MODULES = """
import sys
from fibersdc.cli import main
code = main(sys.argv[1:])
print("modules:", " ".join(sorted(sys.modules)))
sys.exit(code)
"""


@pytest.mark.parametrize("argv, unloaded", FOOTPRINTS, ids=[a[0] for a, _ in FOOTPRINTS])
def test_command_loads_only_the_layers_it_runs(tmp_path, argv, unloaded):
    env = dict(os.environ)
    paths = [str(PACKAGE.parent), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    done = subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST_MODULES, *argv, "--outdir", str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    loaded = set(done.stdout.rsplit("modules: ", 1)[1].split())
    assert "fibersdc.cli" in loaded
    assert sorted(loaded.intersection(unloaded)) == []
    # The package hashes without OpenSSL; only `numpy.random` loads it,
    # through `secrets`, when `cli.main` is called directly as here.
    # numpy >= 2 imports `numpy.random` on first use, so `calibrate`, which
    # draws no random numbers, then loads neither; numpy < 2 imports it
    # with numpy itself.  The process entry blocks OpenSSL for every
    # command; tests/test_entry.py checks that.
    if "numpy.random" not in loaded:
        assert "_hashlib" not in loaded


# Public functions with no caller on purpose; the README says why.
LIBRARY_ONLY = ["read_event_log"]
CALLER_SOURCES = [
    *sorted(PACKAGE.glob("*.py")),
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
    import fibersdc

    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in CALLER_SOURCES]
    functions = [
        name for name in fibersdc.__all__ if inspect.isfunction(getattr(fibersdc, name))
    ]
    uncalled = [name for name in functions if not any(references(t, name) for t in trees)]
    assert uncalled == LIBRARY_ONLY


def test_every_public_name_is_read():
    readers = [
        *sorted(PACKAGE.glob("*.py")),
        *sorted((ROOT / "demos").glob("*.py")),
        *sorted((ROOT / "tests").glob("*.py")),
    ]
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in readers]
    unread = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in public_definitions(ast.parse(path.read_text(encoding="utf-8")))
        if not any(references(tree, name) for tree in trees)
    ]
    assert unread == []
