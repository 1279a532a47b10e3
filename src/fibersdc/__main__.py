"""Process entry of the command line: `python -m fibersdc` and the
installed `fibersdc` script both call `run`.

Nothing in the package uses OpenSSL, yet `numpy.random` loads it through
`secrets`, `hmac` and `hashlib`: about 3.4 MB of RSS and 2-3 ms of
import time per command.  So before it imports the CLI, `run` marks
`_hashlib` unavailable with `sys.modules.setdefault("_hashlib", None)`,
the import system's documented block, and `hashlib` and `hmac` then take
the path CPython takes on a build without OpenSSL: the interpreter's
built-in hash modules, and `_operator._compare_digest`.  The block is set only
when every built-in module behind `hashlib.algorithms_guaranteed` exists
(`BUILTIN_HASHES`); on a build configured with fewer of them `hashlib`
would log each missing one to stderr, so there `_hashlib` is left alone.
If `_hashlib` is already loaded, `setdefault` leaves it loaded.

A command is one short process, and once its outputs are written
nothing reads the interpreter's state again.  So when `main` returns,
`run` runs the `atexit` callbacks (coverage and site hooks rely on
them), flushes stdout and stderr, and ends the process with `os._exit`:
the interpreter's teardown of numpy's and the CLI's modules, several ms
per command, is skipped.  The commands start no threads and close every
file they write before `main` returns.  argparse's exits (`--help`,
`--version`, a bad argument) and uncaught exceptions still leave through
the normal interpreter exit, and so does a run whose final flush fails,
so that the interpreter reports it as usual.

The first thing `run` does is turn off the cyclic garbage collector,
and nothing turns it back on.  Most of a command's time is interpreter
and numpy start-up, and during those imports the collector makes some
30 passes, 4-5 ms per command, that free nothing a run needs: the
import-time reference cycles it would find (a few hundred objects, most
of them pure-Python class bodies that numpy loads) stay alive until
`os._exit` instead.  Memory stays bounded without it, because no command
body leaves cyclic garbage: reference counting frees every chunk of
events, every session run and every bootstrap resample as soon as the
next one replaces it.  The garbage-contract table in tests/test_entry.py
checks this for every command at two sizes, and a child test compares
the peak RSS of a short and a hundredfold longer `characterize`.

`cli.main` does none of this and returns: tests and demos call it
in-process, and there the collector stays on and OpenSSL loads as
usual.  A profiler that reports at interpreter exit, such as
`python -m cProfile -m fibersdc`, gets no report; profile `cli.main`.
"""

import atexit
import gc
import os
import sys

# The interpreter's own modules behind `hashlib.algorithms_guaranteed`;
# Python 3.12 merged `_sha256` and `_sha512` into `_sha2`.
_SHA2 = ("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")
BUILTIN_HASHES = ("_md5", "_sha1", *_SHA2, "_sha3", "_blake2")


def block_openssl() -> None:
    """Mark `_hashlib` unavailable if the built-in hashes can stand in."""
    from importlib.util import find_spec

    if all(find_spec(name) is not None for name in BUILTIN_HASHES):
        sys.modules.setdefault("_hashlib", None)


def run() -> int:
    gc.disable()
    block_openssl()
    from .cli import main

    code = main()
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        return code
    os._exit(code)


if __name__ == "__main__":
    raise SystemExit(run())
