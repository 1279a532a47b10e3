"""Process entry of the command line: `python -m fibersdc` and the
installed `fibersdc` script both call `run`.

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

`cli.main` does none of this and returns: tests and demos call it
in-process.  A profiler that reports at interpreter exit, such as
`python -m cProfile -m fibersdc`, gets no report; profile `cli.main`.
"""

import atexit
import os
import sys


def run() -> int:
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
