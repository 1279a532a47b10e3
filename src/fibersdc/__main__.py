"""Process entry of the command line: `python -m fibersdc` and the
installed `fibersdc` script both call `run`.

A command is one short process, and its exit took about 27 ms, two
thirds of it in the shutdown's full cyclic-GC passes over every object
numpy and the CLI built at import.  `run` imports the CLI, collects once
and freezes what is left (`gc.freeze`), so no later collection scans
that heap again, the shutdown's included.  Objects the command creates
stay collectable.  The collector runs during the imports: pausing it
there is a few ms faster, but it holds the import garbage until the
collection and measured up to 0.06 MB more peak RSS.  `cli.main` does
none of this: tests and demos call it in-process, and freezing there
would pin their heap.
"""

import gc


def run() -> int:
    from .cli import main

    gc.collect()
    gc.freeze()
    return main()


if __name__ == "__main__":
    raise SystemExit(run())
