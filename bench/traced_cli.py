"""Run one fibersdc CLI command with spans recorded at the layer boundaries.

    python3 bench/traced_cli.py TRACE_PREFIX <fibersdc arguments...>

Writes TRACE_PREFIX.bin (spans) and TRACE_PREFIX.json (names and counters)
when the command ends, and exits with the command's exit code.
"""

import sys
from pathlib import Path

from tracing import Tracer, instrument

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    prefix, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    import fibersdc
    import fibersdc.cli

    if SRC not in Path(fibersdc.__file__).resolve().parents:
        print(f"fibersdc imported from {fibersdc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    instrument(tracer)
    code = fibersdc.cli.main(argv)
    tracer.dump(prefix, {"public_api_names": len(fibersdc.__all__)})
    return code


if __name__ == "__main__":
    raise SystemExit(main())
