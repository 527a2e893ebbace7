"""Run one plankb CLI command with layer spans recorded.

    python3 cli_traced.py SPANS_JSON COMMAND [ARGS...]

Equivalent to `python -m plankb.cli COMMAND [ARGS...]`, with the wrappers of
`spans.Tracer` installed; the spans are written to SPANS_JSON on exit for the
benchmark process to adopt.
"""

import json
import sys

import plankb.cli
from spans import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer("child")
    tracer.install()
    try:
        return plankb.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w") as f:
            json.dump([{"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                        "parent": s.parent, "attrs": s.attrs} for s in tracer.spans], f)


if __name__ == "__main__":
    sys.exit(main())
