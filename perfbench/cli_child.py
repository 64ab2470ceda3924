"""One traced ``wilf`` command in a fresh process.

    python3 perfbench/cli_child.py <wilf arguments>   (with src on PYTHONPATH)

Does what the ``wilf`` entry point does, with spans around the import, the
CLI's own work and the library calls it makes.  The command's output goes to
standard output as usual; the spans go to standard error as the last line,
as JSON, and the exit code is the command's.
"""
from __future__ import annotations

import json
import sys

from tracing import Tracer, install


def main(argv: list[str]) -> int:
    tracer = Tracer()
    with tracer.span("cli.import"):
        import sswilf  # noqa: F401
    # patched before the CLI module binds the library functions it imports
    install(tracer)
    with tracer.span("cli.import"):
        from sswilf import cli, counting
    # the CLI has bound the traced counting functions; the recurrences' calls
    # to each other go back to the untraced ones, which a span per call of
    # the cold recursion would slow several times over
    tracer.restore(counting)
    with tracer.span("cli.main"):
        code = cli.main(argv)
    sys.stdout.flush()
    print(json.dumps({"spans": tracer.spans, "counts": tracer.counts}), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
