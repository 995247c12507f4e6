"""One verifier process: ``expspec ARGV...``, as the console script runs it.

Usage:
    python3 child.py STATUS --setup-only
    python3 child.py STATUS [--trace] --spans SPANS -- ARGV...

The process imports expspec (and with it numpy), then writes
``{"imported": <CLOCK_MONOTONIC seconds>, ...}`` to STATUS, so the parent,
which read the same clock just before launching it, gets the set-up time.
With --setup-only it stops there. Otherwise it runs ``expspec.cli.main(ARGV)``
with the report on stdout, writes the spans of the wrapped functions to SPANS
and exits with the CLI's code. Without --trace only the functions whose work
counts the gate checks are wrapped (tracer.COUNTED), with tracemalloc off;
with --trace every stage is wrapped and tracemalloc is on (see tracer.py).
"""

import json
import sys
import time


def main(argv):
    status_path, rest = argv[0], argv[1:]
    split = rest.index("--") if "--" in rest else len(rest)
    opts, cli_argv = rest[:split], rest[split + 1:]
    setup_only = "--setup-only" in opts
    traced = "--trace" in opts
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None

    import numpy
    import expspec.cli

    imported = time.monotonic()
    with open(status_path, "w") as fh:
        json.dump(
            {
                "imported": imported,
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "expspec": expspec.__version__,
            },
            fh,
        )
    if setup_only:
        return 0

    import tracer

    t = tracer.Tracer()
    if traced:
        t.install()
        code = t.call("cli.main", expspec.cli.main, cli_argv)
    else:
        t.install(tracer.COUNTED)
        code = expspec.cli.main(cli_argv)
    t.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
