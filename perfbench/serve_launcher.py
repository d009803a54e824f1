"""Run ``repro serve`` in this process, optionally with layer wrappers.

Usage::

    python perfbench/serve_launcher.py [--trace-out SPANS.json] -- serve ARGS...

Without ``--trace-out`` this is ``python -m repro.cli serve ARGS``.  With
it, the wrappers of :mod:`perfbench.tracer` are installed before
``repro.cli`` runs, and the recorded spans are written to the given file
when the server shuts down.
"""

from __future__ import annotations

import json
import os
import sys


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(root, "src"), root]
    from repro import cli

    if trace_out is None:
        return cli.main(argv)

    from perfbench.tracer import Tracer, import_layers

    import_layers()
    tracer = Tracer()
    tracer.install()
    missed = tracer.check_coverage()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tmp = trace_out + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"records": tracer.records(), "missed": missed}, fh)
        os.replace(tmp, trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
