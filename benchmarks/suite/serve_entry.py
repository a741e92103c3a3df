"""Traced server entry: install the span wrappers, run the serve CLI.

Usage: ``python serve_entry.py SPANS.npz serve DIR [serve flags...]``.
Everything after the spans path is handed to the unchanged
``python -m repro`` command line. SIGTERM is turned into the CLI's own
Ctrl-C path so the server shuts down in order and the spans recorded in
this process are written when the run ends.
"""

from __future__ import annotations

import runpy
import signal
import sys


def _interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def main(argv: list[str]) -> int:
    from benchmarks.suite.layers import targets
    from benchmarks.suite.trace import Tracer

    spans_path, *cli = argv
    tracer = Tracer()
    tracer.install(targets())
    signal.signal(signal.SIGTERM, _interrupt)
    sys.argv = ["repro", *cli]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exit_:
        code = exit_.code if isinstance(exit_.code, int) else 1
    else:
        code = 0
    finally:
        tracer.collect().save(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
