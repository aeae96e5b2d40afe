"""Benchmark worker: a fresh process that runs one pass of CLI cells.

Usage: ``python3 perfbench/worker.py SRC_DIR``.  The protocol is one line
each way on stdin and stdout:

1. the worker imports ``matroidcat`` from SRC_DIR and prints ``ready``;
2. the parent sends one JSON request, or closes stdin to end a set-up probe;
3. the worker calls ``matroidcat.catalogue.main(argv)`` for each cell, one
   after another, with stdout captured, and prints one JSON result.

The request is ``{"cells": [{"argv": [...], "stdout": path}, ...],
"trace": bool, "spans": path or null}``.  Captured stdout is written to the
named files only after the last call has returned, so the timed region holds
nothing but the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import spans  # imports nothing from matroidcat until install() is called


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run(request: dict, catalogue) -> dict:
    tracer = None
    if request["trace"]:
        tracer = spans.Tracer()
        spans.install(tracer)

    calls = []
    captured = []
    cpu0 = _cpu_s()
    start = time.perf_counter()
    for cell in request["cells"]:
        buf = io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = catalogue.main(list(cell["argv"]))
        except SystemExit as exc:  # e.g. argparse rejecting the arguments
            # the interpreter's exit status for the same SystemExit
            rc = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a bug in the program: report it, keep the pass going
            rc = -1
            error = traceback.format_exc(limit=3)
        calls.append({"rc": rc, "s": time.perf_counter() - t0, "error": error})
        captured.append(buf.getvalue())
    wall = time.perf_counter() - start
    cpu = _cpu_s() - cpu0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    for cell, text in zip(request["cells"], captured):
        Path(cell["stdout"]).write_text(text, encoding="utf-8", newline="\n")
    result = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_kb / 1024, "calls": calls}
    if tracer is not None:
        result["layers"] = spans.summarize(tracer)
        if request.get("spans"):
            tracer.dump(request["spans"])
    return result


def main() -> int:
    src = Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(src))
    import matroidcat.catalogue as catalogue

    if src not in Path(catalogue.__file__).resolve().parents:
        print(f"matroidcat imported from {catalogue.__file__}, not {src}", file=sys.stderr)
        return 2
    channel = sys.stdout
    channel.write("ready\n")
    channel.flush()
    line = sys.stdin.readline()
    if not line.strip():
        return 0  # set-up probe
    result = run(json.loads(line), catalogue)
    channel.write(json.dumps(result) + "\n")
    channel.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
