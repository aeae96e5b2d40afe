"""The benchmark's trace hooks still reach every layer of the pipeline.

perfbench/spans.py rebinds layer entry points by name; if one is renamed or
no longer looked up at call time, its per-layer metrics silently read 0.
This runs the recorder in a fresh interpreter, reading perfbench/ only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import walsh_spectrum
from matroidcat.enumeration import _multiplicities, generate

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, json
import spans

tracer = spans.Tracer()
spans.install(tracer)
from matroidcat import catalogue

for argv in (
    "generate --rank 3 --size 5 --class connected-simple --regular-only --tutte",
    "counts --max-rank 3 --max-size 5 --class loopless",
    "dual-listing --rank 3 --size 5 --class connected-loopless",
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert catalogue.main(argv.split()) == 0, argv
print(json.dumps(spans.summarize(tracer)))
"""


def test_trace_hooks_count_every_layer():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    for name in (
        "enumeration.canonicity.calls",
        "enumeration.candidates",
        # generate looks label_vector_of up in its module on every class
        "enumeration.label_vector.s",
        "matroid.build.calls",
        "catalogue.compute_flags.calls",
        "tutte.calls",
        "gf2.rref.calls",
    ):
        assert metrics[name] > 0, name
    # one full canonicity test per candidate, less the first candidate of
    # each weight distribution, which generate keeps without one; the fill's
    # tests of subspace restrictions are part of candidate iteration. The
    # scans are generate's (3, 5) simple and dual-listing's (2, 5) loopless.
    accepted = sum(
        len({tuple(walsh_spectrum(_multiplicities(ls, k), k)) for ls in generate(k, 5, cls)})
        for k, cls in [(3, "simple"), (2, "loopless")]
    )
    assert accepted > 0
    assert (
        metrics["enumeration.canonicity.calls"] == metrics["enumeration.candidates"] - accepted
    )
    # one elimination per built matroid: nothing else calls Gf2Matrix.rref
    assert metrics["gf2.rref.calls"] == metrics["matroid.build.calls"]
    # one connectivity test per built matroid: compute_flags takes the
    # verdict of the pipeline's class filter
    assert metrics["matroid.is_connected.calls"] == metrics["matroid.build.calls"]
