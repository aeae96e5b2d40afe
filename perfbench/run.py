"""The matroidcat catalogue benchmark.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload scan --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40      # every workload

One client runs the cells of a workload one after another (a closed loop),
each call waiting for the previous one.  A pass is one run of every cell,
in an order permuted by the seed, inside a fresh worker process that imports
the package from ``src/`` and calls ``matroidcat.catalogue.main(argv)`` in
the user's default environment (``MATROID_THREADS`` unset).  Passes repeat
until ``--seconds`` would be exceeded; every listing is checked against a
SHA-256 golden.  With ``--trace 1`` untraced and traced passes alternate,
which gives the per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
sample, the machine record and each metric by name with its unit.  Each run
is also appended to ``.perfbench_out/results.jsonl`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"

# set-up probes before each pass (spawn, import, exit), spread over the run so
# that a short burst of load on the machine moves few samples; each pass's
# own worker adds one more
PROBES_PER_PASS = 5
# a run must exit within 180 s even when a pass stalls
HARD_LIMIT_S = 170.0

class WorkerFailed(Exception):
    pass


# -- statistics ---------------------------------------------------------------


def describe(values: list[float]) -> dict:
    """Median, quartiles, range and the highest percentile with at least ten
    samples beyond it (None below eleven samples)."""
    xs = sorted(values)
    n = len(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if n >= 2 else (xs[0], None, xs[0])
    d = {
        "n": n,
        "median": statistics.median(xs),
        "q1": q1,
        "q3": q3,
        "min": xs[0],
        "max": xs[-1],
        "tail_pct": None,
        "tail": None,
    }
    if n > 10:
        d["tail_pct"] = 100 * (n - 10) // n
        d["tail"] = xs[n - 11]
    return d


# -- machine record ---------------------------------------------------------


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "matroidcat").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_record(root: Path, src: Path) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": _git_commit(root),
        "source_sha256": _source_sha256(src),
    }


# -- worker processes -------------------------------------------------------


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("MATROID_THREADS", None)  # the default: one thread per core
    return env


def spawn(src: Path) -> tuple[subprocess.Popen, float]:
    """Start a worker; set-up time runs until it has imported matroidcat."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), str(src)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=_worker_env(),
        text=True,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        with proc:
            proc.kill()
        raise WorkerFailed(f"worker did not start (exit {proc.returncode})")
    return proc, setup


def probe(src: Path) -> float:
    proc, setup = spawn(src)
    with proc:  # closes the pipes and waits
        proc.stdin.close()
        proc.stdout.read()
    if proc.returncode != 0:
        raise WorkerFailed(f"set-up probe exited with {proc.returncode}")
    return setup


def run_pass(src: Path, order: list, workdir: Path, trace: bool, spans_path, timeout: float) -> dict:
    """One pass in a fresh worker; returns its result with set-up time."""
    request_cells = []
    for i, cell in enumerate(order):
        argv = list(cell)
        if workloads.writes_listing(cell):
            argv += ["--out", str(workdir / f"cell{i}.txt")]
        request_cells.append({"argv": argv, "stdout": str(workdir / f"cell{i}.stdout")})
    request = {"cells": request_cells, "trace": trace, "spans": spans_path}
    proc, setup = spawn(src)
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.start()
    out = ""
    with proc:  # closes the pipes and waits, also on an exception
        try:
            proc.stdin.write(json.dumps(request) + "\n")
            proc.stdin.close()
            out = proc.stdout.read()
        finally:
            timer.cancel()
            if not out:
                proc.kill()
    rc = proc.returncode
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        raise WorkerFailed(f"worker exited with {rc} before reporting")
    result = json.loads(lines[-1])
    result["setup_s"] = setup
    return result


def check_outputs(order: list, calls: list, workdir: Path, goldens: dict) -> list[dict]:
    """Compare each cell's listing with its golden digest.

    A cell fails on a non-zero exit code or on any byte of difference.
    """
    checks = []
    for i, (cell, call) in enumerate(zip(order, calls)):
        name = f"cell{i}.txt" if workloads.writes_listing(cell) else f"cell{i}.stdout"
        try:
            data = (workdir / name).read_bytes()
        except OSError:
            data = None
        golden = goldens.get(workloads.cell_key(cell), {})
        ok = (
            call["rc"] == 0
            and data is not None
            and workloads.digest(data) == golden.get("sha256")
        )
        checks.append(
            {
                "cell": workloads.cell_key(cell),
                "ok": ok,
                "rc": call["rc"],
                "s": call["s"],
                "bytes": len(data) if data is not None else 0,
                "entries": data.count(b"\n") if data and workloads.writes_listing(cell) else 0,
                "error": call.get("error"),
            }
        )
    return checks


# -- one run ------------------------------------------------------------------


def run_workload(root: Path, src: Path, workload: str, seed: int, seconds: float,
                 trace: bool, tiny: bool, goldens: dict) -> dict:
    outdir = root / ".perfbench_out"
    workdir = outdir / "work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spans_path = str(outdir / f"spans-{workload}.json")
    start = time.perf_counter()
    setups: list[float] = []
    passes: list[dict] = []
    attempted = failed = 0
    broken = None
    try:
        while True:
            elapsed = time.perf_counter() - start
            longest = max((p["span_s"] for p in passes), default=0.0)
            if len(passes) >= (2 if trace else 1) and elapsed + longest > seconds:
                break
            if passes and elapsed + longest > HARD_LIMIT_S:
                break
            t0 = time.perf_counter()
            setups += [probe(src) for _ in range(PROBES_PER_PASS)]
            # traced and untraced passes alternate, so that the overhead
            # estimate sees the same machine conditions on both sides
            traced = trace and len(passes) % 2 == 1
            order = workloads.pass_order(workload, seed, len(passes), tiny)
            try:
                result = run_pass(src, order, workdir, traced,
                                  spans_path if traced else None,
                                  HARD_LIMIT_S - elapsed)
            except WorkerFailed as exc:
                attempted += len(order)
                failed += len(order)
                broken = str(exc)
                break
            result["span_s"] = time.perf_counter() - t0
            result["traced"] = traced
            result["checks"] = check_outputs(order, result.pop("calls"), workdir, goldens)
            attempted += len(order)
            failed += sum(not c["ok"] for c in result["checks"])
            setups.append(result["setup_s"])
            passes.append(result)
            for f in workdir.iterdir():
                f.unlink()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "setups": setups,
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "broken": broken,
    }


def end_to_end(run: dict) -> dict[str, dict]:
    """Statistics of every end-to-end metric over the untraced passes."""
    plain = [p for p in run["passes"] if not p["traced"]]
    stats = {name: describe([p[name] for p in plain]) for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    stats["setup_s"] = describe(run["setups"])
    return stats


def has_traced(run: dict) -> bool:
    return any(p["traced"] for p in run["passes"])


def per_layer(run: dict) -> dict[str, float]:
    """Median over the traced passes of every per-layer metric, plus the
    tracing overhead against the untraced passes of the same run."""
    traced = [p for p in run["passes"] if p["traced"]]
    plain = [p for p in run["passes"] if not p["traced"]]
    out = {}
    for name in traced[0]["layers"]:
        values = [p["layers"][name] for p in traced]
        # counts repeat exactly from pass to pass; keep them whole numbers
        out[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    last = traced[-1]["checks"]
    out["catalogue.entries"] = sum(c["entries"] for c in last)
    out["catalogue.bytes_out"] = sum(c["bytes"] for c in last)
    untraced_wall = statistics.median(p["wall_s"] for p in plain)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.traced_wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.overhead_ratio"] = (traced_wall - untraced_wall) / untraced_wall
    return out


# -- reporting ----------------------------------------------------------------


def metric_units(kind: str) -> dict[str, str]:
    """Units of the BENCHMARK.json metrics of one kind (end_to_end, per_layer)."""
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def report(run: dict, prefix: str = "") -> dict[str, dict]:
    """Print a run's samples and metrics; return the metrics for the JSON line."""
    w = run["workload"]
    rate = run["failed"] / run["attempted"] if run["attempted"] else 1.0
    print(f"== {w} seed={run['seed']} seconds={run['seconds']} trace={int(run['trace'])} "
          f"passes={len(run['passes'])} attempted={run['attempted']} failed={run['failed']}")
    if run["broken"]:
        print(f"   worker failure: {run['broken']}")
    for p in run["passes"]:
        bad = [c for c in p["checks"] if not c["ok"]]
        print(f"   pass {'traced  ' if p['traced'] else 'untraced'} wall_s={_fmt(p['wall_s'])} "
              f"cpu_s={_fmt(p['cpu_s'])} peak_rss_mb={_fmt(p['peak_rss_mb'])} "
              f"setup_s={_fmt(p['setup_s'])} bad_cells={len(bad)}")
        for c in bad:
            print(f"      FAIL {c['cell']} rc={c['rc']} {c['error'] or 'digest mismatch'}")
    metrics: dict[str, dict] = {}
    print(f"   {prefix}error_rate {_fmt(rate)} ratio (failed {run['failed']} of {run['attempted']} calls)")
    if not run["passes"]:
        return metrics
    if has_traced(run):
        units = metric_units("per_layer")
        for name, value in per_layer(run).items():
            unit = units.get(name, "")
            print(f"   {prefix}{name} {_fmt(value)} {unit}")
            if name in units:
                metrics[prefix + name] = {"value": value, "unit": unit}
        return metrics
    units = metric_units("end_to_end")
    for name, d in end_to_end(run).items():
        unit = units[name]
        tail = (f"p{d['tail_pct']} {_fmt(d['tail'])}" if d["tail"] is not None
                else "tail n/a (<11 samples)")
        print(f"   {prefix}{name} median {_fmt(d['median'])} {unit} n={d['n']} "
              f"q1={_fmt(d['q1'])} q3={_fmt(d['q3'])} min={_fmt(d['min'])} "
              f"max={_fmt(d['max'])} {tail}")
        metrics[prefix + name] = {"value": d["median"], "unit": unit}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="matroidcat catalogue benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measuring time; a pass starts only if it should fit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test cells (every generated rank <= 3)")
    parser.add_argument("--results", default=".perfbench_out/results.jsonl",
                        help="JSON-lines file each run is appended to")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "matroidcat" / "__init__.py").is_file():
        print(f"error: run from a checkout root; no package at {src}/matroidcat",
              file=sys.stderr)
        return 2
    goldens = workloads.load_goldens()
    machine = machine_record(root, src)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    try:
        for w in names:
            runs.append(run_workload(root, src, w, args.seed, args.seconds,
                                     bool(args.trace), args.tiny, goldens))
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    machine["loadavg_end"] = list(os.getloadavg())
    print("machine " + json.dumps(machine, sort_keys=True))
    metrics: dict[str, dict] = {}
    for run in runs:
        metrics.update(report(run, prefix=f"{run['workload']}." if len(runs) > 1 else ""))
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)

    results = Path(args.results)
    results.parent.mkdir(parents=True, exist_ok=True)
    with open(results, "a", encoding="utf-8") as fh:
        for run in runs:
            record = {
                "time": time.time(),
                "machine": machine,
                "workload": run["workload"],
                "seed": run["seed"],
                "seconds": run["seconds"],
                "trace": run["trace"],
                "tiny": run["tiny"],
                "attempted": run["attempted"],
                "failed": run["failed"],
                "end_to_end": end_to_end(run) if run["passes"] else {},
                "per_layer": per_layer(run) if has_traced(run) else {},
                "passes": [{k: v for k, v in p.items() if k != "layers"} for p in run["passes"]],
                "setups": run["setups"],
            }
            fh.write(json.dumps(record) + "\n")

    print(json.dumps({
        "correct": failed == 0 and all(r["passes"] for r in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
