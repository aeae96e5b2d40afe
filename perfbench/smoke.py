"""Smoke tests of the benchmark itself, on cells of rank <= 3.

Run from the root of a checkout::

    python3 perfbench/smoke.py

They take a few seconds and write only under ``.perfbench_out/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import unittest
from pathlib import Path

import run
import spans
import workloads

ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out" / "smoke"
SPEC = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), *args,
         "--results", str(OUT / "results.jsonl")],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class WorkloadSmoke(unittest.TestCase):
    def check_run(self, workload: str, trace: int, expected: list[dict]) -> None:
        proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--tiny")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], len(workloads.cells(workload, tiny=True)))
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        text = "\n".join(lines[:-1])
        for m in expected:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            self.assertIsInstance(result["metrics"][m["name"]]["value"], (int, float))
            self.assertRegex(text, rf"{m['name']} .*{m['unit']}")

    def test_every_workload_untraced(self) -> None:
        for w in workloads.WORKLOADS:
            with self.subTest(workload=w):
                self.check_run(w, 0, SPEC["end_to_end"])

    def test_every_workload_traced(self) -> None:
        for w in workloads.WORKLOADS:
            with self.subTest(workload=w):
                self.check_run(w, 1, SPEC["per_layer"])

    def test_seed_only_permutes_cells(self) -> None:
        for w in workloads.WORKLOADS:
            base = sorted(workloads.cells(w))
            for seed in (1, 2):
                self.assertEqual(sorted(workloads.pass_order(w, seed, 0)), base)
        self.assertEqual(workloads.pass_order("sweep", 7, 0), workloads.pass_order("sweep", 7, 0))

    def test_goldens_cover_every_cell(self) -> None:
        goldens = workloads.load_goldens()
        for w in workloads.WORKLOADS:
            for tiny in (False, True):
                for cell in workloads.cells(w, tiny):
                    self.assertIn(workloads.cell_key(cell), goldens)


class FailureCounting(unittest.TestCase):
    def setUp(self) -> None:
        self.work = OUT / "work"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.goldens = workloads.load_goldens()

    def run_and_check(self, order, corrupt=None):
        result = run.run_pass(ROOT / "src", order, self.work, False, None, 60)
        if corrupt is not None:
            with open(self.work / corrupt, "ab") as fh:
                fh.write(b"k=1 n=1 r=(1) flags=LSC\n")
        return run.check_outputs(order, result["calls"], self.work, self.goldens)

    def test_corrupted_listing_is_a_failure(self) -> None:
        order = workloads.cells("sweep", tiny=True)
        clean = self.run_and_check(order)
        self.assertTrue(all(c["ok"] for c in clean))
        listing = max(range(len(order)), key=lambda i: clean[i]["entries"])
        checks = self.run_and_check(order, corrupt=f"cell{listing}.txt")
        self.assertEqual([i for i, c in enumerate(checks) if not c["ok"]], [listing])

    def test_corrupted_counts_table_is_a_failure(self) -> None:
        order = workloads.cells("scan", tiny=True)
        table = [i for i, c in enumerate(order) if not workloads.writes_listing(c)][0]
        checks = self.run_and_check(order, corrupt=f"cell{table}.stdout")
        self.assertEqual([i for i, c in enumerate(checks) if not c["ok"]], [table])

    def test_nonzero_exit_is_a_failure(self) -> None:
        order = [("generate", "--rank", "3", "--size", "2", "--class", "simple")]
        checks = self.run_and_check(order)
        self.assertEqual(checks[0]["rc"], 2)
        self.assertFalse(checks[0]["ok"])

    def test_refuses_a_directory_without_the_package(self) -> None:
        bare = OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.HERE.parent / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "dual",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class TracerUnits(unittest.TestCase):
    def test_threads_record_every_call(self) -> None:
        tracer = spans.Tracer()
        inner = tracer.wrap("gf2.rref", lambda x: x)
        outer = tracer.wrap("matroid.build", lambda x: inner(x) + 1)
        per_thread = 2000
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: [outer(i) for i in range(per_thread)])
                       for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            self.assertFalse(any(t.is_alive() for t in threads))
        finally:
            sys.setswitchinterval(old)
        buffers = tracer.threads()
        self.assertEqual(len({b.thread_id for b in buffers}), 8)
        summary = spans.summarize(tracer)
        self.assertEqual(summary["matroid.build.calls"], 8 * per_thread)
        self.assertEqual(summary["gf2.rref.calls"], 8 * per_thread)
        self.assertEqual(summary["trace.spans"], 16 * per_thread)
        self.assertGreater(summary["matroid.self_s"], 0)

    def test_self_time_subtracts_children(self) -> None:
        tracer = spans.Tracer()
        for name in ("catalogue.main", "matroid.build", "gf2.rref"):
            tracer._name_id(name)
        buf = tracer._buffer()
        # main [0, 100) holds build [10, 60), which holds rref [20, 30);
        # another thread's rref [25, 80) overlaps both
        buf.spans += [(2, 20, 30, 2, 0), (1, 10, 60, 1, 0), (0, 0, 100, 0, 0)]
        other = threading.Thread(target=lambda: tracer._buffer().spans.append((2, 25, 80, 0, 0)))
        other.start()
        other.join(timeout=10)
        self.assertFalse(other.is_alive())
        summary = spans.summarize(tracer)
        self.assertAlmostEqual(summary["matroid.self_s"], 40e-9)  # [10,20) + [30,60)
        self.assertAlmostEqual(summary["gf2.self_s"], 60e-9)  # [20,30) u [25,80)
        self.assertAlmostEqual(summary["gf2.rref.s"], 60e-9)
        self.assertAlmostEqual(summary["catalogue.self_s"], 30e-9)  # 100 - [10,80)


if __name__ == "__main__":
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        unittest.main(verbosity=2)
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
