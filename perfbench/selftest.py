"""Tests of the benchmark harness itself, on tiny inputs.

Run from the repository root:

    python3 perfbench/selftest.py

The file name keeps it out of the program's pytest suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import rctv.solver  # noqa: E402

import envinfo  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OPEN = workloads.Floors(mpsnr_gain_db=-1e9, mssim=-1.0, ergas=1e9, msam_rad=1e9)
TINY_SOLVE = workloads.SolveWorkload(
    name="tiny", shape=(16, 12, 8), clean_rank=2, case="f", profile="msi31",
    normalize=True, preset="mixed", rank=3, max_iter=3, inputs_per_run=1, floors=OPEN,
)
TINY_CLI = workloads.CliWorkload(
    name="tiny-cli", shape=(16, 12, 8), clean_rank=2, case="e", profile="msi31", inputs_per_run=1,
    floors=OPEN,
)


def module_snapshot():
    return {(m.__name__, k): v for m in tracing.rctv_modules() for k, v in vars(m).items()}


class Probe:
    """Wraps a workload and records, inside the timed section, what update_e is."""

    def __init__(self, inner):
        self.inner = inner
        self.seen = None

    def timed(self, inputs):
        self.seen = rctv.solver.update_e
        return self.inner.timed(inputs)

    def check(self, inputs, result, wall_s):
        return self.inner.check(inputs, result, wall_s)


class HarnessTest(unittest.TestCase):
    def setUp(self):
        self.workdir = tempfile.mkdtemp()
        self.addCleanup(shutil.rmtree, self.workdir, True)

    def test_blas_thread_count_reads_one(self):
        self.assertEqual(envinfo.require_one_thread()[0], 1)

    def test_untraced_rep_installs_no_wrapper(self):
        original = rctv.solver.update_e
        before = module_snapshot()
        probe = Probe(TINY_SOLVE)
        rep = run.run_rep(probe, TINY_SOLVE.setup(1, self.workdir), None)
        self.assertIsNone(rep.error)
        self.assertIs(probe.seen, original)
        self.assertEqual(module_snapshot(), before)

    def test_traced_rep_wraps_then_restores(self):
        original = rctv.solver.update_e
        before = module_snapshot()
        probe = Probe(TINY_SOLVE)
        tracer = tracing.Tracer("t", mn_rows=16 * 12)
        rep = run.run_rep(probe, TINY_SOLVE.setup(1, self.workdir), tracer)
        self.assertIsNone(rep.error)
        self.assertIsNot(probe.seen, original)
        self.assertIs(probe.seen.__wrapped__, original)
        self.assertEqual(module_snapshot(), before)

    def test_self_times_add_up_to_wall(self):
        tracer = tracing.Tracer("t", mn_rows=16 * 12)
        rep = run.run_rep(TINY_SOLVE, TINY_SOLVE.setup(1, self.workdir), tracer)
        self.assertIsNone(rep.error)
        stats = tracer.stats()
        layers = ("solver", "diffops", "linalg", "cube", "trace")
        self.assertAlmostEqual(sum(stats.get(f"{x}.self_s", 0.0) for x in layers), tracer.total_self_s())
        self.assertLess(abs(tracer.total_self_s() / rep.wall_s - 1.0), run.TRACE_COVERAGE_TOL)
        self.assertEqual(stats["solver.solve.calls"], 1)
        self.assertEqual(stats["solver.update_e.calls"], TINY_SOLVE.max_iter)
        self.assertEqual(stats["linalg.thin_svd.mnb_calls"], 1)
        self.assertGreater(stats["solver.peak_alloc_x"], 1.0)
        for s in tracer.spans:
            self.assertLessEqual(s.start, s.end)

    def test_cli_rep_counts_io_and_rank_svd(self):
        tracer = tracing.Tracer("t", mn_rows=16 * 12)
        inputs = TINY_CLI.setup(1, self.workdir)
        run.run_rep(TINY_CLI, inputs, tracer)
        stats = tracer.stats()
        payload = 4 * 16 * 12 * 8
        # simulate and denoise read one cube each, metrics two.
        self.assertEqual(stats["cube.bytes_read"], 4 * payload)
        self.assertEqual(stats["cube.bytes_written"], 2 * payload)
        # --rank auto decomposes the full Casorati matrix, then init again.
        self.assertEqual(stats["linalg.thin_svd.mnb_calls"], 2)
        self.assertEqual(stats["cli.main.calls"], 3)
        self.assertGreater(stats["cli._write_manifest.calls"], 0)

    def test_refuses_to_run_without_program_source(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "highrank",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
