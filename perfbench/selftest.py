"""Self-tests of the benchmark itself (not of twotor).

    python3 perfbench/selftest.py

- a corrupted output is counted as a failed op;
- the metric names and units run.py prints match BENCHMARK.json;
- the trace wrappers are fully removed after a traced job;
- on a small op list, wrapper call counts equal cProfile ``ncalls``;
- the host-speed scaling leaves out the sampler's own time and divides out
  a slowdown of the sampler kernel.

The file is deliberately not named test_*.py: the repository's own pytest
run should not pick up these slower, subprocess-driven checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL_OPS = [
    ["classify", "5", "5"],
    ["classify", "-1234", "98765"],
    ["census", "--x", "1e4", "--workers", "1"],
    ["tails", "index", "--grid", "1e3", "--workers", "1"],
    ["tails", "szpiro", "--grid", "1e3", "--workers", "1"],
    ["euler", "--family", "condpoly", "--tol", "1e-3"],
    ["lp", "--delta", "1/100"],
    ["real-density", "--method", "quad", "--z", "100"],
]


def cli_stdout(argv: list) -> str:
    from twotor import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.refs = check.load_refs()
        a, b = workloads.load_pool()[0][:2]
        cls.classify_argv = ["classify", str(a), str(b)]
        cls.classify_out = cli_stdout(cls.classify_argv)

    def test_reference_output_passes(self):
        self.assertIsNone(check.check_op(self.classify_argv, 0, None, self.classify_out, self.refs))

    def test_corrupted_classify_fails(self):
        for field in ("conductor", "minimal_b", "cond_poly"):
            doc = json.loads(self.classify_out)
            doc["invariants"][field] += 1
            reason = check.check_op(self.classify_argv, 0, None, json.dumps(doc), self.refs)
            self.assertIsNotNone(reason, field)
        doc = json.loads(self.classify_out)
        doc["local"][0]["symbol"] = "not a symbol"
        reason = check.check_op(self.classify_argv, 0, None, json.dumps(doc), self.refs)
        self.assertIsNotNone(reason)

    def test_corrupted_lp_fails(self):
        argv = ["lp", "--sweep"]
        doc = json.loads(cli_stdout(argv))
        self.assertIsNone(check.check_op(argv, 0, None, json.dumps(doc), self.refs))
        doc["rows"][3]["simplex"]["num"] += 1
        self.assertIsNotNone(check.check_op(argv, 0, None, json.dumps(doc), self.refs))

    def test_bad_exit_and_garbage_fail(self):
        argv = self.classify_argv
        self.assertIsNotNone(check.check_op(argv, 2, None, self.classify_out, self.refs))
        self.assertIsNotNone(check.check_op(argv, None, "ValueError: x", "", self.refs))
        self.assertIsNotNone(check.check_op(argv, 0, None, self.classify_out[:-20], self.refs))


class WrapperTest(unittest.TestCase):
    def test_install_and_uninstall_in_process(self):
        from twotor import arithmetic, census, curve_core

        originals = (curve_core.avg_szpiro, census.avg_szpiro,
                     vars(arithmetic._SpfSieve)["_build"], census._census_records)
        rec = tracer.Recorder()
        rec.install()
        try:
            self.assertIsNot(curve_core.avg_szpiro, originals[0])
            self.assertIs(census.avg_szpiro, curve_core.avg_szpiro)
            self.assertIsNot(vars(arithmetic._SpfSieve)["_build"], originals[2])
            self.assertFalse(tracer.Recorder.verify_removed())
            cli_stdout(["census", "--x", "1e3", "--workers", "1"])
        finally:
            rec.uninstall()
        now = (curve_core.avg_szpiro, census.avg_szpiro,
               vars(arithmetic._SpfSieve)["_build"], census._census_records)
        for before, after in zip(originals, now):
            self.assertIs(before, after)
        self.assertTrue(tracer.Recorder.verify_removed())
        self.assertEqual(rec.call_counts()["census._census_records"], 1)

    def test_traced_child_removes_wrappers_and_matches_cprofile(self):
        deadline = time.monotonic() + 170
        traced = run.run_child(SMALL_OPS, "trace", deadline)
        profiled = run.run_child(SMALL_OPS, "profile", deadline)
        self.assertTrue(traced["trace"]["wrappers_removed"])
        calls, ncalls = traced["trace"]["calls"], profiled["profile"]
        self.assertEqual(set(calls), set(ncalls))
        mismatched = {k: (calls[k], ncalls[k]) for k in calls if calls[k] != ncalls[k]}
        self.assertEqual(mismatched, {})
        self.assertGreater(sum(calls.values()), 1000)
        for job in (traced, profiled):
            self.assertTrue(all(op["rc"] == 0 for op in job["ops"]))


class HostSpeedTest(unittest.TestCase):
    def sampler(self, cost):
        sampler = hostspeed.Sampler()
        sampler.starts = [float(t) for t in range(1, 10)]
        sampler.ends = [t + cost for t in sampler.starts]
        return sampler

    def test_reference_speed_leaves_out_sampler_time(self):
        sampler = self.sampler(hostspeed.REF_KERNEL_S)
        # [0.5, 9.5] holds 9 kernel runs
        self.assertAlmostEqual(sampler.scaled(0.5, 9.5), 9.0 - 9 * hostspeed.REF_KERNEL_S)
        self.assertAlmostEqual(sampler.scaled(2.5, 3.5), 1.0 - hostspeed.REF_KERNEL_S)
        self.assertAlmostEqual(sampler.scaled(20.0, 21.0), 1.0)

    def test_slowdown_is_divided_out(self):
        slow = self.sampler(2 * hostspeed.REF_KERNEL_S)
        self.assertAlmostEqual(slow.scaled(2.5, 3.5), (1.0 - 2 * hostspeed.REF_KERNEL_S) / 2)
        self.assertEqual(hostspeed.Sampler().scaled(1.0, 3.0), 2.0)

    def test_live_sampler_stops(self):
        sampler = hostspeed.Sampler()
        sampler.start()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
        sampler.stop()
        taken = len(sampler.starts)
        self.assertGreater(taken, 5)
        time.sleep(0.05)
        self.assertEqual(len(sampler.starts), taken)


class MetricNamesTest(unittest.TestCase):
    def test_printed_metrics_match_benchmark_json(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", "classify",
                 "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=180)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(last["correct"])
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: m["unit"] for k, m in last["metrics"].items()}
            self.assertEqual(got, want)
            for name in want:
                self.assertIn(f"classify: {name} = ", proc.stdout)


if __name__ == "__main__":
    unittest.main()
