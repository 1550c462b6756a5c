#!/usr/bin/env python3
"""Unit tests for perf_smoke.py on synthetic tb-bench-report/v1 pairs.

    python3 tools/test_perf_smoke.py

Each case writes a baseline and a new report into a temporary directory
and runs perf_smoke.py on them as a subprocess, checking its exit status
and output.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

PERF_SMOKE = Path(__file__).resolve().parent / "perf_smoke.py"
METRIC = "BM_WriteTakeThreaded/noise:10000/shards:4.real_ns_per_iter"


def report(value, host_cpus=4, name=METRIC):
    return {
        "schema": "tb-bench-report/v1",
        "params": {"host_cpus": host_cpus},
        "key_metrics": [
            {"name": name, "value": value, "unit": "ns", "better": "lower"},
        ],
    }


class PerfSmokeTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def run_pair(self, baseline, new, *args):
        old_path = self.dir / "baseline.json"
        new_path = self.dir / "new.json"
        old_path.write_text(json.dumps(baseline))
        new_path.write_text(json.dumps(new))
        return subprocess.run(
            [sys.executable, str(PERF_SMOKE), str(old_path), str(new_path),
             "--metric", METRIC, *args],
            capture_output=True, text=True, timeout=60)

    def test_regression_beyond_threshold_fails(self):
        # 100 -> 200 ns is 100% slower, past a 50% gate.
        out = self.run_pair(report(100.0), report(200.0), "--threshold", "50")
        self.assertEqual(out.returncode, 1, out.stdout)
        self.assertIn("FAIL", out.stdout)

    def test_cpu_sensitive_demotes_on_host_cpus_mismatch(self):
        out = self.run_pair(report(100.0, host_cpus=1),
                            report(200.0, host_cpus=4),
                            "--threshold", "50", "--cpu-sensitive")
        self.assertEqual(out.returncode, 0, out.stdout)
        self.assertIn("NOTE", out.stdout)
        self.assertNotIn("FAIL", out.stdout)

    def test_missing_gated_metric_fails(self):
        out = self.run_pair(report(100.0), report(100.0, name="other"),
                            "--threshold", "50")
        self.assertEqual(out.returncode, 1, out.stdout)
        self.assertIn("no key metric", out.stdout)

    def test_zero_baseline_fails(self):
        out = self.run_pair(report(0.0), report(100.0), "--threshold", "50")
        self.assertEqual(out.returncode, 1, out.stdout)
        self.assertIn("baseline value", out.stdout)


if __name__ == "__main__":
    unittest.main()
