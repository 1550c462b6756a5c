#!/usr/bin/env python3
"""Unit tests for bench_compare.py on synthetic tb-bench-report/v1 pairs.

    python3 tools/test_bench_compare.py

Each case writes a baseline directory and a new directory of BENCH_*.json
reports into a temporary directory and runs bench_compare.py on them as a
subprocess, checking its exit status and output. The reports encode a
Table 4 cell the way bench_table4_impact does: `<cell>_s` holds the
seconds (0 when the cell did not complete in time) and `<cell>_completed`
the gated completion flag.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_COMPARE = Path(__file__).resolve().parent / "bench_compare.py"
CELL = "cbr1.0.2wire"


def cell_metrics(seconds):
    """Key metrics for one cell; `seconds` None means it ran out of time."""
    completed = seconds is not None
    value = seconds if completed else 0.0
    timing = {"name": f"{CELL}_s", "value": value, "better": "lower",
              "unit": "s", "gate": True}
    if value == 0.0:
        timing["tolerance_pct"] = 0
    flag = {"name": f"{CELL}_completed", "value": 1.0 if completed else 0.0,
            "better": "higher", "gate": True, "tolerance_pct": 0}
    return [timing, flag]


def report(seconds):
    return {
        "schema": "tb-bench-report/v1",
        "bench": "table4_impact",
        "short_mode": True,
        "params": {"lease_time_s": 160},
        "key_metrics": cell_metrics(seconds),
    }


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        root = Path(self._tmp.name)
        self.old_dir = root / "old"
        self.new_dir = root / "new"
        self.old_dir.mkdir()
        self.new_dir.mkdir()

    def tearDown(self):
        self._tmp.cleanup()

    def run_compare(self, old, new):
        """Writes the reports (None = no report) and runs the comparer."""
        for directory, data in ((self.old_dir, old), (self.new_dir, new)):
            if data is not None:
                path = directory / "BENCH_table4_impact.json"
                path.write_text(json.dumps(data))
        return subprocess.run(
            [sys.executable, str(BENCH_COMPARE), str(self.old_dir),
             str(self.new_dir)],
            capture_output=True, text=True, timeout=60)

    def test_completed_to_expired_fails(self):
        out = self.run_compare(report(144.19), report(None))
        self.assertEqual(out.returncode, 1, out.stdout)
        self.assertIn(f"FAIL [table4_impact] {CELL}_completed", out.stdout)

    def test_expired_to_completed_fails(self):
        out = self.run_compare(report(None), report(144.0))
        self.assertEqual(out.returncode, 1, out.stdout)
        self.assertIn(f"FAIL [table4_impact] {CELL}_s", out.stdout)

    def test_drift_within_tolerance_passes(self):
        # 144.19 -> 145.0 s is 0.56% worse, inside the default 10%.
        out = self.run_compare(report(144.19), report(145.0))
        self.assertEqual(out.returncode, 0, out.stdout)
        self.assertIn("0 gated regression(s)", out.stdout)

    def test_missing_report_fails(self):
        out = self.run_compare(report(144.19), None)
        self.assertEqual(out.returncode, 1, out.stdout)
        self.assertIn("report missing", out.stdout)


if __name__ == "__main__":
    unittest.main()
