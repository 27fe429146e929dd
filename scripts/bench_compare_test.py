#!/usr/bin/env python3
"""Unit tests for scripts/bench_compare.py's mining-phase and exact-counter
gates.

Each case writes a baseline and a fresh snapshot of one k/2-hop record to a
temp directory and runs the guard on them, as CI does.

Run directly (python3 scripts/bench_compare_test.py) or via
scripts/ci.sh --lint.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "bench_compare.py")


def record(**fields):
    rec = {"bench": "bench_fig8i_phases", "miner": "k2hop", "store": "lsmt",
           "params": {"m": 3, "k": 200, "eps": 30}, "wall_ms": 20.0,
           "convoys": 58}
    rec.update(fields)
    return rec


def compare(base, fresh):
    """Runs the guard on one record each side; returns (exit code, stdout)."""
    with tempfile.TemporaryDirectory() as root:
        paths = []
        for name, rec in (("base.json", base), ("fresh.json", fresh)):
            path = os.path.join(root, name)
            with open(path, "w") as f:
                json.dump({"scale": 1.0, "records": [rec]}, f)
            paths.append(path)
        run = subprocess.run([sys.executable, SCRIPT, *paths],
                             capture_output=True, text=True)
        return run.returncode, run.stdout


class PhaseFieldTest(unittest.TestCase):
    def test_field_over_tolerance_fails(self):
        code, out = compare(record(hwmt_ms=8.0), record(hwmt_ms=17.0))
        self.assertEqual(code, 1, out)
        self.assertIn("hwmt_ms 8.0 ms -> 17.0 ms", out)

    def test_field_under_floor_on_both_sides_is_ignored(self):
        # 4x slower, but both sides are under the 5 ms floor.
        code, out = compare(record(validation_ms=1.0),
                            record(validation_ms=4.0))
        self.assertEqual(code, 0, out)

    def test_missing_field_is_skipped(self):
        # Absent on the fresh side, then on the baseline side.
        code, out = compare(record(merge_ms=10.0), record())
        self.assertEqual(code, 0, out)
        code, out = compare(record(), record(merge_ms=100.0))
        self.assertEqual(code, 0, out)


class ExactCounterTest(unittest.TestCase):
    def test_drifted_counter_fails(self):
        code, out = compare(record(io_stats={"points_read": 100}),
                            record(io_stats={"points_read": 101}))
        self.assertEqual(code, 1, out)
        self.assertIn("io_stats.points_read drifted 100 -> 101", out)
        code, out = compare(record(validation_reclusterings=4385),
                            record(validation_reclusterings=4384))
        self.assertEqual(code, 1, out)
        self.assertIn("validation_reclusterings drifted 4385 -> 4384", out)

    def test_drifted_fetch_and_recluster_counts_fail(self):
        code, out = compare(record(io_stats={"point_fetches": 47531}),
                            record(io_stats={"point_fetches": 76965}))
        self.assertEqual(code, 1, out)
        self.assertIn("io_stats.point_fetches drifted 47531 -> 76965", out)
        code, out = compare(record(reclusterings=76965),
                            record(reclusterings=76966))
        self.assertEqual(code, 1, out)
        self.assertIn("reclusterings drifted 76965 -> 76966", out)

    def test_equal_counters_pass(self):
        counters = {"points_read": 100, "point_queries": 90,
                    "scanned_points": 10, "bytes_read": 5}
        fresh = dict(counters, bytes_read=7)  # not an exact field
        code, out = compare(
            record(io_stats=counters, validation_reclusterings=3),
            record(io_stats=fresh, validation_reclusterings=3))
        self.assertEqual(code, 0, out)

    def test_absent_counter_is_skipped(self):
        # Absent on the fresh side, then on the baseline side.
        code, out = compare(record(io_stats={"point_queries": 9}),
                            record(io_stats={}))
        self.assertEqual(code, 0, out)
        code, out = compare(record(), record(validation_reclusterings=8,
                                             io_stats={"points_read": 1}))
        self.assertEqual(code, 0, out)

    def test_ledger_without_the_new_counters_is_skipped(self):
        # A ledger written before point_fetches and reclusterings existed
        # still compares against a fresh snapshot that carries them.
        code, out = compare(
            record(io_stats={"point_queries": 9}, validation_reclusterings=3),
            record(io_stats={"point_queries": 9, "point_fetches": 4},
                   reclusterings=12, validation_reclusterings=3))
        self.assertEqual(code, 0, out)


def streaming_record(**fields):
    rec = {"bench": "bench_streaming", "miner": "online_k2hop",
           "store": "memory", "params": {"m": 3, "k": 200, "eps": 30},
           "wall_ms": 20.0, "convoys": 58, "closed_eagerly": 56,
           "open_at_finalize": 7}
    rec.update(fields)
    return rec


class EagerChannelTest(unittest.TestCase):
    def test_drifted_eager_count_fails(self):
        code, out = compare(streaming_record(),
                            streaming_record(closed_eagerly=55))
        self.assertEqual(code, 1, out)
        self.assertIn("closed_eagerly drifted 56 -> 55", out)
        code, out = compare(streaming_record(),
                            streaming_record(open_at_finalize=8))
        self.assertEqual(code, 1, out)
        self.assertIn("open_at_finalize drifted 7 -> 8", out)

    def test_absent_eager_count_is_skipped(self):
        fresh = streaming_record()
        del fresh["closed_eagerly"]
        del fresh["open_at_finalize"]
        code, out = compare(streaming_record(), fresh)
        self.assertEqual(code, 0, out)
        code, out = compare(fresh, streaming_record())
        self.assertEqual(code, 0, out)


if __name__ == "__main__":
    unittest.main()
