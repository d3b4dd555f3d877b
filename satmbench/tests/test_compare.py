"""Tests of satmbench/compare.py: stamps, quartiles and verdicts."""

import json
import os
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import compare  # noqa: E402

STAMP = {"nproc": 4, "cpu_model": "x", "kernel": "k", "source_sha256": "s",
         "build_type": "RelWithDebInfo", "satm_env": {}, "seed": 1}


def record(workload, seed, value, stamp=STAMP, correct=True):
    return {"workload": workload, "seed": seed, "correct": correct,
            "stamp": stamp,
            "end_to_end": {"throughput_ops_s": {"value": value,
                                                "unit": "ops/s"}}}


class LoadRecords(unittest.TestCase):
    def write(self, recs):
        fd, path = tempfile.mkstemp(suffix=".jsonl")
        with os.fdopen(fd, "w") as f:
            for r in recs:
                f.write(json.dumps(r) + "\n")
        self.addCleanup(os.unlink, path)
        return path

    def test_stamped_records_load(self):
        path = self.write([record("w", 1, 10.0), record("w", 2, 11.0)])
        self.assertEqual(len(compare.load_records(path)), 2)

    def test_unstamped_record_is_rejected(self):
        path = self.write([record("w", 1, 10.0, stamp=None)])
        with self.assertRaises(SystemExit):
            compare.load_records(path)

    def test_incomplete_stamp_is_rejected(self):
        partial = {k: v for k, v in STAMP.items() if k != "source_sha256"}
        path = self.write([record("w", 1, 10.0, stamp=partial)])
        with self.assertRaises(SystemExit):
            compare.load_records(path)

    def test_failed_run_is_skipped(self):
        path = self.write([record("w", 1, 10.0, correct=False),
                           record("w", 2, 11.0)])
        self.assertEqual([r["seed"] for r in compare.load_records(path)], [2])


class Verdicts(unittest.TestCase):
    A = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_quartiles_match_statistics(self):
        q1, med, q3 = compare.quartiles(self.A)
        self.assertAlmostEqual(med, 100.05)
        self.assertLess(q1, med)
        self.assertGreater(q3, med)

    def test_same_is_unchanged(self):
        v, _ = compare.verdict(self.A, list(self.A), 0.1, True)
        self.assertEqual(v, "unchanged")

    def test_clear_gain_is_improved(self):
        b = [x * 1.2 for x in self.A]
        v, win = compare.verdict(self.A, b, 0.1, True)
        self.assertEqual((v, win), ("improved", 1.0))

    def test_loss_beyond_bound_is_worse(self):
        b = [x * 0.8 for x in self.A]
        self.assertEqual(compare.verdict(self.A, b, 0.1, True)[0], "worse")
        # For a lower-is-better metric the same numbers are a gain.
        self.assertEqual(compare.verdict(self.A, b, 0.1, False)[0],
                         "improved")

    def test_wide_spread_is_unresolved(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0,
                 100.0]
        b = [x * 1.02 for x in noisy]
        self.assertEqual(compare.verdict(noisy, b, 0.1, True)[0],
                         "unresolved")


if __name__ == "__main__":
    unittest.main()
