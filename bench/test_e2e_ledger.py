#!/usr/bin/env python3
"""Unit tests of bench/e2e_ledger.py: python3 -B bench/test_e2e_ledger.py"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import e2e_ledger  # noqa: E402

HOST = {"nproc": 4, "compiler": "c++ 12"}


def record(trace, run_s=1.0, replans=12, turnaround=59.0):
    if trace:
        metrics = {"lp.solve.calls": {"value": replans, "unit": "count"},
                   "sim.self_s": {"value": run_s / 2, "unit": "s"},
                   "core.lp_jobs_mean": {"value": 19.25, "unit": "jobs"}}
    else:
        metrics = {"run_s": {"value": run_s, "unit": "s"},
                   "setup_s": {"value": 0.1, "unit": "s"},
                   "peak_rss_mb": {"value": 80.0, "unit": "MB"},
                   "adhoc_turnaround_s_mean": {"value": turnaround,
                                               "unit": "sim_s"},
                   "adhoc_turnaround_s_p95": {"value": 176.0,
                                              "unit": "sim_s"}}
    return {"workload": "adhoc_flood", "seed": 13, "trace": trace,
            "correct": True, "attempted": 100, "failed": 0,
            "metrics": metrics}


class LedgerTest(unittest.TestCase):
    def test_row_has_spread_counters_and_layers(self):
        records = [record(0, run_s=v) for v in (1.0, 2.0, 3.0, 4.0, 5.0)]
        records.append(record(1))
        (row,) = e2e_ledger.make_rows(records, "x", "abc", HOST)
        self.assertEqual(row["runs"], 5)
        self.assertEqual(row["run_s"], {"median": 3.0, "q1": 1.5, "q3": 4.5})
        self.assertEqual(row["counters"], {"lp.solve.calls": 12})
        self.assertEqual(row["layers"], {"sim.self_s": 0.5})
        self.assertEqual(row["adhoc_turnaround_s_mean"], 59.0)
        self.assertEqual(e2e_ledger.check({"schema": e2e_ledger.SCHEMA,
                                           "rows": [row]}), [])

    def test_counters_that_differ_between_runs_fail(self):
        records = [record(0), record(1, replans=12), record(1, replans=13)]
        with self.assertRaisesRegex(e2e_ledger.LedgerError, "lp.solve.calls"):
            e2e_ledger.make_rows(records, "x", "abc", HOST)

    def test_turnarounds_that_differ_between_runs_fail(self):
        records = [record(0), record(0, turnaround=60.0), record(1)]
        with self.assertRaisesRegex(e2e_ledger.LedgerError, "turnaround"):
            e2e_ledger.make_rows(records, "x", "abc", HOST)

    def test_a_row_needs_both_kinds_of_run(self):
        with self.assertRaisesRegex(e2e_ledger.LedgerError, "trace 1"):
            e2e_ledger.make_rows([record(0)], "x", "abc", HOST)

    def test_check_rejects_duplicate_and_malformed_rows(self):
        (row,) = e2e_ledger.make_rows([record(0), record(1)], "x", "abc", HOST)
        broken = dict(row)
        del broken["host"]
        errors = e2e_ledger.check({"schema": e2e_ledger.SCHEMA,
                                   "rows": [row, row, broken]})
        self.assertEqual(len(errors), 2)
        self.assertIn("duplicate", errors[0])
        self.assertIn("keys", errors[1])


if __name__ == "__main__":
    unittest.main()
