#!/usr/bin/env python3
"""Self-tests of run.py's report schema and exactness checks.

    python3 perfbench/test_run.py
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

EXPECTED = [("p50_us", "us"), ("setup_s", "s")]


def result(**over):
    r = {"correct": True, "attempted": 10, "failed": 0,
         "metrics": {"p50_us": {"value": 1.5, "unit": "us"},
                     "setup_s": {"value": 0.25, "unit": "s"}}}
    r.update(over)
    return r


class SchemaTest(unittest.TestCase):
    def test_well_formed(self):
        self.assertEqual(run.check_schema(result(), EXPECTED), [])

    def test_round_trip_of_the_printed_line(self):
        line = json.dumps(result())
        self.assertEqual(run.check_schema(json.loads(line), EXPECTED), [])

    def test_extra_top_level_key(self):
        r = result()
        r["error_rate"] = 0
        self.assertTrue(run.check_schema(r, EXPECTED))

    def test_missing_and_extra_metric(self):
        r = result()
        r["metrics"]["ops_per_s"] = r["metrics"].pop("setup_s")
        problems = run.check_schema(r, EXPECTED)
        self.assertTrue(any("missing ['setup_s']" in p for p in problems))

    def test_wrong_unit(self):
        r = result()
        r["metrics"]["p50_us"]["unit"] = "ms"
        self.assertTrue(run.check_schema(r, EXPECTED))

    def test_counts_must_be_whole_numbers(self):
        self.assertTrue(run.check_schema(result(attempted=1.5), EXPECTED))
        self.assertTrue(run.check_schema(result(attempted=0), EXPECTED))
        self.assertTrue(run.check_schema(result(failed=True), EXPECTED))

    def test_values_must_be_finite_numbers(self):
        for bad in (float("nan"), float("inf"), "1", None, True):
            r = result()
            r["metrics"]["p50_us"]["value"] = bad
            self.assertTrue(run.check_schema(r, EXPECTED), bad)

    def test_benchmark_json_lists(self):
        # Both metric lists exist and carry distinct names.
        for trace in (False, True):
            names = [n for n, _ in run.expected_metrics(trace)]
            self.assertTrue(names)
            self.assertEqual(len(names), len(set(names)))


class ExactTest(unittest.TestCase):
    def test_store_then_compare(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "w-seed1.json")
            self.assertEqual(run.check_exact(path, {"sim_mkps": 1.25}), [])
            # Same value, plus a new key from a traced run: accepted.
            self.assertEqual(
                run.check_exact(path, {"sim_mkps": 1.25, "b": 2.0}), [])
            with open(path) as f:
                self.assertEqual(json.load(f),
                                 {"sim_mkps": 1.25, "b": 2.0})
            # Any difference fails and leaves the record untouched.
            self.assertEqual(
                run.check_exact(path, {"sim_mkps": 1.2500000000000002}),
                ["sim_mkps"])
            with open(path) as f:
                self.assertEqual(json.load(f)["sim_mkps"], 1.25)

    def test_changed_sources_start_a_fresh_record(self):
        with tempfile.TemporaryDirectory() as d:
            src = os.path.join(d, "src")
            os.makedirs(src)
            with open(os.path.join(src, "model.cc"), "w") as f:
                f.write("ticks = 1;\n")
            old = run.code_key([src])
            self.assertEqual(old, run.code_key([src]))
            path = run.exact_path(d, old, "w", 1)
            os.makedirs(os.path.dirname(path))
            self.assertEqual(run.check_exact(path, {"sim_mkps": 1.25}), [])

            with open(os.path.join(src, "model.cc"), "w") as f:
                f.write("ticks = 2;\n")
            new = run.code_key([src])
            self.assertNotEqual(old, new)
            fresh = run.exact_path(d, new, "w", 1)
            self.assertNotEqual(path, fresh)
            os.makedirs(os.path.dirname(fresh))
            # The changed sources give another value: a new record,
            # not a failure; the old sources still hold theirs.
            self.assertEqual(run.check_exact(fresh, {"sim_mkps": 1.5}), [])
            self.assertEqual(run.check_exact(path, {"sim_mkps": 1.5}),
                             ["sim_mkps"])


if __name__ == "__main__":
    unittest.main()
