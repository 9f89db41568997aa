"""BENCHMARK.json names exactly the metrics and workloads the benchmark
reports, within the limits its readers accept.

Run from the repository root:  python3 -m unittest discover perfbench/tests
"""

import json
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import report  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = HERE.parent.parent / "BENCHMARK.json"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchmarkJsonTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads(BENCHMARK.read_text())

    def test_keys(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        self.assertLessEqual(BENCHMARK.stat().st_size, 64 * 1024)

    def test_command_and_paths_stay_inside_the_benchmark(self):
        self.assertEqual(self.spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(self.spec["paths"], ["perfbench"])

    def test_run_seconds(self):
        self.assertEqual(self.spec["run_seconds"], workloads.RUN_SECONDS)
        self.assertTrue(1 <= self.spec["run_seconds"] <= 60)

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(workloads.WORKLOADS))
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertEqual(w["why"], workloads.WORKLOADS[w["name"]]["why"])
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_end_to_end_match(self):
        listed = [(m["name"], m["unit"], m["better"]) for m in self.spec["end_to_end"]]
        self.assertEqual(listed, report.END_TO_END)
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        self.assertEqual(max(m["bound"] for m in self.spec["end_to_end"]), setup[0]["bound"])

    def test_per_layer_match(self):
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["per_layer"]],
                         report.PER_LAYER)
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertIn(m["better"], ("lower", "higher"))

    def test_names_and_units(self):
        metrics = self.spec["end_to_end"] + self.spec["per_layer"]
        names = [m["name"] for m in metrics + self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in metrics:
            self.assertRegex(m["unit"], UNIT)


if __name__ == "__main__":
    unittest.main()
