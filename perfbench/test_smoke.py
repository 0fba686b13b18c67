"""Self-test of the benchmark: every workload at a tiny size, in both modes,
emits every metric BENCHMARK.json names and passes its output checks.

    python3 -m unittest perfbench/test_smoke.py     (from the repository root)
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.load_program()

TINY = {
    "chain_large": {"subnets": 5, "until": 160.0},
    "bulk_blocks": {"size": 24 * 1024, "until": 120.0},
    "catalog_mesh": {"rows": 2, "cols": 3, "files_per_member": 2, "until": 160.0},
}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class SmokeTest(unittest.TestCase):
    def test_workload_names_match_the_spec(self):
        self.assertEqual(sorted(TINY), sorted(w["name"] for w in SPEC["workloads"]))

    def check(self, trace, spec_key):
        for name, sizes in TINY.items():
            with self.subTest(workload=name):
                result, lines = run.bench(name, seed=3, seconds=0.0, trace=trace,
                                          sizes=sizes)
                self.assertTrue(result["correct"], "\n".join(lines))
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                for m in SPEC[spec_key]:
                    self.assertIn(m["name"], result["metrics"])
                    got = result["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"], m["name"])
                    self.assertIsInstance(got["value"], (int, float), m["name"])
                self.assertEqual(len(result["metrics"]), len(SPEC[spec_key]))
                json.dumps(result)

    def test_end_to_end_metrics(self):
        self.check(0, "end_to_end")

    def test_per_layer_metrics(self):
        self.check(1, "per_layer")

    def test_same_seed_same_scenario(self):
        from workloads import WORKLOADS
        for name, sizes in TINY.items():
            self.assertEqual(WORKLOADS[name](7, **sizes), WORKLOADS[name](7, **sizes))
            self.assertNotEqual(WORKLOADS[name](7, **sizes), WORKLOADS[name](8, **sizes))


if __name__ == "__main__":
    unittest.main()
