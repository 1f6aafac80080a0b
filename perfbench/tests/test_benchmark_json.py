"""BENCHMARK.json is well formed and agrees with the perfbench binary's own
metric and workload table (perfbench --describe).  Run through `run.py --self-test`,
which sets PERFBENCH_BIN."""

import json
import os
import re
import subprocess
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class BenchmarkJson(unittest.TestCase):
    def test_shape_and_limits(self):
        b = load()
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertLessEqual(len((ROOT / "BENCHMARK.json").read_bytes()),
                             64 * 1024)
        self.assertTrue(1 <= len(b["command"]) <= 32)
        for arg in b["command"]:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))
        self.assertTrue(1 <= len(b["paths"]) <= 16)
        for p in b["paths"]:
            self.assertRegex(p, PATH)
            self.assertTrue((ROOT / p).is_dir())
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        names = []
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in b["end_to_end"]))

    @unittest.skipUnless(os.environ.get("PERFBENCH_BIN"), "PERFBENCH_BIN unset")
    def test_matches_the_binary(self):
        out = subprocess.run([os.environ["PERFBENCH_BIN"], "--describe"],
                             capture_output=True, text=True, check=True).stdout
        workloads, metrics = {}, {"end_to_end": [], "per_layer": []}
        for line in out.splitlines():
            f = line.split("\t")
            if f[0] == "workload":
                workloads[f[1]] = f[2]
            elif f[0] == "metric":
                metrics[f[1]].append({"name": f[2], "unit": f[3],
                                      "better": f[4]})
        b = load()
        self.assertEqual({w["name"]: w["why"] for w in b["workloads"]},
                         workloads)
        self.assertEqual([{k: m[k] for k in ("name", "unit", "better")}
                          for m in b["end_to_end"]], metrics["end_to_end"])
        self.assertEqual(b["per_layer"], metrics["per_layer"])


if __name__ == "__main__":
    unittest.main()
