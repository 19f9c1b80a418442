"""Smoke test of the benchmark itself (stdlib unittest, about two minutes):

    python3 perfbench/smoke_test.py

It checks that every metric of BENCHMARK.json prints with its unit, that
the traced runs see the layers each workload is meant to touch and no
others, that a corrupted golden makes the gate fail, that the seed alone
fixes the inputs, and that the benchmark fails without the library.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_out", "smoke")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench",
                                                        "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    return proc.returncode, proc.stdout.splitlines()


def result(lines: list[str]) -> dict:
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
    return res


def run(workload: str, seed: int, trace: int) -> tuple:
    code, lines = bench("--workload", workload, "--seed", str(seed),
                        "--seconds", "1", "--trace", str(trace))
    assert code == 0, lines
    return lines, result(lines)


def calls(res: dict, prefix: str) -> float:
    return sum(m["value"] for k, m in res["metrics"].items()
               if k.startswith(prefix) and k.endswith("_calls"))


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(SCRATCH, exist_ok=True)
        cls.traced = {w: run(w, 2, 1) for w in WORKLOADS}

    def assert_printed(self, lines, res, metrics):
        self.assertEqual(list(res["metrics"]), [m["name"] for m in metrics])
        for m in metrics:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])
            self.assertTrue(any(line.split()[:1] == [m["name"]]
                                and line.split()[2] == m["unit"]
                                for line in lines), m["name"])

    def test_end_to_end_metrics_print_with_units(self):
        lines, res = run("differential-row", 1, 0)
        self.assert_printed(lines, res, SPEC["end_to_end"])
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertTrue(all(m["value"] > 0 for m in res["metrics"].values()))
        self.assertTrue(any(line.split()[:1] == ["failed_ratio"]
                            and "ops_total" in line for line in lines))

    def test_traced_layers(self):
        for workload, (lines, res) in self.traced.items():
            self.assert_printed(lines, res, SPEC["per_layer"])
            self.assertTrue(res["correct"], workload)
        row = self.traced["differential-row"][1]
        for layer in ("graphs.", "trees.", "covers."):
            self.assertEqual(calls(row, layer), 0, layer)
        self.assertEqual(calls(self.traced["numbered-sweep"][1], "lie."), 0)
        for layer in ("graphs.", "trees.", "covers.", "lie.", "spectral.",
                      "serialize.", "checks.", "cli."):
            self.assertGreater(calls(self.traced["strata-battery"][1], layer),
                               0, layer)
        for m in SPEC["per_layer"]:
            if m["name"] != "trace.overhead_s":
                self.assertTrue(any(res["metrics"][m["name"]]["value"]
                                    for _, res in self.traced.values()),
                                f"{m['name']} is zero on every workload")

    def test_corrupted_golden_fails_the_gate(self):
        copy = os.path.join(SCRATCH, "corrupted")
        shutil.rmtree(copy, ignore_errors=True)
        for name in ("perfbench", "src"):
            shutil.copytree(os.path.join(ROOT, name), os.path.join(copy, name),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), copy)
        path = os.path.join(copy, "perfbench", "goldens.json")
        with open(path) as fh:
            goldens = json.load(fh)
        goldens["differential-row/d1_omega_terms"][3] += 1
        with open(path, "w") as fh:
            json.dump(goldens, fh)
        code, lines = bench("--workload", "differential-row", "--seed", "1",
                            "--seconds", "1", "--trace", "0", cwd=copy)
        self.assertEqual(code, 0, lines)
        res = result(lines)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)
        self.assertTrue(any(line.split()[:1] == ["FAILED"] for line in lines))

    def test_seed_fixes_the_inputs(self):
        def fingerprint(workload, seed):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), "--workload",
                 workload, "--seed", str(seed), "--setup-only"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            return json.loads(proc.stdout.splitlines()[0])["fingerprint"]

        for workload in WORKLOADS:
            self.assertEqual(fingerprint(workload, 1), fingerprint(workload, 1))
            self.assertNotEqual(fingerprint(workload, 1),
                                fingerprint(workload, 2))

    def test_fails_without_the_library(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, lines = bench("--workload", WORKLOADS[0], "--seed", "1",
                            "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith("{") for line in lines))


if __name__ == "__main__":
    unittest.main()
