"""Smoke test of the benchmark at minimal input size.

Run from the root of a checkout::

    python3 perfbench/smoke.py

It checks that every metric named in BENCHMARK.json prints with its unit, that
a deliberately corrupted result lands in the failure count, that one seed
gives identical inputs and counts, and that the runner refuses to run without
the povmkit sources.  It takes about two minutes, most of it the ``cli``
workload's child interpreters.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def invoke(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@functools.lru_cache(maxsize=None)
def run(workload: str, trace: int, seed: int = 7, fault: bool = False, repeat: int = 0):
    """Final JSON line and full report of one smoke-size run.

    Runs are cached; a different ``repeat`` forces a fresh run.
    """
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--scale", "smoke"]
    proc = invoke(*args, *(["--inject-fault"] if fault else []))
    if proc.returncode != 0:
        raise AssertionError(f"{args} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


class MetricsPrint(unittest.TestCase):
    def test_every_metric_prints_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result, _ = run(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for m in result["metrics"].values():
                        self.assertIsInstance(m["value"], (int, float))

    def test_end_to_end_metrics_are_never_zero(self):
        for workload in WORKLOADS:
            result, _ = run(workload, 0)
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, f"{workload}.{name}")

    def test_every_layer_metric_is_measured_somewhere(self):
        # A misspelt metric name would read zero on every workload.
        for m in SPEC["per_layer"]:
            values = [run(w, 1)[0]["metrics"][m["name"]]["value"] for w in WORKLOADS]
            self.assertTrue(any(values), m["name"])

    def test_bypassed_layers_report_zero_calls(self):
        metrics = {w: run(w, 1)[0]["metrics"] for w in WORKLOADS}
        for name, m in metrics["decompose"].items():
            if name.startswith(("sampling.", "serialize.")) and name.endswith(".calls"):
                self.assertEqual(m["value"], 0, name)
        for workload in ("records", "mixing"):
            for name, m in metrics[workload].items():
                if name.startswith("extremality.") and name.endswith(".calls"):
                    self.assertEqual(m["value"], 0, f"{workload}.{name}")

    def test_layer_map_covers_every_layer_metric(self):
        layer_map = json.loads((HERE / "layers.json").read_text())["map"]
        self.assertEqual(set(layer_map), {m["name"] for m in SPEC["per_layer"]})
        metrics = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]} | {"failed"}
        for targets in layer_map.values():
            for target in targets:
                workload, metric = target.split(".", 1)
                self.assertIn(workload, WORKLOADS, target)
                self.assertIn(metric, metrics, target)


class Failures(unittest.TestCase):
    def test_corrupted_decomposition_weight_is_counted(self):
        clean, _ = run("decompose", 0)
        bad, report = run("decompose", 0, fault=True)
        self.assertEqual(clean["failed"], 0)
        self.assertEqual(bad["failed"], 1)
        self.assertFalse(bad["correct"])
        self.assertIn("weights sum", report["failures"][0]["error"])

    def test_wrong_exit_code_is_counted(self):
        clean, clean_report = run("cli", 0)
        bad, _ = run("cli", 0, fault=True)
        self.assertEqual(bad["failed"], clean["failed"] + 1)
        self.assertFalse(bad["correct"])
        # The two known defects fail in every round without making the run
        # incorrect, and nothing else fails.
        known = {f["op"] for f in clean_report["failures"]}
        self.assertEqual(known, {"cli.sample_dim_mismatch", "cli.gof_space_mismatch"})
        self.assertTrue(all(f["known_defect"] for f in clean_report["failures"]))
        self.assertTrue(clean["correct"])

    def test_refuses_to_run_without_sources(self):
        bare = ROOT / ".perfbench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            proc = invoke("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class Determinism(unittest.TestCase):
    def test_same_seed_same_inputs_and_counts(self):
        for workload in ("decompose", "records"):
            with self.subTest(workload=workload):
                first, first_report = run(workload, 1)
                again, again_report = run(workload, 1, repeat=1)
                self.assertEqual(first_report["inputs_digest"], again_report["inputs_digest"])
                for name, m in first["metrics"].items():
                    if name.endswith(".calls") or name in ("decomp_terms", "error_rate"):
                        self.assertEqual(m["value"], again["metrics"][name]["value"], name)

    def test_other_seed_other_inputs(self):
        _, a = run("decompose", 0)
        _, b = run("decompose", 0, seed=8)
        self.assertNotEqual(a["inputs_digest"], b["inputs_digest"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
