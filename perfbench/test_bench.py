#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the repository root:

    python3 perfbench/test_bench.py

Builds pinbench like run.py does, then checks at the tiny size that
  * every workload prints every metric BENCHMARK.json names, with its unit,
    and fails nothing (plain and traced run);
  * every workload matches the machine-clock record at both recorded seeds;
  * the checks can fail: a wrong value in the machine-clock record (of a
    suite and of a driver workload) and a corrupted golden vector are each
    reported as failures, and a missing or empty record stops the run;
  * the machine clock is identical at 1 and at 4 pool threads.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the build step is shared with the entry point)

ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BINARY = None


def run_tiny(workload, trace, *extra, seed=17, record=None):
    """Runs one tiny workload and returns the finished process."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny",
           "--faulty-cfg", str(ROOT / "configs" / "faulty.cfg"),
           "--record", str(record or HERE / "machine_record.txt"), *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300)


def pinbench(workload, trace, *extra, seed=17, record=None):
    """Runs one tiny workload and returns (parsed JSON, stdout)."""
    r = run_tiny(workload, trace, *extra, seed=seed, record=record)
    if r.returncode != 0:
        raise AssertionError(f"{cmd} exited {r.returncode}: {r.stderr}")
    return json.loads(r.stdout.strip().splitlines()[-1]), r.stdout


def with_record(text):
    """Writes `text` as a scratch record file and returns its path."""
    run.OUT.mkdir(exist_ok=True)
    path = run.OUT / "scratch_record.txt"
    path.write_text(text)
    return path


def machine(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.startswith("machine.")}


class TinyRuns(unittest.TestCase):
    def test_every_metric_with_unit_and_no_failure(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    res, out = pinbench(workload, trace)
                    self.assertTrue(res["correct"], out)
                    self.assertEqual(res["failed"], 0, out)
                    self.assertGreaterEqual(res["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)

    def test_results_match_the_record(self):
        for workload in WORKLOADS:
            for seed in (17, 4099):
                with self.subTest(workload=workload, seed=seed):
                    res, out = pinbench(workload, 0, seed=seed)
                    self.assertIn("checked against", out)
                    self.assertTrue(res["correct"], out)


class ChecksCanFail(unittest.TestCase):
    def test_wrong_recorded_machine_clock_is_a_failure(self):
        for workload, backend in (("suite_cpu_baselines", "SIMD-PCM"),
                                  ("driver_analog", "driver_analog"),
                                  ("driver_faults", "driver_faults")):
            with self.subTest(workload=workload):
                lines = (HERE / "machine_record.txt").read_text().splitlines()
                i = next(n for n, l in enumerate(lines)
                         if l.startswith("tiny 17 ") and l.split()[3] == backend)
                f = lines[i].split()
                # The first value: bitwise_ns of a suite, time_ns of a round.
                f[4] = float.hex(float.fromhex(f[4]) * (1 + 2 ** -40))
                lines[i] = " ".join(f)
                bad = with_record("\n".join(lines) + "\n")
                try:
                    res, out = pinbench(workload, 0, record=bad)
                finally:
                    bad.unlink()
                self.assertFalse(res["correct"], out)
                self.assertGreater(res["failed"], 0)
                self.assertIn("differs from the record", out)

    def test_missing_or_empty_record_stops_the_run(self):
        empty = with_record("# no entries\n")
        try:
            for record in (run.OUT / "no_such_record.txt", empty):
                with self.subTest(record=record.name):
                    r = run_tiny("driver_analog", 0, record=record)
                    self.assertNotEqual(r.returncode, 0)
                    self.assertIn("machine record", r.stderr)
        finally:
            empty.unlink()

    def test_recorded_seed_without_entries_is_a_failure(self):
        lines = (HERE / "machine_record.txt").read_text().splitlines()
        other = with_record("\n".join(l for l in lines
                                      if not l.startswith("tiny 17 ")) + "\n")
        try:
            res, out = pinbench("driver_analog", 0, record=other)
        finally:
            other.unlink()
        self.assertFalse(res["correct"], out)
        self.assertIn("no entries for recorded seed", out)

    def test_corrupted_golden_vector_is_a_failure(self):
        for workload in ("driver_analog", "driver_faults"):
            with self.subTest(workload=workload):
                res, out = pinbench(workload, 0, "--corrupt-golden")
                self.assertFalse(res["correct"], out)
                self.assertEqual(res["failed"], 1, out)
                self.assertIn("differs from the golden model", out)


class Determinism(unittest.TestCase):
    def test_machine_clock_identical_at_1_and_4_threads(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                one, _ = pinbench(workload, 1, "--threads", "1")
                four, _ = pinbench(workload, 1, "--threads", "4")
                self.assertTrue(machine(one))
                self.assertEqual(machine(one), machine(four))


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
