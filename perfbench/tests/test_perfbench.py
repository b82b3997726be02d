"""Self-tests of the WebIQ end-to-end benchmark.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests

Each test runs the benchmark through run.py (which builds it) at a tiny size:
one domain, four interfaces, one pass.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]+$")
SEED = "7392"
TINY = ["--interfaces", "4", "--domains", "airfare", "--seconds", "0", "--seed", SEED]


def bench(workload, trace, out, *extra):
    """Run one workload; return (exit code, stdout lines, stderr)."""
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--trace", str(trace), "--out", out, *TINY, *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    return p.returncode, p.stdout.strip().splitlines(), p.stderr


def out_dir():
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    return tempfile.TemporaryDirectory(dir=os.path.join(BENCH, "out"))


class Smoke(unittest.TestCase):
    def test_every_workload_prints_every_metric_with_a_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for w in spec["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace), out_dir() as out:
                    code, lines, err = bench(w["name"], trace, out)
                    self.assertEqual(code, 0, err)
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], err)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in spec[kind]}
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in result["metrics"].items():
                        self.assertRegex(name, NAME)
                        self.assertRegex(m["unit"], UNIT)
                        self.assertIsInstance(m["value"], (int, float))
                        # The human-readable table prints it by name, with its unit.
                        self.assertTrue(
                            any(l.split()[:1] == [name] and l.split()[-1] == m["unit"]
                                for l in lines[:-1]),
                            name)


class Correctness(unittest.TestCase):
    def test_corrupted_expected_digest_fails_the_ops(self):
        with out_dir() as out:
            code, _, err = bench("latency20_seq", 0, out)
            self.assertEqual(code, 0, err)
            with open(os.path.join(out, f"latency20_seq-seed{SEED}-trace0.json")) as f:
                airfare = json.load(f)["outputs"]["airfare"]

            def run_with(digest):
                path = os.path.join(out, "expected.tsv")
                with open(path, "w") as f:
                    f.write(f"4\tairfare\t{digest}\t{airfare['f1_pct']:.2f}\n")
                code, lines, err = bench("latency20_seq", 0, out, "--expected", path)
                self.assertEqual(code, 0, err)
                with open(os.path.join(out, f"latency20_seq-seed{SEED}-trace0.json")) as f:
                    record = json.load(f)
                return json.loads(lines[-1]), record["extra"]["failed_frac"]["value"]

            result, failed_frac = run_with(airfare["digest"])
            self.assertTrue(result["correct"])
            self.assertEqual(failed_frac, 0)

            corrupted = ("0" if airfare["digest"][0] != "0" else "1") + airfare["digest"][1:]
            result, failed_frac = run_with(corrupted)
            self.assertFalse(result["correct"])
            self.assertGreater(result["failed"], 0)
            self.assertGreater(failed_frac, 0)

    def test_missing_expected_row_fails_a_default_size_run(self):
        with out_dir() as out:
            empty = os.path.join(out, "empty.tsv")
            open(empty, "w").close()
            cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "latency20_seq",
                   "--trace", "0", "--out", out, "--domains", "book", "--seconds", "0",
                   "--seed", SEED, "--expected", empty]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            self.assertEqual(p.returncode, 0, p.stderr)
            result = json.loads(p.stdout.strip().splitlines()[-1])
            self.assertFalse(result["correct"])
            self.assertEqual(result["failed"], result["attempted"])
            self.assertIn("no expected output", p.stderr)


if __name__ == "__main__":
    unittest.main()
