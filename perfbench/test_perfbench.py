#!/usr/bin/env python3
"""Smoke-scale tests of the perfbench benchmark itself.

    python3 perfbench/test_perfbench.py [--binary PATH]

Without --binary the benchmark is built first (as run.py does).  Each
workload runs at smoke scale, which uses the golden harness's budgets,
so seed-0 points can also be checked against tests/golden directly.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out", "tests")
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

_runs = {}


def run(workload, seed, trace=0, tag=""):
    """Run one smoke-scale workload; return (result object, document).
    Runs are cached by their arguments; a new tag forces a fresh one."""
    key = (workload, seed, trace, tag)
    if key not in _runs:
        out_dir = os.path.join(OUT, f"{workload}-{seed}-{trace}{tag}")
        proc = subprocess.run(
            [BINARY, "--workload", workload, "--seed", str(seed),
             "--seconds", "0.2", "--trace", str(trace), "--scale",
             "smoke", "--out-dir", out_dir],
            capture_output=True, text=True, cwd=ROOT, timeout=300)
        if proc.returncode != 0:
            raise AssertionError(f"{workload} seed {seed} trace {trace} "
                                 f"exited {proc.returncode}:\n"
                                 f"{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        name = f"{workload}-seed{seed if workload != 'sampled-ladder' else 0}"
        name += ("-trace" if trace else "") + "-smoke.json"
        with open(os.path.join(out_dir, name)) as f:
            doc = json.load(f)
        _runs[key] = (result, doc)
    return _runs[key]


def digests(doc):
    return [p["digest"] for p in doc["points"]]


def fnv1a64(data):
    h = 0xcbf29ce484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


class PerfbenchSmoke(unittest.TestCase):

    def test_every_metric_with_its_unit(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    result, _ = run(w, 1, trace)
                    self.assertEqual(
                        set(result),
                        {"correct", "attempted", "failed", "metrics"})
                    got = {k: v["unit"]
                           for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)

    def test_seed0_matches_pins(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, _ = run(w, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)

    def test_seed0_matches_goldens(self):
        # Points whose configuration the golden harness also pins;
        # only the config name in the dump's first line differs.
        pairs = {
            "fig6-ladder": {
                "l2-64k-unified-1w": "fig6-unified-64kw",
                "l2-64k-split-1w": "fig6-logical-64kw",
                "l2-64k-unified-2w": "fig6-unified-64kw-2way",
            },
            "write-policy": {
                "fig5-invalidate-6cy": "fig5-invalidate-6cy",
                "fig5-subblock-6cy": "fig5-subblock-6cy",
            },
        }
        for w, names in pairs.items():
            _, doc = run(w, 0)
            mine = {p["config"]: p["digest"] for p in doc["points"]}
            for config, golden in names.items():
                with self.subTest(workload=w, point=config):
                    path = os.path.join(ROOT, "tests", "golden",
                                        golden + ".stats")
                    with open(path, "rb") as f:
                        text = f.read().replace(
                            b"statistics: " + golden.encode(),
                            b"statistics: " + config.encode(), 1)
                    self.assertEqual(mine[config], fnv1a64(text))

    def test_nonzero_seed_changes_digests(self):
        for w in WORKLOADS:
            if w == "sampled-ladder":
                continue  # runs seed 0 only, by design
            with self.subTest(workload=w):
                _, zero = run(w, 0)
                _, seven = run(w, 7)
                self.assertTrue(
                    all(a != b for a, b in
                        zip(digests(zero), digests(seven))))

    def test_sim_cpi_repeats_exactly(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                first, _ = run(w, 3)
                again, _ = run(w, 3, tag="-again")
                self.assertEqual(first["metrics"]["sim_cpi"]["value"],
                                 again["metrics"]["sim_cpi"]["value"])

    def test_traced_digests_match_untraced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, untraced = run(w, 1)
                result, traced = run(w, 1, trace=1)
                self.assertEqual(digests(traced), digests(untraced))
                self.assertTrue(traced["spans"])

    def test_unknown_workload_fails_without_result(self):
        proc = subprocess.run([BINARY, "--workload", "no-such"],
                              capture_output=True, text=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


def main():
    global BINARY
    args = sys.argv[1:]
    if args[:1] == ["--binary"]:
        BINARY = os.path.abspath(args[1])
        args = args[2:]
    else:
        sys.path.insert(0, HERE)
        import run as runner
        if not runner.build():
            return 1
    shutil.rmtree(OUT, ignore_errors=True)
    try:
        program = unittest.main(argv=[sys.argv[0]] + args, exit=False)
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    return 0 if program.result.wasSuccessful() else 1


if __name__ == "__main__":
    sys.exit(main())
