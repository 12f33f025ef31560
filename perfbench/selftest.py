"""The benchmark's own tests.

    python3 perfbench/selftest.py

Named so that pytest does not collect it into the package's test suite; it
runs tiny versions of the workloads, which take a few seconds each.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
import spans
import workloads

run._import_package()

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def span(name, parent, start, end, note=None):
    return [name, parent, start, end, note]


class SelfTimeArithmetic(unittest.TestCase):
    def test_nested_tree_adds_up_to_root(self):
        tree = [span("root", -1, 0.0, 10.0),
                span("a", 0, 1.0, 4.0),
                span("c", 1, 2.0, 3.0),
                span("b", 0, 5.0, 9.0),
                span("d", 3, 5.0, 6.0),
                span("e", 3, 6.5, 8.0)]
        self.assertEqual(spans.self_times(tree), [3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
        total, root = spans.self_time_balance(tree)
        self.assertAlmostEqual(total, root)
        self.assertEqual(root, 10.0)

    def test_overlapping_children_are_merged_and_clipped(self):
        tree = [span("root", -1, 0.0, 4.0),
                span("x", 0, 1.0, 3.0),
                span("y", 0, 2.0, 5.0)]
        # children cover [1, 4] of the root once, however they overlap
        self.assertEqual(spans.self_times(tree)[0], 1.0)

    def test_layer_metrics_count_reentered_layers_once(self):
        hb = "homology.hochster_betti"
        mh = "ideals.minimal_hitting_sets"
        tree = [span(spans.ROOT, -1, 0.0, 10.0),
                span(hb, 0, 1.0, 5.0, 1 << 4),
                span(mh, 1, 1.5, 2.0, 3),
                span(mh, 2, 1.6, 1.8, 2),
                span("homology.reduced_homology_ranks.gfp", 1, 2.0, 4.0),
                span("ideals.linear_quotient_search", 0, 6.0, 7.0, True),
                span("ideals.linear_quotient_search", 0, 7.0, 8.0, "refused")]
        m = spans.layer_metrics(tree)
        self.assertEqual(m[f"{hb}.calls"], 1)
        self.assertEqual(m[f"{hb}.subsets"], 16)
        self.assertAlmostEqual(m[f"{hb}.self_s"], 1.5)
        self.assertEqual(m[f"{mh}.calls"], 2)
        self.assertAlmostEqual(m[f"{mh}.s"], 0.5)
        self.assertEqual(m[f"{mh}.transversals"], 5)
        self.assertAlmostEqual(m["homology.reduced_homology_ranks.gfp.s"], 2.0)
        self.assertEqual(m["ideals.linear_quotient_search.found_ratio"], 0.5)
        self.assertEqual(m["ideals.linear_quotient_search.cap_errors"], 1)

    def test_layer_metrics_match_per_layer_list(self):
        names = set(spans.layer_metrics([])) | {"trace.overhead_ratio"}
        self.assertEqual(names, {m["name"] for m in BENCH["per_layer"]})


class ReferenceSeconds(unittest.TestCase):
    def test_times_scale_with_host_speed_but_deadlines_do_not(self):
        ref = run.REFERENCE_S
        # the same work on a host twice as slow, then at reference speed
        slow = {"wall_s": 7.0, "reference_s": 2 * ref, "peak_rss_mb": 10.0,
                "ops": [["a", 2.0, "ok"], ["b", 2.0, "refused"],
                        ["c", 3.0, "timeout"]]}
        quick = {"wall_s": 5.0, "reference_s": ref, "peak_rss_mb": 10.0,
                 "ops": [["a", 1.0, "ok"], ["b", 1.0, "refused"],
                         ["c", 3.0, "timeout"]]}
        self.assertAlmostEqual(run.scaled_wall(slow), 5.0)
        m = run.e2e_metrics([(0.4, 2 * ref), (0.2, ref), (0.3, ref)],
                            [slow, quick])
        self.assertAlmostEqual(m["setup_s"], 0.2)
        self.assertAlmostEqual(m["wall_s"], 5.0)
        self.assertAlmostEqual(m["ops_per_s"], 0.2)
        self.assertAlmostEqual(m["op_p50_s"], 1.0)
        self.assertAlmostEqual(m["op_max_s"], 1.0)
        self.assertAlmostEqual(m["ok_share"], 2 / 6)

    def test_probe_time_is_kept_apart(self):
        probe = workloads.SpeedProbe(every_s=0.0)
        probe.sample(3)
        probe.between_ops()
        self.assertEqual(len(probe.samples), 4)
        self.assertAlmostEqual(probe.spent, sum(probe.samples))
        self.assertGreater(probe.reference_s(), 0.0)


class WrappersKeepResults(unittest.TestCase):
    def test_traced_and_untraced_digests_are_equal(self):
        import edgeideals.homology as homology
        original = homology.hochster_betti
        for name, (prepare, run_pass, check) in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                plain = run_pass(prepare(3, "tiny"), 30.0)
                check(plain)
                tracer = spans.Tracer()
                tracer.install()
                try:
                    with tracer.root():
                        traced = run_pass(prepare(3, "tiny"), 30.0)
                finally:
                    tracer.uninstall()
                check(traced)
                self.assertEqual(plain.digests, traced.digests)
                self.assertEqual(plain.gate_errors, [])
                self.assertEqual(tracer.missing, [])
                total, root = spans.self_time_balance(tracer.spans)
                self.assertAlmostEqual(total, root, places=6)
        self.assertIs(homology.hochster_betti, original)

    def test_deadline_turns_a_hang_into_a_failed_operation(self):
        def spin():
            while True:
                pass
        op = workloads.timed_op("spin", 0.05, spin)
        self.assertEqual(op.status, "timeout")
        op = workloads.timed_op("cap", 1.0, lambda: int("x"))
        self.assertEqual(op.status, "refused")


class SmokeRuns(unittest.TestCase):
    def run_bench(self, cwd, *extra):
        return subprocess.run(
            [sys.executable, "perfbench/run.py", "--size", "tiny",
             "--seconds", "1", *extra],
            cwd=cwd, capture_output=True, text=True, timeout=180)

    def test_each_workload_at_tiny_size(self):
        e2e = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        names = [w["name"] for w in BENCH["workloads"]]
        self.assertEqual(sorted(names), sorted(workloads.WORKLOADS))
        for name in names:
            for trace, want in ((0, e2e), (1, layers)):
                with self.subTest(workload=name, trace=trace):
                    proc = self.run_bench(run.ROOT, "--workload", name,
                                          "--seed", "5", "--trace", str(trace))
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_fails_without_the_package(self):
        run.RESULTS.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.RESULTS) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("results",
                                                          "__pycache__"))
            proc = self.run_bench(tmp, "--workload", "verify-n6",
                                  "--seed", "1", "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
