"""Fast self-test of the benchmark: python3 perfbench/selftest.py

Drives each workload's runner once, untraced and traced, at a tiny mesh, and
feeds the gate doctored reports that it must flag. Runs in seconds.
"""

import copy
import json
import re
import shutil
import sys
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import run as bench  # noqa: E402

TINY = {"lat": 9, "shell": 16, "segments": 256}
SIZE_FLAGS = ("--lat", "--shell", "--segments")


def tiny(name):
    """The workload's argv and spec, moved to the tiny mesh (the spec's counts dropped)."""
    spec = copy.deepcopy(bench.WORKLOADS[name])
    argv = list(spec["argv"])
    for flag in SIZE_FLAGS:
        if flag in argv:
            i = argv.index(flag)
            del argv[i : i + 2]
    for key, value in TINY.items():
        argv += [f"--{key}", str(value)]
    spec["argv"] = argv
    spec["config"].update(TINY)
    spec["counts"] = {}
    return spec


def passing_report(spec):
    """A report that meets the spec exactly, as the verifier would print it."""
    passed = spec["expect_exit"] == 0
    checks = [
        {"name": c["name"], "claim": "claim", "value": c["threshold"], "threshold": c["threshold"],
         "comparison": c["comparison"], "passed": True}
        for c in spec.get("checks", [])
    ]
    if not passed:
        checks.append({"name": "certificate_evidence", "claim": "evidence bound failed: hopf_linking_rounded",
                       "value": 0.0, "threshold": 1.0, "comparison": ">=", "passed": False})
    return {"schema": 1, "tool": {"name": "expspec", "version": "0"}, "command": spec["argv"][0],
            "config": dict(spec["config"]), "checks": checks, "notes": [], "artifacts": {},
            "overall_pass": passed}


def encode(report):
    return (json.dumps(report, indent=2) + "\n").encode()


class TinyRuns(unittest.TestCase):
    """Each workload's runner, untraced and traced, at the tiny mesh."""

    def test_workloads_at_tiny_mesh(self):
        declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
        per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
        for name in bench.WORKLOADS:
            with self.subTest(workload=name):
                spec = tiny(name)
                deadline = time.monotonic() + 60
                plain = bench.launch([], spec["argv"], deadline)
                traced = bench.launch(["--trace"], spec["argv"], deadline)
                self.assertEqual(gate.check_run(spec, plain.exit_code, plain.stdout), [])
                self.assertEqual(traced.stdout, plain.stdout, "tracing changed the report bytes")
                self.assertGreater(plain.setup_s, 0.0)
                self.assertLess(plain.setup_s, plain.wall_s)

                counts = bench.work_counts(bench._aggregate(plain.spans))
                traced_agg = bench._aggregate(traced.spans)
                self.assertEqual(counts, bench.work_counts(traced_agg), "untraced and traced counts differ")
                self.assertEqual(gate.check_counts(dict(spec, counts=counts), counts), [])

                layer = bench.layer_metrics(traced, traced_agg)
                layer["run.trace_overhead_s"] = (traced.wall_s - plain.wall_s, "s")
                self.assertEqual({k: u for k, (_, u) in layer.items()}, per_layer)
                values = {k: v for k, (v, _) in layer.items()}
                self.assertEqual(values["linking.segment_pairs"], TINY["segments"] ** 2)
                self.assertEqual(values["report.checks"], len(json.loads(plain.stdout)["checks"]))
                if "report-all" in spec["argv"]:
                    points = values["algebra.identity_residuals.points"]
                    self.assertEqual(values["algebra.inverse_identity_sweep.probes_per_point"], 8)
                    self.assertEqual(values["algebra.inverse_identity_sweep.pairs_attempted"], 8 * points)
                    self.assertGreater(values["linalg2.mat_mul.matrices"], 2 * points)

    def test_untraced_run_with_fewer_probes_fails(self):
        """A program that drops inverse-identity probes fails the gate, though its report passes."""
        spec = tiny("report_all_97x32")
        deadline = time.monotonic() + 60
        faithful = bench.launch([], spec["argv"], deadline)
        spec["counts"] = bench.work_counts(bench._aggregate(faithful.spans))

        mutant = bench.WORK / "mutant"
        shutil.rmtree(mutant, ignore_errors=True)
        shutil.copytree(bench.ROOT / "src" / "expspec", mutant / "expspec")
        algebra = mutant / "expspec" / "algebra.py"
        text, n = re.subn(r"^MU_PROBES = \((.*?), [^,]*, [^,]*, [^,]*, [^,]*\)$", r"MU_PROBES = (\1)",
                          algebra.read_text(), flags=re.M)
        self.assertEqual(n, 1, "MU_PROBES not found in algebra.py; update this mutation")
        algebra.write_text(text)
        try:
            cut = bench.launch([], spec["argv"], deadline, src=mutant)
        finally:
            shutil.rmtree(mutant)
        self.assertEqual(gate.check_run(spec, cut.exit_code, cut.stdout), [])
        problems = gate.check_counts(spec, bench.work_counts(bench._aggregate(cut.spans)))
        self.assertTrue(any("probes_per_point is 4.0" in p for p in problems), problems)

    def test_benchmark_declares_every_workload(self):
        declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in declared["workloads"]], list(bench.WORKLOADS))
        self.assertEqual([m["name"] for m in declared["end_to_end"]], ["wall_s", "setup_s", "peak_rss_mb"])


class Gate(unittest.TestCase):
    """The gate passes a faithful report and flags every doctored one."""

    def spec(self, name):
        return bench.WORKLOADS[name]

    def assertFlags(self, spec, exit_code, report):
        self.assertNotEqual(gate.check_run(spec, exit_code, encode(report)), [])

    def test_faithful_reports_pass(self):
        for name, spec in bench.WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(gate.check_run(spec, spec["expect_exit"], encode(passing_report(spec))), [])

    def test_new_checks_and_tighter_thresholds_pass(self):
        spec = self.spec("report_all_97x32")
        rep = passing_report(spec)
        rep["checks"][0]["threshold"] /= 10
        rep["checks"].append(dict(rep["checks"][0], name="identities.new_check"))
        self.assertEqual(gate.check_run(spec, 0, encode(rep)), [])

    def test_missing_check(self):
        for name in ("report_all_97x32", "certify_linking_4096"):
            rep = passing_report(self.spec(name))
            del rep["checks"][3]
            self.assertFlags(self.spec(name), 0, rep)

    def test_loosened_threshold(self):
        spec = self.spec("report_all_97x32")
        for i, check in enumerate(spec["checks"]):
            rep = passing_report(spec)
            rep["checks"][i]["threshold"] = check["threshold"] + (1.0 if check["comparison"] == "<=" else -1.0)
            with self.subTest(check=check["name"]):
                self.assertFlags(spec, 0, rep)

    def test_changed_lat(self):
        for name, spec in bench.WORKLOADS.items():
            rep = passing_report(spec)
            rep["config"]["lat"] = 17
            with self.subTest(workload=name):
                self.assertFlags(spec, spec["expect_exit"], rep)

    def test_fewer_segments(self):
        spec = self.spec("certify_linking_4096")
        rep = passing_report(spec)
        rep["config"]["segments"] = 256
        self.assertFlags(spec, 0, rep)

    def test_failing_check_or_verdict(self):
        spec = self.spec("certify_linking_4096")
        rep = passing_report(spec)
        rep["checks"][0]["passed"] = False
        self.assertFlags(spec, 0, rep)
        rep = passing_report(spec)
        rep["overall_pass"] = False
        self.assertFlags(spec, 0, rep)
        self.assertFlags(spec, 1, passing_report(spec))

    def test_sabotage_that_exits_0(self):
        spec = self.spec("certify_sabotage_fiber")
        self.assertFlags(spec, 0, passing_report(spec))
        rep = passing_report(spec)
        rep["overall_pass"] = True
        self.assertFlags(spec, 0, rep)

    def test_sabotage_failing_for_another_reason(self):
        spec = self.spec("certify_sabotage_fiber")
        rep = passing_report(spec)
        rep["checks"][-1].update(name="certificate_evidence", claim="evidence bound failed: antipodal gap")
        self.assertFlags(spec, 1, rep)

    def test_unparseable_report(self):
        for name, spec in bench.WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertNotEqual(gate.check_run(spec, spec["expect_exit"], b"name,value\n"), [])
                rep = passing_report(spec)
                rep["schema"] = 2
                self.assertFlags(spec, spec["expect_exit"], rep)

    def test_fewer_probes_or_points(self):
        spec = self.spec("report_all_97x32")
        counts = dict(spec["counts"])
        self.assertEqual(gate.check_counts(spec, counts), [])
        for key in ("algebra.inverse_identity_sweep.probes_per_point", "sphere.mesh_s4.points"):
            with self.subTest(count=key):
                self.assertNotEqual(gate.check_counts(spec, dict(counts, **{key: counts[key] - 1})), [])

    def test_report_bytes_differ(self):
        self.assertEqual(gate.check_same_bytes([b"a", b"a", b"b", b"a"]), [2])
        self.assertEqual(gate.check_same_bytes([b"a", b"a"]), [])


if __name__ == "__main__":
    unittest.main()
