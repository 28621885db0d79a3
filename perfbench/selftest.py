"""Self-tests of the benchmark: checker, tracer, generator, metric lists.

Run from the root of a checkout:

    PYTHONPATH=src python3 perfbench/selftest.py

The checker and generator tests need numpy and scipy only; the tests that
wrap or call the package are skipped when it cannot be imported.
"""

import json
import math
import sys
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402
import tracing  # noqa: E402

try:
    import impulse_gcac
except ImportError:
    impulse_gcac = None


def _small_scenario():
    """Two decoupled components, full support, N = 8, one controller."""
    return {
        "system": {
            "length": math.pi,
            "modes": 8,
            "coupling": [[0.5, 0.0], [0.0, -0.5]],
            "controllers": [{"gain": [[1.0, 0.0], [0.0, 1.0]], "support": [0.0, math.pi]}],
        },
        "base_times": [0.5],
        "x0": (np.arange(16, dtype=float).reshape(2, 8) / 10.0).tolist(),
        "eps": 10.0,
        "k_max": 4,
    }


def _valid_result(scn):
    """A correct epsilon-ball result built with the checker's own replay."""
    model = checker.Model(scn["system"], scn["base_times"])
    impulses = [np.full((2, 8), 0.1) for _ in range(3)]
    final, _ = model.replay(scn["x0"], impulses, 3)
    return {
        "status": "ok",
        "horizon_k": 3,
        "residual": float(np.linalg.norm(final)),
        "certificate": "epsilon-ball",
        "impulses": impulses,
        "constrained": True,
    }


def _codes(scn, rec):
    model = checker.Model(scn["system"], scn["base_times"])
    fails, _ = checker.check_steering(scn, model, rec)
    return {code for code, _ in fails}


class CheckerTest(unittest.TestCase):
    def test_accepts_a_valid_result(self):
        scn = _small_scenario()
        self.assertEqual(_codes(scn, _valid_result(scn)), set())

    def test_rejects_an_over_budget_impulse(self):
        scn = _small_scenario()
        rec = _valid_result(scn)
        rec["impulses"][1] = rec["impulses"][1] * (1.5 / np.linalg.norm(rec["impulses"][1]))
        final, _ = checker.Model(scn["system"], scn["base_times"]).replay(
            scn["x0"], rec["impulses"], 3)
        rec["residual"] = float(np.linalg.norm(final))
        self.assertEqual(_codes(scn, rec), {"over-budget"})

    def test_rejects_a_tampered_residual(self):
        scn = _small_scenario()
        rec = _valid_result(scn)
        rec["residual"] *= 1.001
        self.assertEqual(_codes(scn, rec), {"residual-mismatch"})

    def test_rejects_a_horizon_over_k_max(self):
        scn = _small_scenario()
        rec = _valid_result(scn)
        scn["k_max"] = 2
        self.assertIn("k_max-overrun", _codes(scn, rec))

    def test_honest_errors_are_not_failures(self):
        scn = _small_scenario()
        for kind in checker.HONEST_ERRORS:
            rec = {"status": "error", "error_type": kind, "message": "m"}
            self.assertEqual(_codes(scn, rec), set())
        rec = {"status": "error", "error_type": "ValueError", "message": "m"}
        self.assertEqual(_codes(scn, rec), {"unexpected-error"})

    def test_quadrature_gram_matches_the_closed_form(self):
        N, L, a, b = 16, math.pi, 0.3, 1.9
        G = checker.gram_by_quadrature(N, L, a, b)
        i = np.arange(1, N + 1)
        d = i[:, None] - i[None, :]
        s = i[:, None] + i[None, :]

        def anti(x):
            with np.errstate(divide="ignore", invalid="ignore"):
                off = np.sin(d * x) / d - np.sin(s * x) / s
            np.fill_diagonal(off, x - np.sin(2 * i * x) / (2 * i))
            return off / math.pi

        np.testing.assert_allclose(G, anti(b) - anti(a), atol=1e-13)

    @unittest.skipIf(impulse_gcac is None, "impulse_gcac is not importable")
    def test_accepts_package_results_of_one_pass(self):
        import worker

        scns = scenarios.generate("steer-full", 5)[:6]
        runner = worker.SteerFull(impulse_gcac, scns)
        runner.build()
        for i in range(len(scns)):
            fails, _ = runner.check(i, runner.execute(i))
            self.assertTrue({c for c, _ in fails} <= checker.KNOWN_DEFECTS, fails)


class TracerTest(unittest.TestCase):
    def test_self_times_sum_to_the_parent_wall_time(self):
        ticks = iter([0.0, 1.0, 3.0, 3.5, 4.0, 6.5, 10.0, 12.0])
        tr = tracing.Tracer(clock=lambda: next(ticks))
        tr.enabled = tr.recording = True
        tr.enter("parent")        # 0.0
        tr.enter("child")         # 1.0
        tr.exit("child")          # 3.0
        tr.enter("child")         # 3.5
        tr.enter("grandchild")    # 4.0
        tr.exit("grandchild")     # 6.5
        tr.exit("child")          # 10.0
        tr.exit("parent")         # 12.0
        total = sum(tr.self_s.values())
        self.assertAlmostEqual(total, 12.0)
        self.assertAlmostEqual(tr.self_s["parent"], 12.0 - 2.0 - 6.5)
        self.assertAlmostEqual(tr.self_s["child"], 2.0 + 6.5 - 2.5)
        self.assertEqual(tr.calls, {"parent": 1, "child": 2, "grandchild": 1})
        # the stored spans give the same self times by the definition
        spans = [tuple(s) for s in tr.spans]
        self.assertAlmostEqual(sum(tracing.self_times(spans)), 12.0)
        self.assertEqual([s[3] for s in spans], [-1, 0, 0, 2])

    @unittest.skipIf(impulse_gcac is None, "impulse_gcac is not importable")
    def test_install_rebinds_every_importing_module(self):
        from impulse_gcac import linalg, spectral, synthesis

        original = linalg.mat_exp
        tr = tracing.Tracer()
        tr.install()
        try:
            self.assertIsNot(linalg.mat_exp, original)
            self.assertIs(spectral.mat_exp, linalg.mat_exp)
            self.assertIs(synthesis.mat_exp, linalg.mat_exp)
            self.assertIs(impulse_gcac.mat_exp, linalg.mat_exp)
            self.assertEqual(tr.absent, [])
            tr.enabled = True
            linalg.mat_exp(np.eye(2), 0.5)
            linalg.mat_exp(np.eye(2), 0.5)
            self.assertEqual(tr.calls["linalg.mat_exp"], 2)
            self.assertEqual(tr.mat_exp_distinct, 1)
        finally:
            tr.uninstall()
        self.assertIs(linalg.mat_exp, original)
        self.assertIs(spectral.mat_exp, original)


class JudgeTest(unittest.TestCase):
    def test_counts_scenarios_not_executions(self):
        import worker

        class Runner:
            scenarios = [{"id": "a"}, {"id": "b"}]

            def check(self, i, outcome):
                return ([("k_max-overrun", "m")] if i == 1 else []), {}

        judge = worker.Judge(Runner())
        for _ in range(3):  # three passes give the counts of one
            judge(0, {"v": 1})
            judge(1, {"v": 2})
        self.assertEqual((judge.attempted, judge.failed, judge.executions), (2, 1, 6))
        judge(0, {"v": 3})  # a result that differs from its first run fails
        self.assertEqual(judge.failed, 2)
        self.assertEqual(judge.failures["a"], ["nondeterministic"])


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for workload in scenarios.WORKLOADS:
            a = json.dumps(scenarios.generate(workload, 11))
            self.assertEqual(a, json.dumps(scenarios.generate(workload, 11)), workload)
            self.assertNotEqual(a, json.dumps(scenarios.generate(workload, 12)), workload)


class MetricListTest(unittest.TestCase):
    def test_benchmark_json_lists_the_printed_metrics(self):
        path = HERE.parent / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("no BENCHMARK.json next to the benchmark")
        spec = json.loads(path.read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
