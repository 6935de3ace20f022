"""Fast self-test of the benchmark: exact traced counts and failure detection.

    python3 bench/selftest.py

Runs in a few seconds from the root of a source checkout.  The tiny
problem below has three grid points with clouds of 1, 2 and 3 points;
its counts are derived by hand in the comments.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import tempfile
import unittest

import run
from workloads import Op

cli = run.load_library()

import numpy as np  # noqa: E402  (after the library path is set)

from layers import LayerCounters, layer_metrics  # noqa: E402
from tracer import LayerTracer  # noqa: E402
from verify import canonical_facts, verify_output  # noqa: E402

# x=0 -> {(0,0)} strictly dominates x=1 -> {(1,1),(2,.5)}; x=2 -> {(-1,3),(3,3),(4,4)}
# is dominated by neither (no point lies strictly below (-1,3)).  With q=(1,1) the
# scalarization is min(y1, y2): values 0, 0.5, -1, so argmin {2}, strict set {0, 2}.
TINY = {
    "schema_version": "1",
    "cone": {"dual_generators": [[1.0, 0.0], [0.0, 1.0]], "q": [1.0, 1.0]},
    "domain": {"points": [[0.0], [1.0], [2.0]]},
    "map": {"kind": "table", "parameters": {
        "points": [[0.0], [1.0], [2.0]],
        "clouds": [[[0.0, 0.0]], [[1.0, 1.0], [2.0, 0.5]],
                   [[-1.0, 3.0], [3.0, 3.0], [4.0, 4.0]]]}},
}


class FakeCLI:
    """Stands in for setopt.cli: returns scripted (exit code, stdout) pairs."""

    def __init__(self, replies):
        self.replies = list(replies)

    def main(self, argv):
        code, text = self.replies.pop(0)
        print(text, end="")
        return code


class BenchSelfTest(unittest.TestCase):
    def setUp(self):
        run.WORK_DIR.mkdir(exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_DIR)
        path = os.path.join(self.workdir, "tiny.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(TINY, handle)
        self.op = Op("solve:tiny", ("solve", path), TINY)

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK_DIR.rmdir()

    def traced_solve(self):
        counters = LayerCounters([self.op])
        tracer = LayerTracer(hooks=counters.hooks())
        loop = run.Loop(cli, [self.op])
        loop.round()
        tracer.install()
        try:
            loop.round(before_op=counters.begin_op)
        finally:
            tracer.remove()
        return loop, tracer, counters

    def test_traced_counts_are_exact(self):
        loop, tracer, counters = self.traced_solve()
        values, _, _ = layer_metrics(tracer, counters, 1, 0.0, 1)
        expected = {
            "cli.main.calls": 1,
            "problem.build_problem.calls": 1,
            # 3 in problem validation, 3 in scalar_field, 3 in the padded cloud stack
            "problem.cloud_at.calls": 9,
            "problem.cloud_at.evals_per_point": 3.0,
            # solve itself, then argmin_scalarized (cached the second time)
            "scalarizer.scalar_field.calls": 2,
            "cone.gerstewitz_many.calls": 3,
            # strict and weak efficient sets each ask; one problem, so counted once
            "solver.domination_matrix.calls": 2,
            "solver.domination_matrix.point_pairs": (1 + 2 + 3) ** 2,
            # n * p_max^2 * (8m + 8k + 1) with n=3, p_max=3, m=k=2
            "solver.domination_matrix.tensor_bytes": 3 * 9 * 33,
            "asymptotics.check_asymptotic_gap.per_op": 0.0,
        }
        for name, value in expected.items():
            self.assertEqual(values[name], value, name)
        self.assertEqual(loop.failed, 0, loop.errors)

    def test_self_time_sums_to_total(self):
        _, tracer, _ = self.traced_solve()
        summary = tracer.summary()
        self_sum = sum(row["self_s"] for row in summary.values())
        self.assertAlmostEqual(self_sum, summary["cli.main"]["total_s"], delta=1e-9)

    def test_remove_restores_every_binding(self):
        import setopt
        from setopt import problem, solver

        def bindings():
            return (setopt.solve, solver.solve, cli.solve, solver.domination_matrix,
                    problem.MapModel.cloud_at, cli.main, cli.build_problem)

        originals = bindings()
        tracer = LayerTracer()
        tracer.install()
        try:
            wrapped = bindings()
            self.assertTrue(all(w is not o for w, o in zip(wrapped, originals)))
            self.assertTrue(wrapped[0] is wrapped[1] is wrapped[2])
        finally:
            tracer.remove()
        self.assertEqual(bindings(), originals)

    def test_good_output_passes_and_corruptions_are_flagged(self):
        text = run.run_op(cli, self.op)[2]
        rng = lambda: np.random.default_rng(0)  # noqa: E731
        self.assertEqual(verify_output(self.op, text, rng()), [])
        out = json.loads(text)
        self.assertEqual(out["strict_weak_efficient"], [0.0, 2.0])
        corruptions = {
            "dominated point listed": {"strict_weak_efficient": [0.0, 1.0, 2.0]},
            "argmin outside": {"strict_weak_efficient": [0.0]},
            "wrong infimum": {"inf_value": -0.5},
            "not a grid point": {"argmin": [2.5]},
        }
        for label, patch in corruptions.items():
            bad = json.dumps({**out, **patch})
            self.assertNotEqual(verify_output(self.op, bad, rng()), [], label)
        self.assertNotEqual(verify_output(self.op, text[:-3], rng()), [])

    def test_loop_flags_exit_codes_and_changed_stdout(self):
        loop = run.Loop(FakeCLI([(0, "a"), (0, "b"), (0, "b"), (1, "b")]), [self.op] * 2)
        loop.round()
        loop.round()
        self.assertEqual([ok for _, _, ok in loop.runs], [True, True, False, False])

    def test_fixture_facts_hold_and_shifted_facts_are_checked(self):
        self.assertEqual(canonical_facts(os.path.join(self.workdir, "canonical")), [])
        from setopt import fixtures

        path = os.path.join(self.workdir, "decay.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(fixtures.document("decay_tail"), handle)
        good = {"direction_values": {"1.0": 0.0, "-1.0": -1.0},
                "horizon_directions": [[-1.0]]}
        op = Op("asymptotic:decay", ("asymptotic", "--horizon", path), {}, good)
        text = run.run_op(cli, op)[2]
        self.assertEqual(verify_output(op, text, None), [])
        shifted = Op(op.label, op.argv, {}, {**good, "direction_values": {"1.0": 0.5}})
        self.assertNotEqual(verify_output(shifted, text, None), [])

    def test_tail_percentile(self):
        self.assertEqual(run.tail(list(range(19))), (50.0, 9))
        self.assertEqual(run.tail(list(range(200))), (95.0, 189))
        self.assertEqual(run.tail(list(range(1000))), (99.0, 989))


if __name__ == "__main__":
    unittest.main()
