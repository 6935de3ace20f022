"""Per-layer figures from a traced run: counters, ratios and per-round totals."""

from __future__ import annotations


class LayerCounters:
    """Counts taken at layer boundaries, as tracer hooks.

    `point_pairs` and `tensor_bytes` are computed from cloud sizes, not
    measured: for each distinct problem an op hands to
    `solver.domination_matrix`, the pairs are sum_i,j |F(x_i)|*|F(x_j)|
    and the bytes are those of the largest per-column tensors of the
    brute-force scan, n * p_max^2 * (8m + 8k + 1) for the difference,
    score and verdict tensors.  The sizes are taken from each op's
    document before any timing, since every op solves the one problem its
    document describes.
    """

    def __init__(self, ops):
        from setopt.problem import build_problem

        self._sizes = []
        for op in ops:
            problem = build_problem(op.doc)
            sizes = [len(problem.map_model.cloud_at(x)) for x in problem.grid.points]
            m, k = problem.cone.dim_image, problem.cone.dual_generators.shape[0]
            self._sizes.append((sum(sizes) ** 2,
                                len(sizes) * max(sizes) ** 2 * (8 * m + 8 * k + 1)))
        self._seen: list = []
        self.op = -1
        self.point_pairs = 0
        self.tensor_bytes = 0
        self.grid_points = 0

    def hooks(self) -> dict:
        return {"solver.domination_matrix": self._domination,
                "problem.build_problem": self._built}

    def begin_op(self, k: int) -> None:
        self.op = k
        self._seen = []

    def _built(self, args, kwargs, problem) -> None:
        self.grid_points += len(problem.grid)

    def _domination(self, args, kwargs, result) -> None:
        problem = args[0] if args else kwargs["problem"]
        if any(p is problem for p in self._seen):
            return
        self._seen.append(problem)
        pairs, tensor = self._sizes[self.op]
        self.point_pairs += pairs
        self.tensor_bytes = max(self.tensor_bytes, tensor)


def layer_metrics(tracer, counters: LayerCounters, rounds: int, overhead: float,
                  ops_per_round: int) -> tuple[dict, dict, dict]:
    """(metric values, printed notes, per-function table), all per traced round."""
    summary = tracer.summary()
    per_round = {name: {stat: value / rounds for stat, value in row.items()}
                 for name, row in summary.items()}
    values = {f"{name}.{stat}": value
              for name, row in per_round.items() for stat, value in row.items()}
    cloud_calls = summary["problem.cloud_at"]["calls"]
    gap_ops = tracer.calls_per_op("asymptotics.check_asymptotic_gap")
    op_time = summary["cli.main"]["total_s"]
    values.update({
        "solver.domination_matrix.point_pairs": counters.point_pairs / rounds,
        "solver.domination_matrix.tensor_bytes": float(counters.tensor_bytes),
        "solver.domination_matrix.op_share":
            summary["solver.domination_matrix"]["total_s"] / op_time if op_time else 0.0,
        "problem.cloud_at.evals_per_point":
            cloud_calls / counters.grid_points if counters.grid_points else 0.0,
        "asymptotics.check_asymptotic_gap.per_op":
            sum(gap_ops.values()) / len(gap_ops) if gap_ops else 0.0,
        "trace_overhead_ratio": overhead,
    })
    notes = {
        "solver.domination_matrix.point_pairs": "(computed from cloud sizes)",
        "solver.domination_matrix.tensor_bytes": "(computed: largest column of the brute scan)",
        "problem.cloud_at.evals_per_point": f"({cloud_calls / rounds:g} calls / "
                                            f"{counters.grid_points / rounds:g} grid points)",
        "asymptotics.check_asymptotic_gap.per_op": f"(over {len(gap_ops) // max(rounds, 1)} "
                                                   f"of {ops_per_round} ops per round)",
    }
    return values, notes, per_round
