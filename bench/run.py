"""setopt benchmark: one workload, closed loop, through `setopt.cli.main`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
`src/`, nothing is installed.  One client runs one op at a time, back to
back, in this process, replaying the workload's op list in whole rounds
until the window is within half a round of `--seconds` (at least two
rounds).  Every op's stdout is
checked: exit code 0, byte-identical to the first round, and rechecked
outside the timed window (see verify.py).

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced rounds, checks that traced stdout is byte-identical to
untraced, and prints the per-layer metrics, per round.  The last stdout
line is the JSON result; details, the environment and (traced) the spans
of one round go to .bench_out/.  See NOTES.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
SETUP_SAMPLES = 7
MIN_ROUNDS = 2
MAX_FAILURE_LINES = 20
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
IMPORT_PROBE = ("import time; t = time.perf_counter(); import setopt.cli; "
                "print(repr(time.perf_counter() - t))")


def load_library():
    """Import setopt from this checkout's src/, refusing any other copy."""
    init = SRC / "setopt" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no setopt sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import setopt.cli

    if Path(setopt.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported setopt from {setopt.__file__}, not {init}")
    return setopt.cli


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle
                      if line.startswith("model name")]
        cpu = models[0] if models else cpu
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "SETOPT_THREADS": os.environ.get("SETOPT_THREADS", "unset (library default 1)"),
        "blas_thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
        "platform": platform.platform(),
    }


def measure_setup() -> list[float]:
    """Seconds to `import setopt.cli` in fresh interpreters, after one warm-up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples[1:]


def run_op(cli, op) -> tuple[float, object, str, str]:
    """(latency, exit code or exception text, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(op.argv))
        except Exception:  # an op that raises is a failed op; the loop goes on
            code = "raised: " + traceback.format_exc(limit=3)
        latency = time.perf_counter() - start
    return latency, code, out.getvalue(), err.getvalue()


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest listed percentile with >= 10 ops beyond it.

    Nearest rank.  With fewer than 20 ops not even the median has ten
    beyond it; the median is reported and the percentile says so.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, -(-int(p * 10) * n // 1000))  # ceil(p/100 * n) in integers
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


class Loop:
    """The closed loop over one op list, with per-op output bookkeeping."""

    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        self.first: dict[int, str] = {}
        self.runs: list[tuple[int, float, bool]] = []  # (op index, latency, ok so far)
        self.errors: dict[int, list[str]] = {}

    def round(self, before_op=None) -> float:
        """Run every op once; returns the summed op latency."""
        total = 0.0
        for k, op in enumerate(self.ops):
            if before_op is not None:
                before_op(k)
            latency, code, text, err = run_op(self.cli, op)
            total += latency
            ok = code == 0
            if not ok:
                self.errors.setdefault(k, []).append(f"exit {code}: {err.strip()[-300:]}")
            elif self.first.setdefault(k, text) != text:
                ok = False
                self.errors.setdefault(k, []).append("stdout differs from its first, untraced run")
            self.runs.append((k, latency, ok))
        return total

    def verify(self, seed: int) -> None:
        """Recheck each op's first output; failures mark all of its runs."""
        import numpy as np

        from verify import verify_output

        for k, text in sorted(self.first.items()):
            problems = verify_output(self.ops[k], text, np.random.default_rng([seed, k]))
            if problems:
                self.errors.setdefault(k, []).extend(problems)
        bad = {k for k, problems in self.errors.items() if problems}
        self.runs = [(k, lat, ok and k not in bad) for k, lat, ok in self.runs]

    @property
    def failed(self) -> int:
        return sum(1 for _, _, ok in self.runs if not ok)


def end_to_end(loop: Loop, wall: float, cpu: float, setup: list[float]) -> tuple[dict, dict]:
    latencies = [lat for _, lat, _ in loop.runs]
    n = len(latencies)
    p, tail_value = tail(latencies)
    metrics = {
        "ops_per_s": n / wall,
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_value,
        "cpu_per_op_s": cpu / n,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
    }
    detail = {"ops": n, "wall_s": wall, "cpu_s": cpu, "tail_percentile": p,
              "setup_samples_s": setup, "failed_ratio": loop.failed / n}
    return metrics, detail


def more_rounds(start: float, rounds: int, seconds: float, minimum: int) -> bool:
    """Whether to start another whole round: the window ends within half a round of `seconds`."""
    elapsed = time.perf_counter() - start
    return rounds < minimum or elapsed + 0.5 * elapsed / rounds < seconds


def timed_run(cli, ops, seconds: float) -> tuple[Loop, float, float]:
    loop = Loop(cli, ops)
    cpu0, start = time.process_time(), time.perf_counter()
    rounds = 0
    while more_rounds(start, rounds, seconds, MIN_ROUNDS):
        loop.round()
        rounds += 1
    return loop, time.perf_counter() - start, time.process_time() - cpu0


def traced_run(cli, ops, seconds: float):
    """Alternate untraced and traced rounds; returns the loop and layer figures."""
    from layers import LayerCounters
    from tracer import LayerTracer

    counters = LayerCounters(ops)
    tracer = LayerTracer(hooks=counters.hooks())
    loop = Loop(cli, ops)
    plain = traced = 0.0
    rounds = 0
    start = time.perf_counter()
    while more_rounds(start, rounds, seconds, 1):
        plain += loop.round()
        base = rounds * len(ops)

        def enter(k, base=base):
            tracer.op = base + k
            counters.begin_op(k)

        tracer.install()
        try:
            traced += loop.round(before_op=enter)
        finally:
            tracer.remove()
        rounds += 1
    return loop, tracer, counters, rounds, traced / plain - 1.0


def write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=1, sort_keys=True, default=float)
        handle.write("\n")


def print_table(title: str, metrics: dict, notes: dict) -> None:
    print(title)
    for name, entry in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<52} {entry['value']!r:>24} {entry['unit']:<6} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_library()
    import workloads
    from verify import canonical_facts

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_DIR)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        if args.trace:
            loop, tracer, counters, rounds, overhead = traced_run(cli, ops, args.seconds)
        else:
            setup = measure_setup()
            loop, wall, cpu = timed_run(cli, ops, args.seconds)
            metrics, detail = end_to_end(loop, wall, cpu, setup)
        loop.verify(args.seed)
        fact_problems = canonical_facts(os.path.join(workdir, "canonical"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    n = len(loop.runs)
    if args.trace:
        from layers import layer_metrics

        values, notes, summary = layer_metrics(tracer, counters, rounds, overhead, len(ops))
        wanted = spec["per_layer"]
        spans = tracer.write_spans(str(OUT_DIR / f"{stem}-spans.jsonl.gz"),
                                   ops=range(len(ops)))
        detail = {"rounds_traced": rounds, "spans_total": len(tracer),
                  "spans_written_first_round": spans, "functions_per_round": summary}
    else:
        values, notes = metrics, {"op_tail_s": f"(p{detail['tail_percentile']:g} of {n} ops)",
                                  "setup_s": f"(median of {SETUP_SAMPLES} fresh imports)"}
        wanted = spec["end_to_end"]
    result_metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                      for m in wanted}
    correct = loop.failed == 0 and not fact_problems
    print_table(f"workload {args.workload}, seed {args.seed}, {n} ops, "
                f"failed_ratio {loop.failed / n!r}", result_metrics, notes)
    failures = [f"{ops[k].label}: {problem}" for k, problems in sorted(loop.errors.items())
                for problem in problems] + [f"fixture fact: {p}" for p in fact_problems]
    for line in failures[:MAX_FAILURE_LINES]:
        print(f"  FAILED {line}")
    if len(failures) > MAX_FAILURE_LINES:
        print(f"  ... {len(failures) - MAX_FAILURE_LINES} more in {OUT_DIR.name}/{stem}.json")
    write_json(OUT_DIR / f"{stem}.json", {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "metrics": result_metrics,
        "failed_ratio": loop.failed / n, "fixture_fact_problems": fact_problems,
        "op_labels": [op.label for op in ops],
        "latencies_s": [[ops[k].label, lat] for k, lat, _ in loop.runs],
        "errors": {ops[k].label: p for k, p in loop.errors.items()}, "detail": detail,
    })
    print(json.dumps({"correct": correct, "attempted": n, "failed": loop.failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
