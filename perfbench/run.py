"""Benchmark runner for the dexter library.

    python3 perfbench/run.py --workload arts_cli --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the library is imported from ``src/`` of
the checkout this file sits in, never from an installed copy. Scratch files
go to ``.perfbench_work/`` in the checkout and are removed on exit.

``--trace 0`` measures the end-to-end metrics: the workload is set up
``SETUPS`` times, then its unit of work is repeated (at least twice, for the
determinism gate) until ``--seconds`` have passed, and each metric is the
median over the samples. ``--trace 1`` makes one untraced set-up and two
untraced iterations (the first warms up), then a set-up and iterations for
``--seconds`` with every library layer wrapped (``layers.layer_probes``). It
reports per-layer counts and times for one set-up plus one iteration, and the
tracing overhead as the traced over the untraced iteration time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every correctness check passed, 1 when one failed, 2 when the library
sources are missing.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

import stats
import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUPS = 3
MIN_ITERATIONS = 2
# Printed but kept out of the JSON result. ``generate_s`` is sub-second on two
# workloads, so its run-to-run spread is wider than any bound the benchmark
# can hold; the detection time follows the calibrated threshold, which
# swings widely across seeds at these episode counts.
UNBOUNDED = ("generate_s", "detection_time_steps")


def _another(done: list, start: float, seconds: float, minimum: int) -> bool:
    """Start another iteration while fewer than ``minimum`` ran, or while it
    would end nearer to ``seconds`` than stopping now does."""
    if len(done) < minimum:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / len(done) / 2 < seconds


def end_to_end(setups, iterations) -> dict:
    """name -> (value, unit, sample description); the ``UNBOUNDED`` names
    are printed but not bounded (see README)."""
    out = {}
    for name in ("setup_s", "generate_s", "train_s", "evaluate_s", "pipeline_s"):
        values = [v for d in setups + [it.stages for it in iterations] for v in d.get(name, ())]
        out[name] = (statistics.median(values), "s", f"median of {len(values)}")
    # Percentiles per iteration, then the median over iterations: in the
    # batch workloads a p99 over one run's ~100 episode decisions is close to
    # their maximum, and one scheduling stall would set it.
    decisions = sum(len(it.decisions) for it in iterations)
    observations = sum(w for it in iterations for _, w in it.decisions)
    for name, q in (("step_p50_ms", 50), ("step_p99_ms", 99)):
        values = [1e3 * stats.weighted_percentile(it.decisions, q) for it in iterations]
        out[name] = (statistics.median(values), "ms", f"median of {len(values)} iterations; "
                     f"{observations} observations, {decisions} decisions")
    aurocs = [it.auroc for it in iterations]
    out["auroc"] = (statistics.median(aurocs), "1", f"median of {len(aurocs)}")
    steps, episodes = iterations[0].detection_time or (None, 0)
    if steps is not None:
        out["detection_time_steps"] = (steps, "steps", f"dexter_c, mean of {episodes} injected episodes")
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "peak of the run")
    return out


def run_untraced(workload, seconds: float):
    setups = [workload.setup() for _ in range(SETUPS)]
    iterations = []
    start = time.perf_counter()
    while _another(iterations, start, seconds, MIN_ITERATIONS):
        iterations.append(workload.iteration())
        if iterations[-1].failed:
            return iterations, {}
    metrics = end_to_end(setups, iterations)
    print(f"{len(iterations)} iterations in {time.perf_counter() - start:.1f} s "
          "(closed loop, one client)")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<22} {value:>14.6f} {unit:<3} ({samples})")
    return iterations, {name: (v, unit) for name, (v, unit, _) in metrics.items()
                        if name not in UNBOUNDED}


def run_traced(workload, seconds: float):
    import layers

    workload.setup()
    iterations = [workload.iteration()]  # warm-up
    start = time.perf_counter()
    iterations.append(workload.iteration())
    untraced = time.perf_counter() - start
    if any(it.failed for it in iterations):
        return iterations, {}

    trace = tracer.Tracer(layers.layer_probes())
    walls = []
    with trace:
        start = time.perf_counter()
        workload.setup()
        setup_wall = time.perf_counter() - start
        trace.end_iteration()
        after_setup = trace.snapshot()
        start = time.perf_counter()
        while _another(walls, start, seconds, 1):
            began = time.perf_counter()
            iterations.append(workload.iteration())
            walls.append(time.perf_counter() - began)
            trace.end_iteration()
            if iterations[-1].failed:
                return iterations, {}
    unit = tracer.per_unit(after_setup, trace.snapshot(), len(walls))
    traced_wall = setup_wall + sum(walls)
    covered = sum(s.self_time for s in trace.layers.values())

    print(f"traced: set-up + {len(walls)} iteration(s) in {traced_wall:.1f} s; "
          "per layer, one set-up plus one iteration:")
    print(f"  {'layer':<42} {'calls':>9} {'incl s':>10} {'self s':>10}  counts")
    for name, s in sorted(unit.items(), key=lambda kv: -kv[1].self_time):
        counts = " ".join(f"{k}={v:g}" for k, v in sorted(s.counts.items()))
        print(f"  {name:<42} {s.calls:>9g} {s.inclusive:>10.4f} {s.self_time:>10.4f}  {counts}")
    metrics = layers.per_layer_metrics(unit)
    metrics["trace.overhead_ratio"] = (statistics.median(walls) / untraced, "ratio")
    metrics["trace.self_share"] = (covered / traced_wall, "ratio")
    for name, (value, unit_name) in metrics.items():
        print(f"  {name:<48} {value:>16.6f} {unit_name}")
    return iterations, metrics


def check(iterations) -> list:
    """Correctness problems across all iterations of one run."""
    problems = [p for it in iterations for p in it.problems]
    digests = {it.digest for it in iterations}
    if None in digests and not problems:
        problems.append("an iteration produced no result digest")
    if len(digests - {None}) > 1:
        problems.append(f"determinism: same seed gave {len(digests - {None})} different results")
    return problems


def report(iterations, problems):
    it = iterations[0]
    digests = sorted({i.digest for i in iterations} - {None})
    print(f"result digest sha256 {' / '.join(digests)} "
          f"({len(iterations)} iterations with the same seed)")
    for name, alerts, clean, target in it.calibration:
        lo, hi = stats.clopper_pearson(alerts, clean)
        flag = "inside" if lo <= target <= hi else "OUTSIDE (flagged)"
        print(f"calibration {name}: clean FPR {alerts}/{clean} = {alerts / clean:.4f}, "
              f"95% Clopper-Pearson [{lo:.4f}, {hi:.4f}]; target {target:g} {flag}")
    attempted = sum(i.attempted for i in iterations)
    failed = sum(i.failed for i in iterations)
    print(f"failed operations: {failed}/{attempted} ({100.0 * failed / max(attempted, 1):.2f}%)")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    return attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dexter", "__init__.py")):
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread, set before NumPy loads. With OpenBLAS's default of one
    # thread per CPU, the first few ``lstsq`` calls of a process (PEDM-lite
    # training) took about 0.7 s instead of 0.03 s on a 2-CPU VM, and whether
    # a run's median iteration paid that made ``train_s`` bimodal.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path.insert(0, SRC)
    import dexter
    if not os.path.abspath(dexter.__file__).startswith(SRC + os.sep):
        print(f"error: dexter imported from {dexter.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    work_root = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
        workload = WORKLOADS[args.workload](ROOT, work, args.seed)
        run = run_traced if args.trace else run_untraced
        iterations, metrics = run(workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    problems = check(iterations)
    attempted, failed = report(iterations, problems)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
