"""maxcore's seeded benchmark: time to a proven optimum per driver.

Runs one workload in this process, cell after cell, on the default kernel,
checks every answer, and prints each metric by name with its unit.  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 they
are the per-layer split, taken from traced rounds that alternate with
untraced ones, plus the tracing overhead.  Run from the repository root:

    python3 perfbench/run.py --workload wcnf-small --seed 0 --seconds 34

The exit code is 0 only if every answer was correct.  perfbench/README.md
describes the workloads and what each metric is for.
"""

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("wcnf-random", "wcnf-small", "rcpsp-soft")
DRIVERS = ("bnb", "wpm1", "msu3")
SETUP_REPEATS = 9
P90_MIN_CELLS = 100
CALIBRATION_LOOPS = 1500
CALIBRATION_REFERENCE_S = 0.00025

clock = time.perf_counter


def calibrate():
    """Seconds taken by a fixed piece of pure-Python work: the median of
    nine runs, so that an interrupt during one run does not count.

    On a shared two-vCPU cloud VM (Python 3.11) the speed of the process
    drifted by up to 2x within a minute, as the other tenants of its core
    came and went, and solver time drifted with this loop: over 40 s of
    interleaved runs a fixed set of solves took 116-200 ms while its ratio
    to the loop stayed within 179-195.  Every timed span is therefore scaled
    by CALIBRATION_REFERENCE_S over the mean time of this loop measured just
    before and just after it: times are reported in seconds at the speed at
    which one run of the loop takes 0.25 ms.  The loop does not touch
    maxcore, so a faster solver cannot make it faster.
    """
    times = []
    for _ in range(9):
        t0 = clock()
        seen, kept = {}, []
        for i in range(CALIBRATION_LOOPS):
            k = i % 97
            seen[k] = seen.get(k, 0) + i
            if i & 3:
                kept.append(k)
        times.append(clock() - t0)
    return statistics.median(times)


def scaled(seconds, cal_before, cal_after):
    return seconds * 2.0 * CALIBRATION_REFERENCE_S / (cal_before + cal_after)


def set_up(workload):
    """Import maxcore, select the kernel and build the workload's cells,
    SETUP_REPEATS times with the modules dropped in between.  Returns the
    median scaled time, the kernel, and the last copies of the modules and
    cells."""
    for path in (os.path.join(ROOT, "benchmarks"), os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m.split(".")[0] in
                     ("maxcore", "bench_kernels", "workloads", "layers")]:
            del sys.modules[name]
        cal = calibrate()
        t0 = clock()
        import maxcore
        import workloads
        kernel = maxcore.default_kernel()
        cells = workloads.build(workload)
        times.append(scaled(clock() - t0, cal, calibrate()))
    return statistics.median(times), kernel, maxcore, workloads, cells


def run_round(cells, order, tracer=None):
    """Solve every cell once, in the given order of indices.  Returns the
    scaled seconds and the answers in cell order, and the round's unscaled
    wall time."""
    seconds, answers = [0.0] * len(cells), [None] * len(cells)
    wall = 0.0
    cal = calibrate()
    for i in order:
        cell = cells[i]
        if tracer is not None:
            tracer.driver = cell.driver
        # each cell starts from a collected heap, whatever ran before it
        gc.collect()
        t0 = clock()
        answers[i] = cell.run()
        dt = clock() - t0
        after = calibrate()
        seconds[i] = scaled(dt, cal, after)
        wall += dt
        cal = after
    return seconds, answers, wall


def cell_times(rounds):
    """Per-cell median of the scaled times over rounds."""
    return [statistics.median(ts) for ts in zip(*rounds)]


def end_to_end(cells, rounds, setup_s):
    times = cell_times(rounds)
    metrics = {"setup_s": (setup_s, "s"), "total_s": (sum(times), "s")}
    for driver in DRIVERS:
        metrics[driver + "_s"] = (
            sum(t for c, t in zip(cells, times) if c.driver == driver), "s")
    metrics["cell_ms.p50"] = (statistics.median(times) * 1000.0, "ms")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics, times


def per_layer(layers, traced, untraced, soften_s):
    counts = traced[0]["counts"]
    metrics = {name: (counts.get(name, 0), "count")
               for name in layers.COUNTERS}
    for name, _ in layers.PROPAGATORS:
        calls = counts.get(name + ".calls", 0)
        useful = counts.get(name + ".useful", 0)
        metrics[name + ".useful_ratio"] = (
            useful / calls if calls else 0.0, "ratio")
    names = list(layers.SELF_TIME.values())
    names += ["%s.%s" % (d, n) for d in DRIVERS for n in names
              if n != "rcpsp.soften.s"]
    for name in names:
        metrics[name] = (statistics.median(r["seconds"].get(name, 0.0)
                                           for r in traced), "s")
    metrics["rcpsp.soften.s"] = (soften_s, "s")
    traced_s = sum(cell_times([r["times"] for r in traced]))
    metrics["tracing.overhead"] = (traced_s / sum(cell_times(untraced)),
                                   "ratio")
    return metrics


def print_split(metrics):
    """The largest self-time layers of each driver."""
    for driver in DRIVERS:
        rows = sorted(((v, k[len(driver) + 1:]) for k, (v, _) in
                       metrics.items() if k.startswith(driver + ".")),
                      reverse=True)
        print("%s largest layers: %s" % (driver, ", ".join(
            "%s %.3f" % (k, v) for v, k in rows[:4])))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0,
                    help="seeds the order in which cells run in each round "
                         "(default 0)")
    ap.add_argument("--seconds", type=float, default=34.0,
                    help="time spent in measured rounds (default 34)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1 reports the per-layer split instead")
    args = ap.parse_args(argv)

    setup_s, kernel, maxcore, workloads, cells = set_up(args.workload)
    kernels = maxcore.available_kernels()
    print("kernel %s (available: %s); nproc %d; python %s"
          % (kernel, ", ".join(kernels), os.cpu_count(),
             platform.python_version()))
    if len(kernels) == 1:
        print("only the %s kernel imports; cross-kernel check skipped"
              % kernel)
    print("workload %s, seed %d: %d cells, budget %.0f s per cell"
          % (args.workload, args.seed, len(cells), workloads.CELL_BUDGET_S))

    # Reference answers and cross-kernel agreement, outside the timed rounds.
    oracle = workloads.oracle_answers(cells)
    attempted = failed = 0
    for other in kernels:
        if other != kernel:
            for cell in cells:
                attempted += 1
                if cell.run(kernel=other) != cell.run(kernel=kernel):
                    print("kernels disagree on %s" % cell.name)
                    failed += 1

    tracer = layers = None
    soften_s = 0.0
    if args.trace:
        import layers
        tracer = layers.Tracer(kernel)
        cal = calibrate()
        with tracer:
            workloads.build(args.workload)
        soften_s = scaled(tracer.seconds()["rcpsp.soften.s"], cal,
                          calibrate())

    # Rounds until --seconds is spent: a round starts while at least half
    # of the last one's duration is left.  With tracing, rounds alternate
    # untraced and traced, so both see the same machine conditions.  The
    # instances and reference answers are frozen out of the collector, so
    # the collection before each cell only sees what earlier cells left.
    gc.freeze()
    rng = random.Random(args.seed)
    untraced, traced = [], []
    first = None
    last = {False: 0.0, True: 0.0}
    deadline = clock() + args.seconds
    while True:
        trace_now = bool(args.trace) and len(traced) < len(untraced)
        enough = untraced and (traced or not args.trace)
        if enough and clock() + last[trace_now] / 2 > deadline:
            break
        order = rng.sample(range(len(cells)), len(cells))
        t0 = clock()
        if trace_now:
            tracer.reset()
            with tracer:
                times, answers, wall = run_round(cells, order, tracer)
            # layer spans are scaled by the round's overall factor
            factor = sum(times) / wall
            traced.append({"times": times, "counts": tracer.counters(),
                           "seconds": {k: v * factor for k, v in
                                       tracer.seconds().items()}})
        else:
            times, answers, wall = run_round(cells, order)
            untraced.append(times)
        last[trace_now] = clock() - t0
        print("round %d%s: %.3f s wall, %.3f s scaled"
              % (len(untraced) + len(traced), " traced" * trace_now, wall,
                 sum(times)))
        first = first or answers
        bad = workloads.check_round(cells, answers, oracle)
        bad.update(c.name for c, a, b in zip(cells, answers, first) if a != b)
        if bad:
            print("%d failed cells: %s" % (len(bad), ", ".join(sorted(bad))))
        attempted += len(cells)
        failed += len(bad)
    if any(r["counts"] != traced[0]["counts"] for r in traced):
        print("per-layer counts differ between traced rounds")
        failed += 1

    metrics, times = end_to_end(cells, untraced, setup_s)
    if len(times) >= P90_MIN_CELLS:
        print("cell_ms.p90 %.4f ms (%d cells)"
              % (statistics.quantiles(times, n=10)[-1] * 1000.0, len(times)))
    print("failed_ratio %.4f (%d of %d cell solves)"
          % (failed / attempted, failed, attempted))
    if args.trace:
        metrics = per_layer(layers, traced, untraced, soften_s)
        print_split(metrics)
    for name, (value, unit) in metrics.items():
        print("%-36s %14.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
