"""Compare the pure-Python and compiled search kernels on shared workloads.

Each workload is solved once per kernel with identical inputs; results must
agree exactly, and the wall times (best of --repeat runs) are reported side
by side.  Run from the repository root:

    python3 benchmarks/bench_kernels.py
"""

import argparse
import random
import sys
import time

from maxcore.engine import available_kernels
from maxcore.maxsat import ALGORITHMS, HARD, SoftInstance, WeightedClause, solve
from maxcore.rcpsp import generate_instance, soften, solve_schedule


def random_wcnf(seed, nvars, nclauses):
    rng = random.Random(seed)
    clauses = []
    for _ in range(nclauses):
        k = min(rng.randint(2, 3), nvars)
        vs = rng.sample(range(1, nvars + 1), k)
        lits = tuple(v if rng.random() < 0.5 else -v for v in vs)
        w = HARD if rng.random() < 0.25 else rng.randint(1, 8)
        clauses.append(WeightedClause(lits, w))
    return SoftInstance(nvars, clauses)


def wcnf_workloads(seed, count, nvars, nclauses):
    for k in range(count):
        inst = random_wcnf(seed + k, nvars, nclauses)
        for algo in ALGORITHMS:
            name = "wcnf n=%d m=%d seed=%d %s" % (nvars, nclauses, seed + k, algo)
            yield name, _wcnf_runner(inst, algo)


def _wcnf_runner(inst, algo):
    def run(kernel):
        res = solve(inst, algorithm=algo, kernel=kernel)
        return res.status, res.z_opt
    return run


def rcpsp_workloads(seed, count, alpha):
    for k in range(count):
        inst = generate_instance(seed + k, min_tasks=8, max_tasks=10)
        try:
            prob = soften(inst, alpha=alpha, mode="weighted", seed=seed + k)
        except ValueError:
            continue
        for algo in ALGORITHMS:
            name = "rcpsp n=%d seed=%d %s" % (len(inst.tasks), seed + k, algo)
            yield name, _rcpsp_runner(prob, algo)


def _rcpsp_runner(prob, algo):
    def run(kernel):
        res = solve_schedule(prob, algorithm=algo, kernel=kernel)
        return res.status, res.cost
    return run


def time_run(run, kernel, repeat):
    best = None
    answer = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        answer = run(kernel)
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best = dt
    return answer, best


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeat", type=int, default=1,
                    help="timing runs per workload, best is kept")
    ap.add_argument("--wcnf-count", type=int, default=3)
    ap.add_argument("--wcnf-vars", type=int, default=55)
    ap.add_argument("--wcnf-clauses", type=int, default=200)
    ap.add_argument("--rcpsp-count", type=int, default=4)
    ap.add_argument("--alpha", type=float, default=0.8)
    args = ap.parse_args(argv)

    kernels = available_kernels()
    if "compiled" not in kernels:
        print("compiled kernel is not available; build it first with"
              " python3 setup.py build_ext --inplace", file=sys.stderr)
        return 1

    workloads = list(wcnf_workloads(args.seed, args.wcnf_count,
                                    args.wcnf_vars, args.wcnf_clauses))
    workloads += list(rcpsp_workloads(args.seed, args.rcpsp_count, args.alpha))

    width = max(len(name) for name, _ in workloads)
    print("%-*s %12s %12s %9s" % (width, "workload", "python (s)",
                                  "compiled (s)", "speedup"))
    totals = {"python": 0.0, "compiled": 0.0}
    mismatches = 0
    for name, run in workloads:
        ans_py, t_py = time_run(run, "python", args.repeat)
        ans_cy, t_cy = time_run(run, "compiled", args.repeat)
        totals["python"] += t_py
        totals["compiled"] += t_cy
        if ans_py != ans_cy:
            mismatches += 1
            print("%-*s MISMATCH python=%r compiled=%r"
                  % (width, name, ans_py, ans_cy))
            continue
        speed = t_py / t_cy if t_cy > 0 else float("inf")
        print("%-*s %12.4f %12.4f %8.1fx" % (width, name, t_py, t_cy, speed))
    overall = (totals["python"] / totals["compiled"]
               if totals["compiled"] > 0 else float("inf"))
    print("%-*s %12.4f %12.4f %8.1fx" % (width, "total", totals["python"],
                                         totals["compiled"], overall))
    if mismatches:
        print("%d workload(s) disagreed between kernels" % mismatches,
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
