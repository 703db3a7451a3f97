"""Search identity check: one SHA-256 over everything a fixed set of solves
returns.

Two checkouts, or two kernels, run the same search exactly when they print
the same digest.  The digest covers every Engine.solve() outcome (status,
model, core, counters, learnt clauses, explanations) and every answer, over
the 500-instance random WCNF batch of tests/test_acceptance.py under each
driver, and over one pass of every cell of the three perfbench workloads
(perfbench/workloads.py, imported as it is).  maxcore is imported from the
src/ of the checkout the script sits in.  Run from the repository root:

    python3 tools/same_search.py --kernel python

It prints one line per part (solve count and digest), each followed by one
line per driver with the digest of that driver's runs alone, so that a
change shows which drivers' search it moved, and by an answers line: the
digest of each run's status and optimum alone, which a change that moves
the search but no answer leaves as it was.  The last line is the digest of
all parts.
A full pass on the pure kernel takes about 3 s (2.7-3.0 s measured) on a
2-core x86-64 VM with Python 3.11.7.  The test suite runs every part on
both kernels (tests/test_same_search.py) and fails unless they print the
same lines, so the pure kernel's digest stands for both.
"""

import argparse
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_path(*subdirs):
    for sub in subdirs:
        path = os.path.join(ROOT, sub)
        if path not in sys.path:
            sys.path.insert(0, path)


OUTCOME_FIELDS = ("status", "model", "core", "conflicts", "decisions",
                  "propagations", "restarts", "learnts", "explanations")
ACCEPTANCE_INSTANCES = 500
WORKLOADS = ("wcnf-random", "wcnf-small", "rcpsp-soft")
PARTS = ("acceptance",) + WORKLOADS


def _answer(res):
    """A run's answer without its wall time."""
    from maxcore.maxsat import OptimizeResult
    if isinstance(res, OptimizeResult):
        stats = {k: v for k, v in res.stats.items() if k != "wall_ms"}
        return (res.status, res.z_opt, res.model, res.z_lower, res.cores,
                res.incumbents, stats, res.meta)
    return res


def _status_and_optimum(res):
    """A run's status and optimum: an OptimizeResult's z_opt, or a perfbench
    Answer's optimum."""
    from maxcore.maxsat import OptimizeResult
    if isinstance(res, OptimizeResult):
        return (res.status, res.z_opt)
    return (res.status, res.optimum)


def digests(runs):
    """(hex SHA-256, number of solves, {driver: hex SHA-256}, answers hex
    SHA-256) over the outcome of every Engine.solve() call that the runs make
    and the answer each run returns, in order.  runs is an iterable of
    (driver name, zero-argument callable) pairs; a driver's digest covers its
    runs only, and the answers digest each run's status and optimum only."""
    from maxcore.engine import Engine
    h = hashlib.sha256()
    answers = hashlib.sha256()
    per_driver = {}
    current = [h]
    solves = [0]
    original = Engine.solve

    def update(data):
        for sha in current:
            sha.update(data)

    def recorded(eng, *args, **kwargs):
        out = original(eng, *args, **kwargs)
        solves[0] += 1
        update(repr([getattr(out, f) for f in OUTCOME_FIELDS]).encode())
        return out

    Engine.solve = recorded
    try:
        for driver, run in runs:
            current[1:] = [per_driver.setdefault(driver, hashlib.sha256())]
            res = run()
            update(repr(_answer(res)).encode())
            answers.update(repr(_status_and_optimum(res)).encode())
    finally:
        Engine.solve = original
    return (h.hexdigest(), solves[0],
            {d: sha.hexdigest() for d, sha in per_driver.items()},
            answers.hexdigest())


def digest(runs):
    """(hex SHA-256, number of solves) of digests(runs)."""
    return digests(runs)[:2]


def driver_runs(instances, kernel):
    """One (driver, run) per (instance, driver), instance by instance."""
    from maxcore.maxsat import ALGORITHMS, solve
    return [(algo, lambda inst=inst, algo=algo: solve(inst, algo,
                                                      kernel=kernel))
            for inst in instances for algo in ALGORITHMS]


def part_runs(part, kernel):
    if part == "acceptance":
        _import_path("tests")
        from test_acceptance import WCNF_SEED, random_wcnf
        return driver_runs((random_wcnf(WCNF_SEED + i)
                            for i in range(ACCEPTANCE_INSTANCES)), kernel)
    _import_path("benchmarks", "perfbench")
    import workloads
    return [(cell.driver, lambda cell=cell: cell.run(kernel=kernel))
            for cell in workloads.build(part)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kernel", default="auto",
                    choices=("auto", "python", "compiled"))
    args = ap.parse_args(argv)
    _import_path("src")
    total = hashlib.sha256()
    for part in PARTS:
        hexdigest, solves, per_driver, answers = digests(
            part_runs(part, args.kernel))
        print("%-12s %7d solves  %s" % (part, solves, hexdigest))
        for driver, driver_hex in per_driver.items():
            print("  %-10s %7s         %s" % (driver, "", driver_hex))
        print("  %-10s %7s         %s" % ("answers", "", answers))
        total.update(hexdigest.encode())
    print("%-12s %7s         %s" % ("all", "", total.hexdigest()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
