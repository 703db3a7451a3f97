"""Seeded random weighted partial MaxSAT instances.

random_wcnf builds the WCNF cells of the end-to-end benchmark
(perfbench/workloads.py imports it from here).
"""

import random

from maxcore.maxsat import HARD, SoftInstance, WeightedClause


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
