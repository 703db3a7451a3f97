"""The benchmark's workloads: fixed instance families and the cells
(instance, driver) that get timed.

Every family is generated from fixed instance seeds, exactly as
`benchmarks/bench_kernels.py` and `maxcore.rcpsp` generate them.  The run
seed only fixes the order in which the cells run in each round.  It does
not draw other instances or rename these ones: either changes the search,
and wpm1's time with it, by far more than any bound the benchmark could
hold (README.md gives the measurements).
"""

from collections import namedtuple
from dataclasses import dataclass

from bench_kernels import random_wcnf
from maxcore import maxsat, rcpsp
from maxcore.maxsat import ALGORITHMS, SoftInstance
from maxcore.oracle import MAXSAT_VAR_GUARD, brute_force_maxsat

# Generous per-cell budget: the slowest cell of any workload takes a few
# seconds.  wpm1 can overrun it, since retraction is not budgeted, so a
# cell's recorded time is always its measured wall time, never the budget.
CELL_BUDGET_S = 60.0

WORKLOADS = {
    # (family, instance seeds, generator arguments)
    "wcnf-random": ("wcnf", range(8), (35, 127)),
    "wcnf-small": ("wcnf", range(150), (16, 64)),
    "rcpsp-soft": ("rcpsp", range(10), (10, 12)),
}
RCPSP_ALPHAS = (1.0, 0.9)

Answer = namedtuple(
    "Answer", "status optimum audit conflicts decisions propagations")


@dataclass
class Cell:
    """One (instance, driver) pair, solved from input to a proven answer."""

    name: str
    group: str          # instance name; every driver in a group must agree
    driver: str
    problem: object     # SoftInstance or rcpsp.SoftPrecedenceProblem

    def run(self, kernel="auto"):
        if isinstance(self.problem, SoftInstance):
            res = maxsat.solve(self.problem, algorithm=self.driver,
                               kernel=kernel, time_budget_s=CELL_BUDGET_S)
            return _answer(res.status, res.z_opt, res.meta.get("audit"),
                           res.stats)
        res = rcpsp.solve_schedule(self.problem, algorithm=self.driver,
                                   kernel=kernel, time_budget_s=CELL_BUDGET_S)
        stats = res.opt.stats if res.opt is not None else {}
        return _answer(res.status, res.cost, res.audit_cost, stats)


def _answer(status, optimum, audit, stats):
    return Answer(status, optimum, audit, stats.get("conflicts", 0),
                  stats.get("decisions", 0), stats.get("propagations", 0))


def build(workload):
    """The workload's cells, instance by instance."""
    family, seeds, sizes = WORKLOADS[workload]
    problems = []
    for k in seeds:
        if family == "wcnf":
            problems.append(("n%d-s%d" % (sizes[0], k),
                             random_wcnf(k, *sizes)))
            continue
        inst = rcpsp.generate_instance(k, *sizes)
        for alpha in RCPSP_ALPHAS:
            p = rcpsp.soften(inst, alpha, mode="weighted", seed=k)
            problems.append(("s%d-a%s" % (k, alpha), p))
    return [Cell("%s/%s" % (group, driver), group, driver, problem)
            for group, problem in problems for driver in ALGORITHMS]


def oracle_answers(cells):
    """group -> (status, optimum) from brute force, for every WCNF instance
    small enough for the oracle's enumeration guard."""
    out = {}
    for cell in cells:
        if (cell.group in out or not isinstance(cell.problem, SoftInstance)
                or cell.problem.var_count > MAXSAT_VAR_GUARD):
            continue
        ref = brute_force_maxsat(cell.problem)
        out[cell.group] = (("unsatisfiable", None) if ref.optimum is None
                           else ("optimal", ref.optimum))
    return out


def check_round(cells, answers, oracle):
    """Names of the cells whose answer is wrong or undecided.

    A cell fails if it is undecided, if its audited cost differs from its
    optimum, if it disagrees with the oracle where one was run, or if the
    drivers of its instance disagree on status or optimum.
    """
    bad = set()
    by_group = {}
    for cell, ans in zip(cells, answers):
        by_group.setdefault(cell.group, []).append((cell, ans))
        if ans.status not in ("optimal", "unsatisfiable", "infeasible"):
            bad.add(cell.name)
        elif ans.status == "optimal" and ans.audit != ans.optimum:
            bad.add(cell.name)
        elif (cell.group in oracle
              and (ans.status, ans.optimum) != oracle[cell.group]):
            bad.add(cell.name)
    for members in by_group.values():
        if len({(a.status, a.optimum) for _, a in members}) > 1:
            bad.update(cell.name for cell, _ in members)
    return bad
