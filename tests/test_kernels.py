"""Differential test: every available kernel runs the identical search.

This is the equivalence gate between the compiled kernel (_search.cpp) and
its specification, the pure kernel (_search_py.py).  On the same input every
Engine.solve() must return the same status, model, core, counters, learnt
clauses and explanations on each kernel, and call the same propagators at
the same points of the search.  Skipped, with the reason the root
conftest.py gives, when the compiled kernel does not import.
"""

import random

import pytest

from maxcore.cp import CpModel, post_pb_upper_bound
from maxcore.engine import Propagator, available_kernels
from maxcore.maxsat import ALGORITHMS, solve
from maxcore.rcpsp import generate_micro_set, soften, solve_schedule
from conftest import engine_with, random_3cnf

KERNELS = available_kernels()

pytestmark = pytest.mark.usefixtures("compiled_kernel")


def same_on_every_kernel(run):
    """run(kernel) -> comparable result; assert every kernel gives the same."""
    first = run(KERNELS[0])
    for kernel in KERNELS[1:]:
        assert run(kernel) == first, "kernels %s and %s disagree" % (
            KERNELS[0], kernel)
    return first


class _Implication(Propagator):
    """a -> b, enqueueing b whenever a is true, even when b already is."""

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def propagate(self, view):
        if view.lit_value(self.a) == 1:
            view.enqueue(self.b, [self.a])


def test_random_cnf_with_assumptions(solves):
    # a few unit clauses, and assumptions drawn with repeats, so some are
    # fixed at root, repeated or contradictory
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randint(8, 40)
        clauses = random_3cnf(rng, n, int(rng.uniform(3.0, 5.0) * n))
        clauses += [(rng.choice([v, -v]),)
                    for v in rng.sample(range(1, n + 1), rng.randint(0, 2))]
        assume = [rng.choice([v, -v])
                  for v in rng.choices(range(1, n + 1), k=rng.randint(0, 6))]

        def run(kernel):
            del solves[:]
            engine_with(kernel, n, clauses, _Implication(1, -2)).solve(
                assumptions=assume)
            return list(solves)

        same_on_every_kernel(run)


def test_long_search_restarts_and_reduces(solves):
    # 4500 conflicts pass the learnt cap of 4000, one variable-activity
    # rescale and several restarts
    n = 180
    clauses = random_3cnf(random.Random(1), n, int(4.26 * n))

    def run(kernel):
        del solves[:]
        engine_with(kernel, n, clauses).solve(conflict_budget=4500)
        return list(solves)

    (out,) = same_on_every_kernel(run)
    status, _, _, conflicts, _, _, restarts, learnts, _, _ = out
    assert status == "unknown" and conflicts == 4500
    assert restarts > 0 and len(learnts) < 4000


def test_pb_bound_model(solves):
    rng = random.Random(5)
    n = 24
    clauses = random_3cnf(rng, n, 40)
    terms = [(rng.randint(1, 5), rng.choice([v, -v]))
             for v in rng.sample(range(1, n + 1), 16)]

    def run(kernel):
        del solves[:]
        mdl = CpModel(kernel=kernel)
        xs = [mdl.new_bool_var() for _ in range(n)]
        for c in clauses:
            mdl.eng.add_clause(tuple(xs[abs(l) - 1] * (1 if l > 0 else -1)
                                     for l in c))
        pb = post_pb_upper_bound(
            mdl.eng,
            [(w, xs[abs(l) - 1] * (1 if l > 0 else -1)) for w, l in terms], 30)
        for bound in (30, 20, 12, 8, 4):
            pb.tighten(bound)
            mdl.eng.solve()
            mdl.eng.solve(assumptions=[xs[0], -xs[1]])
        return list(solves)

    outs = same_on_every_kernel(run)
    assert any(o[-2] for o in outs), "no PB explanation was exercised"


def test_cumulative_model(solves):
    tasks = [(3, 2), (2, 1), (4, 1), (2, 2), (1, 1)]

    def run(kernel):
        del solves[:]
        mdl = CpModel(kernel=kernel)
        starts = []
        for _ in tasks:
            s = mdl.new_int_var(0, 6)
            mdl.materialize(s)
            starts.append(s)
        mdl.post_cumulative(
            [(s, dur, dem) for s, (dur, dem) in zip(starts, tasks)], 2)
        mdl.eng.solve()
        for v in range(1, 6):
            mdl.eng.solve(assumptions=[-mdl.lit_geq(starts[0], v),
                                       mdl.lit_geq(starts[2], 6 - v)])
        return list(solves)

    outs = same_on_every_kernel(run)
    assert any(o[-2] for o in outs), "no cumulative explanation was exercised"


@pytest.mark.parametrize("sample", ["sample5", "sample7"])
@pytest.mark.parametrize("algo", ALGORITHMS)
def test_drivers(solves, request, sample, algo):
    inst = request.getfixturevalue(sample)

    def run(kernel):
        del solves[:]
        res = solve(inst, algorithm=algo, kernel=kernel)
        return (res.status, res.z_opt, res.z_lower, res.cores, res.incumbents,
                res.model, res.meta, list(solves))

    same_on_every_kernel(run)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_rcpsp_micro_cell(solves, algo):
    # half-reified precedences and cumulative resources under each driver
    (_, inst), = generate_micro_set(1, seed=7)
    problem = soften(inst, 0.9, mode="weighted", seed=0)

    def run(kernel):
        del solves[:]
        res = solve_schedule(problem, algorithm=algo, kernel=kernel)
        return (res.status, res.cost, res.starts, res.audit_cost,
                list(solves))

    same_on_every_kernel(run)
