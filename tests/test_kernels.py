"""Differential test: every available kernel runs the identical search.

This is the equivalence gate between the compiled kernel (_search.cpp) and
its specification, the pure kernel (_search_py.py).  On the same input every
Engine.solve() must return the same status, model, core, counters, learnt
clauses and explanations on each kernel, and call the same propagators at
the same points of the search.  Skipped, with the reason the root
conftest.py gives, when the compiled kernel does not import.
"""

import functools
import itertools
import random
import sys

import pytest

from maxcore.cp import CpModel, PbUpperBound, post_pb_upper_bound
from maxcore.engine import Propagator, available_kernels
from maxcore.maxsat import ALGORITHMS, solve
from maxcore.rcpsp import generate_micro_set, soften, solve_schedule
from conftest import engine_with, outcome, random_3cnf

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


# ----------------------------------------------------------------------
# PbUpperBound runs natively on the compiled kernel.  These tests record
# outcomes with the outcomes fixture, which wraps no propagate, so the
# compiled kernel takes its native path wherever it can.


def _pb_solves(kernel, nvars, clauses, terms, bounds, assumptions, extend=()):
    """An engine with clauses and one PB over terms, solved under each of
    assumptions at each bound of bounds in turn (tighten, not a new PB);
    extend, PB terms to attach after the first solve, so that the kernel
    reads them in extend().  Returns the engine."""
    eng = engine_with(kernel, nvars, clauses)
    pb = post_pb_upper_bound(eng, terms, bounds[0])
    for k, bound in enumerate(bounds):
        pb.tighten(bound)
        for assume in assumptions:
            eng.solve(assumptions=assume)
        if k == 0 and extend:
            post_pb_upper_bound(eng, extend, bounds[0])
    return eng


def test_native_pb_on_random_terms(outcomes):
    # literals drawn with repeats and either sign, so a term repeats and a
    # variable appears both ways; bounds fall to 0 and below
    rng = random.Random(30)
    for _ in range(30):
        n = rng.randint(6, 14)
        clauses = random_3cnf(rng, n, 2 * n)
        terms = [(rng.randint(1, 6), rng.choice((1, -1)) * rng.randint(1, n))
                 for _ in range(rng.randint(2, 12))]
        total = sum(w for w, _ in terms)
        bounds = sorted([rng.randint(-2, total + 1) for _ in range(4)]
                        + [0, -3], reverse=True)
        assumptions = [[], [rng.choice((1, -1)) * rng.randint(1, n)
                             for _ in range(rng.randint(1, 3))]]
        more = [(rng.randint(1, 6), rng.choice((1, -1)) * rng.randint(1, n))
                for _ in range(4)]

        def run(kernel):
            del outcomes[:]
            _pb_solves(kernel, n, clauses, terms, bounds, assumptions, more)
            return list(outcomes)

        same_on_every_kernel(run)
    assert any(o[-1] for o in outcomes), "no PB explanation was exercised"


def test_native_pb_over_order_literals(outcomes):
    # enqueues of order literals move x.cur, which HalfReifiedLinear reads
    def run(kernel):
        del outcomes[:]
        mdl = CpModel(kernel=kernel)
        xs = [mdl.new_int_var(0, 4) for _ in range(3)]
        for x in xs:
            mdl.materialize(x)
        terms = [(w, mdl.lit_geq(x, v)) for w, (x, v) in zip(
            (3, 1, 2, 2, 1, 4), itertools.product(xs[:2], (1, 3, 4)))]
        pb = post_pb_upper_bound(mdl.eng, terms, 6)
        lin = mdl.new_bool_var()
        mdl.post_half_reified_linear(lin, [(1, xs[0]), (1, xs[1]),
                                           (-1, xs[2])], 3)
        for bound in (6, 4, 2):
            pb.tighten(bound)
            mdl.eng.solve()
            mdl.eng.solve(assumptions=[lin])
            mdl.eng.solve(assumptions=[lin, mdl.lit_geq(xs[2], 2)])
        return list(outcomes), [x.cur for x in xs]

    same_on_every_kernel(run)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_native_pb_in_the_drivers(outcomes, sample7, algo):
    # wpm1's at-most-one and the drivers' cost bounds
    def run(kernel):
        del outcomes[:]
        res = solve(sample7, algorithm=algo, kernel=kernel)
        return (res.status, res.z_opt, res.cores, res.model, list(outcomes))

    same_on_every_kernel(run)


def test_pb_weights_and_bounds_beyond_int64(outcomes):
    # weights summing above 2**63 run the Python method on the compiled
    # kernel; a bound above 2**63 over a smaller sum runs natively
    big = 2 ** 62
    cases = [([(big, 1), (big, -2), (big, 3), (1, 4)], [3 * big, 2 * big, 1]),
             ([(big, 1), (3, 2), (5, -3)], [2 ** 64, big + 4, -2 ** 64]),
             ([(1, 1), (2, 2), (2, -3)], [2 ** 70, 3, 2, -2 ** 70])]
    clauses = [(1, 2, 3), (-1, 4), (2, -4)]
    for terms, bounds in cases:
        def run(kernel):
            del outcomes[:]
            _pb_solves(kernel, 4, clauses, terms, bounds, [[], [1], [2, 3]])
            return list(outcomes)

        same_on_every_kernel(run)


def _pb_calls(kernel, terms=((2, 1), (3, 2), (4, 3)), cls=PbUpperBound):
    """How many times PbUpperBound.propagate ran as Python code, under
    sys.setprofile, over three solves of one PB of class cls."""
    code = PbUpperBound.propagate.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(frame)

    eng = engine_with(kernel, 3, [(1, 2, 3)])
    eng.attach_propagator(cls(list(terms), 4))
    sys.setprofile(profile)
    try:
        for assume in ([], [1], [3]):
            eng.solve(assumptions=assume)
    finally:
        sys.setprofile(None)
    return len(calls)


class _SamePb(PbUpperBound):
    pass


class _OwnPb(PbUpperBound):
    def propagate(self, view):
        return super().propagate(view)


def test_the_compiled_kernel_calls_no_pb_propagate():
    assert _pb_calls("python") > 0
    assert _pb_calls("compiled") == 0
    assert _pb_calls("compiled", cls=_SamePb) == 0
    # an override of its own, and weights that overflow int64, run Python
    assert _pb_calls("compiled", cls=_OwnPb) == _pb_calls("python",
                                                          cls=_OwnPb) > 0
    huge = ((2 ** 63, 1), (1, 2))
    assert _pb_calls("compiled", huge) == _pb_calls("python", huge) > 0


@pytest.mark.parametrize("where", ["class", "instance"])
def test_a_wrapped_pb_propagate_is_called_on_every_kernel(monkeypatch, where):
    """A wrapper on PbUpperBound or on one PB sees the same calls on both
    kernels, also one that functools.wraps names like the method, and each
    solve looks again: the wrapper is gone for the second round of solves,
    which then equal an unwrapped run's."""
    def run(kernel):
        calls = []
        original = PbUpperBound.propagate

        @functools.wraps(original)
        def wrapper(*args):
            calls.append(len(calls))
            return original(*args)

        eng = engine_with(kernel, 8, random_3cnf(random.Random(4), 8, 12))
        pb = post_pb_upper_bound(eng, [(w, l) for w, l in zip(
            (3, 1, 2, 2, 4, 1), (1, -2, 3, 4, -5, 6))], 5)
        if where == "class":
            monkeypatch.setattr(PbUpperBound, "propagate", wrapper)
        else:
            pb.propagate = lambda view: wrapper(pb, view)
        wrapped = [outcome(eng.solve(assumptions=a)) for a in ([], [1, 4])]
        n_wrapped = len(calls)
        monkeypatch.undo()
        if where == "instance":
            del pb.propagate
        pb.tighten(4)
        plain = [outcome(eng.solve(assumptions=a)) for a in ([], [1, 4])]
        assert len(calls) == n_wrapped > 0
        return wrapped, plain, calls

    same_on_every_kernel(run)
