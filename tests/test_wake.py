"""Literal watches skip only the propagator calls that would infer nothing.

Each input is solved twice on every kernel: once with the wake_on literals
the propagators declare, and once with wake_on = None on every propagator
class, so that each propagator runs at every fixpoint.  Every Engine.solve()
outcome must be identical, counters, learnt clauses and explanations
included.
"""

import random

import pytest

from maxcore.cp import (
    CpModel,
    Cumulative,
    HalfReifiedLinear,
    PbUpperBound,
    post_pb_upper_bound,
)
from maxcore.engine import Engine, Propagator
from maxcore.engine._search_py import explanations
from maxcore.engine.core import _kernel_module
from maxcore.maxsat import ALGORITHMS, solve
from maxcore.rcpsp import generate_micro_set, soften, solve_schedule

PROPAGATOR_CLASSES = (PbUpperBound, HalfReifiedLinear, Cumulative)


@pytest.fixture
def check_watches(monkeypatch, solves):
    """check_watches(run): run() as declared and with every propagator
    woken at every fixpoint; asserts that the outcomes agree and returns the
    number of propagator calls of each run."""

    def check(run):
        del solves[:]
        run()
        declared = list(solves)
        del solves[:]
        with monkeypatch.context() as m:
            for cls in PROPAGATOR_CLASSES:
                m.setattr(cls, "wake_on", None)
            run()
        every = list(solves)
        assert [o[:-1] for o in declared] == [o[:-1] for o in every]
        return (sum(len(o[-1]) for o in declared),
                sum(len(o[-1]) for o in every))

    return check


def signed(rng, v):
    return v if rng.random() < 0.5 else -v


def test_random_pb_models_tightened(kernel, check_watches):
    rng = random.Random(8)
    for _ in range(8):
        n = rng.randint(10, 24)
        variables = range(1, n + 1)
        clauses = [tuple(signed(rng, v) for v in rng.sample(variables, 3))
                   for _ in range(2 * n)]
        # some variables appear in two terms, possibly in both polarities
        terms = [(rng.randint(1, 6), signed(rng, v))
                 for v in rng.choices(variables, k=n)]
        clauses += [(l,) for _, l in rng.sample(terms, 2)]   # true at root
        bounds = [sum(w for w, _ in terms)]
        while bounds[-1] > 0:
            bounds.append(rng.randint(bounds[-1] // 2, bounds[-1] - 1))
        assumptions = [[signed(rng, v) for v in rng.sample(variables, 3)]
                       for _ in bounds]

        def run():
            mdl = CpModel(kernel=kernel)
            xs = [mdl.new_bool_var() for _ in range(n)]

            def lit(l):
                return xs[l - 1] if l > 0 else -xs[-l - 1]

            for c in clauses:
                mdl.eng.add_clause(tuple(lit(l) for l in c))
            pb = post_pb_upper_bound(
                mdl.eng, [(w, lit(l)) for w, l in terms], bounds[0])
            for bound, assume in zip(bounds, assumptions):
                pb.tighten(bound)
                mdl.eng.solve()
                mdl.eng.solve(assumptions=[lit(l) for l in assume])

        declared, every = check_watches(run)
        assert declared < every


def test_root_forcing_outlives_a_backjump_to_the_root(kernel, check_watches):
    # a is true at the root, so a + b <= 1 forces -b there, before the
    # assumptions level opens; the unit x learnt from deciding -x backjumps
    # to the root, which keeps -b, so the bound infers nothing again
    def run():
        eng = Engine(kernel=kernel)
        a, b, x, y = (eng.new_bool_var() for _ in range(4))
        for c in ((a,), (x, y), (x, -y)):
            eng.add_clause(c)
        post_pb_upper_bound(eng, [(1, a), (1, b)], 2)
        out = eng.solve()
        assert (out.conflicts, out.learnts) == (1, [(x,)])
        assert out.explanations == [(-b, -a)]

    declared, every = check_watches(run)
    assert declared < every


def test_backjump_to_the_root_wakes_nothing(kernel):
    """Deciding -1 makes a conflict whose learnt unit 1 backjumps to the
    root.  The root kept was a fixpoint of every propagator, so a watcher on
    a literal that never becomes true runs once, at the first fixpoint,
    while one woken at every fixpoint runs again."""
    log = _CallLog()
    log.nvars = 3
    core = _kernel_module(kernel).SearchCore(
        3, [(1, 2), (1, -2)],
        [_Watcher("w", [3], log), _Watcher("every", None, log)])
    res = core.solve([], None, None)
    assert res["status"] == "sat" and res["model"][3] == -1
    assert [list(c) for c in res["learnts"]] == [[1]]
    names = [name for name, _ in log]
    assert names.count("w") == 1
    assert names.count("every") > 2


def test_backjump_above_the_root_wakes_nothing(kernel):
    """Every clause holds -a, so under the assumption a every learnt clause
    keeps -a and every backjump stops at level 1 or above.  A watcher on a
    literal that never becomes true then runs once, at the first fixpoint,
    while one woken at every fixpoint runs after each backjump."""
    n = 4                                     # pigeons; n - 1 holes
    def p(i, h):
        return 2 + i * (n - 1) + h
    w = p(n, 0)                               # in no clause, decided false
    clauses = [tuple(p(i, h) for h in range(n - 1)) + (-1,)
               for i in range(n)]
    clauses += [(-p(i, h), -p(j, h), -1) for h in range(n - 1)
                for i in range(n) for j in range(i + 1, n)]
    log = _CallLog()
    log.nvars = w
    core = _kernel_module(kernel).SearchCore(
        w, clauses, [_Watcher("w", [w], log), _Watcher("every", None, log)])
    res = core.solve([1], None, None)
    assert res["status"] == "unsat" and list(res["core"]) == [1]
    assert res["conflicts"] > 1 and res["restarts"] == 0
    assert all(len(c) > 1 and -1 in c for c in res["learnts"])
    names = [name for name, _ in log]
    assert names.count("w") == 1
    assert names.count("every") > res["conflicts"]


def test_half_reified_linear_models(kernel, check_watches):
    rng = random.Random(3)
    for _ in range(10):
        ubs = [rng.randint(4, 8) for _ in range(4)]
        # None materializes the whole ladder, else these bounds only
        ladders = [None if rng.random() < 0.5
                   else rng.sample(range(1, ub + 1), 3) for ub in ubs]
        constraints = [(rng.sample(range(4), 2), rng.choice([1, 2]),
                        rng.choice([-1, -2]), rng.randint(-3, 4))
                       for _ in range(5)]
        assumptions = [(rng.randrange(4), rng.random(), rng.random() < 0.5,
                        rng.randrange(5)) for _ in range(4)]

        def run():
            mdl = CpModel(kernel=kernel)
            xs = [mdl.new_int_var(0, ub) for ub in ubs]
            for x, ladder in zip(xs, ladders):
                if ladder is None:
                    mdl.materialize(x)
                for v in ladder or ():
                    mdl.lit_geq(x, v)
            inds = [mdl.new_bool_var() for _ in constraints]
            for i, ((a, b), ca, cb, rhs) in zip(inds, constraints):
                mdl.post_half_reified_linear(i, [(ca, xs[a]), (cb, xs[b])],
                                             rhs)
            mdl.eng.add_clause((inds[0],))
            mdl.eng.add_clause(tuple(inds[1:3]))
            mdl.eng.add_clause((inds[3], inds[4]))
            mdl.eng.solve()
            for k, frac, neg, j in assumptions:
                x = xs[k]
                lit = mdl.lit_geq(x, x.geq_vals[int(frac * len(x.geq_vals))])
                mdl.eng.solve(assumptions=[-lit if neg else lit, inds[j]])

        declared, every = check_watches(run)
        assert declared < every


def test_cumulative_model(kernel, check_watches):
    tasks = [(3, 2), (2, 1), (4, 1), (2, 2), (1, 1)]

    def run():
        mdl = CpModel(kernel=kernel)
        starts = []
        for _ in tasks:
            s = mdl.new_int_var(0, 7)
            mdl.materialize(s)
            starts.append(s)
        mdl.post_cumulative(
            [(s, dur, dem) for s, (dur, dem) in zip(starts, tasks)], 2)
        i = mdl.new_bool_var()
        mdl.post_half_reified_linear(i, [(1, starts[1]), (-1, starts[0])], 3)
        mdl.eng.solve()
        for v in range(1, 6):
            mdl.eng.solve(assumptions=[i, -mdl.lit_geq(starts[0], v),
                                       mdl.lit_geq(starts[2], 7 - v)])

    declared, every = check_watches(run)
    assert declared < every


@pytest.mark.parametrize("sample", ["sample5", "sample7"])
@pytest.mark.parametrize("algo", ALGORITHMS)
def test_drivers_on_samples(kernel, check_watches, request, sample, algo):
    inst = request.getfixturevalue(sample)
    declared, every = check_watches(
        lambda: solve(inst, algorithm=algo, kernel=kernel))
    assert declared <= every


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_rcpsp_micro_cells(kernel, check_watches, algo):
    problems = [soften(inst, 0.9, mode="weighted", seed=k)
                for k, (_, inst) in enumerate(generate_micro_set(2, seed=7))]

    def run():
        for p in problems:
            solve_schedule(p, algorithm=algo, kernel=kernel)

    declared, every = check_watches(run)
    assert declared < every


class _GrowingAtMostOne(Propagator):
    """At most one of lits is true; lits may grow between solves, which only
    strengthens the constraint.  Logs each call as (name, assigned vars)."""

    def __init__(self, name, lits, log):
        self.name = name
        self.lits = lits
        self.log = log

    @property
    def wake_on(self):
        return list(self.lits)

    def propagate(self, view):
        self.log.append((self.name, _assigned(view, self.log.nvars)))
        true = [l for l in self.lits if view.lit_value(l) > 0]
        if len(true) > 1:
            view.fail(true[:2])
            return
        for l in self.lits:
            if true and view.lit_value(l) == 0:
                if not view.enqueue(-l, true):
                    return


class _Watcher(Propagator):
    """Infers nothing and wakes on whatever wake_on it is given; a wake_on
    that moves between solves shows a stale waker list as an extra call."""

    def __init__(self, name, wake_on, log):
        self.name = name
        self.wake_on = wake_on
        self.log = log

    def propagate(self, view):
        self.log.append((self.name, _assigned(view, self.log.nvars)))


class _CallLog(list):
    nvars = 0


def _assigned(view, nvars):
    return sum(1 for v in range(1, nvars + 1) if view.lit_value(v))


def _grown_and_fresh_runs(kernel, seed):
    """(grown, fresh) results and propagator calls of one random problem,
    built in four steps: 8 variables, then 12, 17 and 23.  Each step
    extends a growing at-most-one, moves a watcher's wake_on and attaches
    one more at-most-one; grown applies the steps to one kernel through
    extend(), fresh builds a kernel from the final problem."""
    rng = random.Random(seed)
    sizes = [8, 12, 17, 23]
    steps = list(zip([0] + sizes, sizes))
    clauses = [[tuple(signed(rng, v) for v in rng.sample(range(1, n + 1), 3))
                for _ in range(3 * (n - m) // 2)] for m, n in steps]
    amo = [[signed(rng, v) for v in rng.sample(range(m + 1, n + 1), 2)]
           for m, n in steps]
    watch = [rng.sample([l for v in range(1, n + 1) for l in (v, -v)], 5)
             for n in sizes]
    assumptions = [[]] + [[signed(rng, v) for v in rng.sample(range(1, 24), 2)]
                          for _ in range(7)]
    search_core = _kernel_module(kernel).SearchCore

    def run(grow):
        log = _CallLog()
        props = [_GrowingAtMostOne("amo", list(amo[0]), log),
                 _Watcher("watch", watch[0], log)]
        core = search_core(sizes[0], clauses[0], props) if grow else None
        for k in range(1, len(sizes)):
            props[0].lits += amo[k]
            props[1].wake_on = watch[k]
            late = [_GrowingAtMostOne("late%d" % k, amo[k] + amo[k - 1][:1],
                                      log)]
            props += late
            if grow:
                core.extend(sizes[k], clauses[k], late)
        if not grow:
            core = search_core(sizes[-1], sum(clauses, []), props)
        log.nvars = sizes[-1]
        results = []
        for assume in assumptions:
            res = core.solve(assume, None, None)
            res["explanations"] = explanations(*res.pop("records"))
            results.append(res)
        return results, list(log)

    return run(True), run(False)


def test_extended_kernel_wakes_like_a_fresh_build(kernel):
    """A kernel grown by several extend() calls, whose propagators' wake_on
    grows or moves between them, makes the same propagator calls and
    returns the same results as one built from the final problem."""
    statuses = set()
    for seed in range(5):
        grown, fresh = _grown_and_fresh_runs(kernel, seed)
        assert grown == fresh
        statuses.update(res["status"] for res in fresh[0])
        names = {name for name, _ in fresh[1]}
        assert {"amo", "watch", "late1", "late2", "late3"} <= names
    assert statuses == {"sat", "unsat"}
