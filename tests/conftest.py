"""Shared instance builders and kernel helpers for the test suite."""

import pytest

from maxcore.engine import Engine, available_kernels
from maxcore.engine import core as engine_core
from maxcore.maxsat import SoftInstance, WeightedClause

SOLVE_FIELDS = ("status", "model", "core", "conflicts", "decisions",
                "propagations", "restarts", "learnts", "explanations")


def build_sample5():
    """Five unit-weight soft clauses over x1..x3; optimum violates exactly one."""
    clauses = [
        WeightedClause((1,), 1),
        WeightedClause((2,), 1),
        WeightedClause((3,), 1),
        WeightedClause((-1, -2), 1),
        WeightedClause((-1, -3), 1),
    ]
    return SoftInstance(3, clauses)


def build_sample7():
    """Seven unit-weight soft clauses over x1..x4; optimum violates exactly two."""
    clauses = [
        WeightedClause((1,), 1),
        WeightedClause((2,), 1),
        WeightedClause((3,), 1),
        WeightedClause((-1, -2), 1),
        WeightedClause((-1, -3), 1),
        WeightedClause((4,), 1),
        WeightedClause((-3, -4), 1),
    ]
    return SoftInstance(4, clauses)


@pytest.fixture(params=available_kernels())
def kernel(request):
    """Each kernel that imports, one test run per kernel."""
    return request.param


def engine_with(kernel, nvars, clauses, *props):
    """An Engine on kernel with nvars fresh variables, clauses added and
    props attached, in that order."""
    eng = Engine(kernel=kernel)
    for _ in range(nvars):
        eng.new_bool_var()
    for c in clauses:
        eng.add_clause(c)
    for p in props:
        eng.attach_propagator(p)
    return eng


def random_3cnf(rng, n, m):
    """m clauses over 1..n, each of three distinct variables with random
    signs."""
    return [tuple(v if rng.random() < 0.5 else -v
                  for v in rng.sample(range(1, n + 1), 3)) for _ in range(m)]


def count_builds(kernel, monkeypatch, extends=None):
    """Wrap the SearchCore constructor of kernel (a name Engine takes) as
    perfbench does; the list returned grows by the clause count of each
    build.  With extends, every kernel is wrapped too, and extends gets the
    clause list of each extend call."""
    mod = engine_core._kernel_module(kernel)
    builds = []
    build = mod.SearchCore

    def counted(*args):
        builds.append(len(args[1]))
        core = build(*args)
        return core if extends is None else _Extends(core, extends)

    monkeypatch.setattr(mod, "SearchCore", counted)
    return builds


class _Extends:
    def __init__(self, core, log):
        self.core = core
        self.log = log

    def extend(self, nvars, clauses, props, order_literals):
        self.log.append(list(clauses))
        return self.core.extend(nvars, clauses, props, order_literals)

    def solve(self, *args):
        return self.core.solve(*args)


@pytest.fixture
def sample5():
    return build_sample5()


@pytest.fixture
def sample7():
    return build_sample7()


@pytest.fixture
def solves(monkeypatch):
    """Every Engine.solve() outcome in call order: a tuple of SOLVE_FIELDS
    followed by the propagator calls the solve made, each as (index of the
    propagator, number of assigned variables at the call).  It wraps every
    propagator's propagate for the solve, so the compiled kernel calls
    PbUpperBound.propagate in Python too."""
    seen = []
    original = Engine.solve

    def recording(eng, *args, **kwargs):
        calls = []
        for idx, prop in enumerate(eng.propagators):
            prop.propagate = _recorded(prop.propagate, idx, eng.nvars, calls)
        try:
            out = original(eng, *args, **kwargs)
        finally:
            for prop in eng.propagators:
                del prop.propagate
        seen.append(outcome(out) + (tuple(calls),))
        return out

    monkeypatch.setattr(Engine, "solve", recording)
    return seen


@pytest.fixture
def outcomes(monkeypatch):
    """Every Engine.solve() outcome in call order, as a tuple of
    SOLVE_FIELDS.  It wraps no propagator, so the compiled kernel runs
    PbUpperBound natively."""
    seen = []
    original = Engine.solve

    def recording(eng, *args, **kwargs):
        out = original(eng, *args, **kwargs)
        seen.append(outcome(out))
        return out

    monkeypatch.setattr(Engine, "solve", recording)
    return seen


def outcome(out):
    """A SolveOutcome as the tuple of its SOLVE_FIELDS."""
    return tuple(getattr(out, f) for f in SOLVE_FIELDS)


def _recorded(propagate, idx, nvars, calls):
    def recorded(view):
        assigned = sum(1 for v in range(1, nvars + 1) if view.lit_value(v))
        calls.append((idx, assigned))
        return propagate(view)
    return recorded


def pigeonhole(eng, pigeons):
    """pigeons into pigeons - 1 holes on eng: unsat, and only after many
    conflicts."""
    holes = pigeons - 1
    p = [[eng.new_bool_var() for _ in range(holes)] for _ in range(pigeons)]
    for row in p:
        eng.add_clause(row)
    for h in range(holes):
        for i in range(pigeons):
            for j in range(i + 1, pigeons):
                eng.add_clause((-p[i][h], -p[j][h]))
