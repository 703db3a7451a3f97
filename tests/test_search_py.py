"""Invariants of the pure kernel's state, checked at every propagator call
of a long search.

The pure kernel hands itself to propagators as the view, so a probe
propagator that never infers anything can read its value table, trail and
lazy activity heap without changing the search.
"""

import random
from collections import Counter

from maxcore.engine import Engine, Propagator, _search_py


def _live(view):
    """The heap's live entries: those that carry their variable's current
    activity."""
    act = view.activity
    return [(neg, v) for neg, v in view.heap if neg == -act[v]]


class _InvariantProbe(Propagator):
    """Runs at every fixpoint and checks, on the kernel it is handed:

    - lit_value(v) == -lit_value(-v) for every variable;
    - the true literals are exactly the trail;
    - the heap of (-activity, var) entries is a heapq heap no longer than
      2 * nvars, no variable has two live entries, queued[v] says whether v
      has one, and every unassigned variable has one;
    - the arena holds no more than the problem clauses and learnt_cap
      learnt clauses: a reduction removes the clauses it drops.

    On every 100th call, and on the first call after each reduction, it
    also checks the arena's watches and units, and the reason of every
    implied literal on the trail, clause or record:

    - every clause of two or more literals appears once in the watch list
      of its slot 0 and once in that of its slot 1, and in no other list;
    - units holds exactly the indices of the one-literal clauses, in order;
    - the implied literal is its reason's first literal, and every other
      literal of the reason is false, at a level no higher than its own.
    """

    def __init__(self, nvars):
        self.nvars = nvars
        self.calls = 0
        self.rescales = 0
        self.var_inc = 0.0
        self.reductions = 0
        self.arena_checks = 0
        self.nclauses = 0

    def propagate(self, view):
        self.calls += 1
        lit_value = view.lit_value
        variables = range(1, self.nvars + 1)
        for v in variables:
            assert lit_value(v) == -lit_value(-v), v
        true = [l for v in variables for l in (v, -v) if lit_value(l) == 1]
        assert sorted(true) == sorted(view.trail)

        heap = view.heap
        for i in range(1, len(heap)):
            assert heap[(i - 1) >> 1] <= heap[i], i
        assert len(heap) <= 2 * self.nvars
        live = [v for _, v in _live(view)]
        assert len(live) == len(set(live))
        assert set(live) == {v for v in variables if view.queued[v]}
        assert {v for v in variables if lit_value(v) == 0} <= set(live)

        assert len(view.clauses) <= view.n_problem + view.learnt_cap
        reduced = len(view.clauses) < self.nclauses
        self.reductions += reduced
        self.nclauses = len(view.clauses)
        if reduced or self.calls % 100 == 0:
            self.arena_checks += 1
            _check_arena(view)
            _check_reasons(view)

        if view.var_inc < self.var_inc:
            self.rescales += 1
        self.var_inc = view.var_inc


def _check_arena(view):
    clauses = view.clauses
    watched = Counter((lit, ci) for lit, wl in view.watches.items()
                      for ci in wl)
    wanted = Counter((lit, ci) for ci, c in enumerate(clauses)
                     if len(c) >= 2 for lit in c[:2])
    assert watched == wanted
    assert view.units == [ci for ci, c in enumerate(clauses) if len(c) == 1]


def _check_reasons(view):
    levels = view.levels
    for lit in view.trail:
        ref = view.reasons[abs(lit)]
        if ref == -1:
            continue
        first, *rest = view._lits(ref)
        assert first == lit, (lit, ref)
        level = levels[abs(lit)]
        for q in rest:
            assert view.lit_value(q) == -1 and levels[abs(q)] <= level, (lit, q)


class _DecisionProbe(Propagator):
    """Runs at every fixpoint and checks that the best live entry of an
    unassigned variable, the one the next decision would take, is the
    unassigned variable of highest activity, lowest id on ties."""

    def __init__(self, nvars):
        self.nvars = nvars
        self.calls = 0

    def propagate(self, view):
        unassigned = [v for v in range(1, self.nvars + 1)
                      if view.lit_value(v) == 0]
        if not unassigned:
            return
        self.calls += 1
        best = min(e for e in _live(view) if view.lit_value(e[1]) == 0)
        act = view.activity
        assert best[1] == max(unassigned, key=lambda v: (act[v], -v))


def _long_search(probe_type):
    # the search of tests/test_kernels.py: 4500 conflicts pass the learnt
    # cap of 4000, one variable-activity rescale and several restarts
    n = 180
    rng = random.Random(1)
    clauses = [tuple(v if rng.random() < 0.5 else -v
                     for v in rng.sample(range(1, n + 1), 3))
               for _ in range(int(4.26 * n))]
    eng = Engine(kernel="python")
    for _ in range(n):
        eng.new_bool_var()
    for c in clauses:
        eng.add_clause(c)
    probe = eng.attach_propagator(probe_type(n))
    out = eng.solve(conflict_budget=4500)
    assert out.status == "unknown" and out.conflicts == 4500
    assert out.restarts > 0 and len(out.learnts) < 4000
    assert probe.calls > out.conflicts
    return probe


def test_invariants_through_restarts_and_reductions():
    probe = _long_search(_InvariantProbe)
    assert probe.rescales == 1
    assert probe.reductions >= 1
    assert probe.arena_checks > probe.calls // 100


def test_arena_through_frequent_reductions():
    # a learnt cap of 100 forces a reduction every few dozen conflicts, and
    # the learnt unit clauses sit among learnt clauses that reductions drop
    n = 120
    rng = random.Random(5)
    clauses = [[v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, n + 1), 3)]
               for _ in range(int(4.3 * n))]
    probe = _InvariantProbe(n)
    core = _search_py.SearchCore(n, clauses, [probe])
    core.learnt_cap = 100
    out = core.solve([], conflict_budget=3000)
    assert out["status"] == "unsat" and probe.reductions >= 10
    assert probe.arena_checks > probe.reductions
    assert core.units and core.units[0] > core.n_problem


def test_decision_rule_through_restarts_and_reductions():
    _long_search(_DecisionProbe)
