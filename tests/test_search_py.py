"""Invariants of the pure kernel's state, checked at every propagator call
of a long search.

The pure kernel hands itself to propagators as the view, so a probe
propagator that never infers anything can read its value table, trail and
lazy activity heap without changing the search.
"""

import random

from maxcore.engine import Engine, Propagator


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
    """

    def __init__(self, nvars):
        self.nvars = nvars
        self.calls = 0
        self.rescales = 0
        self.var_inc = 0.0

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

        assert len(view.c_off) <= view.n_problem + view.learnt_cap

        if view.var_inc < self.var_inc:
            self.rescales += 1
        self.var_inc = view.var_inc


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
    assert _long_search(_InvariantProbe).rescales == 1


def test_decision_rule_through_restarts_and_reductions():
    _long_search(_DecisionProbe)
