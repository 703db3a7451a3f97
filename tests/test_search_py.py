"""Invariants of the pure kernel's state, checked at every propagator call
of a long search.

The pure kernel hands itself to propagators as the view, so a probe
propagator that never infers anything can read its value table, trail and
activity heap without changing the search.
"""

import random

from maxcore.engine import Engine, Propagator


class _InvariantProbe(Propagator):
    """Runs at every fixpoint and checks, on the kernel it is handed:

    - lit_value(v) == -lit_value(-v) for every variable;
    - the true literals are exactly the trail;
    - the heap is ordered by (activity descending, variable ascending),
      heap_pos inverts it, and every unassigned variable is in it.
    """

    def __init__(self, nvars):
        self.nvars = nvars
        self.calls = 0

    def propagate(self, view):
        self.calls += 1
        lit_value = view.lit_value
        variables = range(1, self.nvars + 1)
        for v in variables:
            assert lit_value(v) == -lit_value(-v), v
        true = [l for v in variables for l in (v, -v) if lit_value(l) == 1]
        assert sorted(true) == sorted(view.trail)

        heap, pos, act = view.heap, view.heap_pos, view.activity
        for i in range(1, len(heap)):
            p, c = heap[(i - 1) >> 1], heap[i]
            assert (-act[p], p) < (-act[c], c), (i, p, c)
        assert all(pos[u] == i for i, u in enumerate(heap))
        in_heap = set(heap)
        for v in variables:
            assert (pos[v] >= 0) == (v in in_heap), v
            assert lit_value(v) != 0 or v in in_heap, v


def test_invariants_through_restarts_and_reductions():
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
    probe = eng.attach_propagator(_InvariantProbe(n))
    out = eng.solve(conflict_budget=4500)
    assert out.status == "unknown" and out.conflicts == 4500
    assert out.restarts > 0 and len(out.learnts) < 4000
    assert probe.calls > out.conflicts
