"""Engine-level behavior: clauses, assumptions, cores, retraction, determinism."""

import gc
import hashlib
import itertools
import os
import random
import shutil
import signal
import subprocess
import time
import types
import warnings
import weakref

import pytest

from maxcore.cp import post_pb_upper_bound
from maxcore.engine import core as engine_core
from maxcore.engine import (
    Engine,
    EngineIntegrityError,
    MidSearchMutationError,
    Propagator,
    SolveOutcome,
    available_kernels,
)
from conftest import count_builds, engine_with, outcome, pigeonhole, random_3cnf


def all_models(nvars, clauses):
    """Every full assignment (as a dict) satisfying all clauses."""
    out = []
    for bits in itertools.product([False, True], repeat=nvars):
        model = {v: bits[v - 1] for v in range(1, nvars + 1)}
        if all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses):
            out.append(model)
    return out


def satisfies(model, clauses):
    return all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses)


def test_new_vars_are_fresh(kernel):
    eng = Engine(kernel=kernel)
    a = eng.new_bool_var()
    b = eng.new_bool_var()
    assert a != b
    for _ in range(3):
        eng.new_bool_var()
    assert eng.nvars == 5


def test_unit_contradiction_is_root_conflict(kernel):
    # a conflict of the kernel's root, level 0: unsat with an empty core
    # under any assumptions, and no search conflict.  The engine's
    # root_conflict flags only an empty clause.
    eng = Engine(kernel=kernel)
    x, y = eng.new_bool_var(), eng.new_bool_var()
    eng.add_clause((x,))
    eng.add_clause((-x,))
    assert not eng.root_conflict
    for assume in ([], [y], [-x], [x, -y]):
        out = eng.solve(assumptions=assume)
        assert (out.status, out.core, out.conflicts) == ("unsat", (), 0)


def test_binary_clause_stores_without_fixing(kernel):
    eng = Engine(kernel=kernel)
    x, y = eng.new_bool_var(), eng.new_bool_var()
    eng.add_clause((x, y))
    assert not eng.root_conflict
    for a in (x, y, -x, -y):
        out = eng.solve(assumptions=[a])
        assert out.status == "sat" and out.model[abs(a)] == (a > 0)
    assert eng.solve(assumptions=[-x, -y]).core == (-x, -y)


def test_empty_clause_is_root_conflict(kernel):
    eng = Engine(kernel=kernel)
    eng.new_bool_var()
    eng.add_clause(())
    assert eng.root_conflict


def test_empty_clause_survives_retract_by_ref(kernel):
    # an empty clause is never stored, and no retract lifts its conflict
    eng = Engine(kernel=kernel)
    x, y = eng.new_bool_var(), eng.new_bool_var()
    unit = eng.add_clause((x,))
    assert eng.add_clause(()) is None
    ref = eng.add_clause((x, y))
    last = eng.add_clause((x,))
    assert eng.retract(refs=[unit, ref]) == 2
    assert eng.root_conflict
    with pytest.raises(ValueError):
        eng.retract(refs=[last])
    assert eng.root_conflict
    assert eng.solve().status == "unsat"


def test_tautology_is_dropped(kernel):
    eng = Engine(kernel=kernel)
    x = eng.new_bool_var()
    assert eng.add_clause((x, -x)) is None
    assert eng.solve().status == "sat"


class _IntLike:
    """An integer-like value that is no int, as a numpy integer is."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_a_literal_that_is_not_an_integer_is_refused(kernel):
    # before, add_clause stored (1.5, 2) and every later solve raised
    eng = Engine(kernel=kernel)
    x, y = eng.new_bool_var(), eng.new_bool_var()
    eng.add_clause((x, y))
    stored = list(eng.clauses)
    for bad in [(1.5, y), (y, 2.0), (x, "2"), (x, None)]:
        with pytest.raises(TypeError):
            eng.add_clause(bad)
        assert eng.clauses == stored
    for bad in ([1.0], [x, 2.5]):
        with pytest.raises(TypeError):
            eng.solve(assumptions=bad)
    order = types.SimpleNamespace(lb0=0, ub0=1, cur=None)
    with pytest.raises(TypeError):
        eng.register_order_literal(1.0, order, 1)
    assert eng.order_literals == []
    assert eng.solve(assumptions=[-x]).status == "sat"
    # integer-like literals pass, stored as ints
    eng.add_clause((_IntLike(-x), _IntLike(-y)))
    assert [type(l) for l in eng.clauses[-1].lits] == [int, int]
    eng.register_order_literal(_IntLike(x), order, 1)
    assert type(eng.order_literals[0][0]) is int
    out = eng.solve(assumptions=[_IntLike(x)])
    assert out.status == "sat" and out.model == {x: True, y: False}
    assert order.cur == (1, x, 1, None)
    assert set(eng.solve(assumptions=[x, y]).core) == {x, y}


def test_a_refused_solve_is_not_counted(kernel):
    # before, stats["solves"] counted a solve before checking its assumptions
    eng = Engine(kernel=kernel)
    x = eng.new_bool_var()
    with pytest.raises(ValueError):
        eng.solve([5])
    with pytest.raises(TypeError):
        eng.solve([1.5])
    assert eng.stats["solves"] == 0
    assert eng.solve([x]).status == "sat"
    assert eng.stats["solves"] == 1


def test_assumption_core_two_chains(kernel):
    # {-a, x} and {-b, -x}: assuming both a and b is contradictory.
    eng = Engine(kernel=kernel)
    a, b, x = (eng.new_bool_var() for _ in range(3))
    eng.add_clause((-a, x))
    eng.add_clause((-b, -x))
    out = eng.solve(assumptions=[a, b])
    assert out.status == "unsat"
    assert out.core == (a, b)


def test_assumption_alone_is_satisfiable(kernel):
    eng = Engine(kernel=kernel)
    a = eng.new_bool_var()
    out = eng.solve(assumptions=[a])
    assert out.status == "sat"
    assert out.model[a] is True


def test_hard_sample5_unsat_with_empty_core(sample5, kernel):
    eng = engine_with(kernel, sample5.var_count,
                      [rec.lits for rec in sample5.clauses])
    out = eng.solve()
    assert out.status == "unsat"
    assert out.core == ()


def test_already_false_assumption(kernel):
    eng = Engine(kernel=kernel)
    x = eng.new_bool_var()
    eng.add_clause((-x,))
    out = eng.solve(assumptions=[x])
    assert out.status == "unsat"
    assert out.core == (x,)


def test_retract_reopens_model(kernel):
    # as wpm1 relaxes a soft clause: (-v) under selector a blocks v; a unit
    # (-a) fixes a false, the clause goes, and its relaxed copy (-v r) goes
    # in under a fresh selector b
    eng = Engine(kernel=kernel)
    v, a = eng.new_bool_var(), eng.new_bool_var()
    ref = eng.add_clause((-v, -a))
    assert eng.solve(assumptions=[v, a]).status == "unsat"
    eng.add_clause((-a,))
    assert eng.retract(refs=[ref]) == 1
    r, b = eng.new_bool_var(), eng.new_bool_var()
    eng.add_clause((-v, r, -b))
    out = eng.solve(assumptions=[v, b])
    assert out.status == "sat" and out.model[r]


def test_retract_ignores_unknown_refs(kernel):
    eng = engine_with(kernel, 1, [(1,)])
    assert eng.retract(refs=[999]) == 0
    assert [rec.lits for rec in eng.clauses] == [(1,)]


def test_retract_matches_fresh_build(kernel):
    # each dropped clause holds a literal that a stored unit fixes
    rng = random.Random(4)
    dropped = 0
    for _ in range(25):
        n = rng.randint(2, 6)
        full = [tuple(rng.choice([k, -k])
                      for k in rng.sample(range(1, n + 1), rng.randint(1, min(3, n))))
                for _ in range(rng.randint(2, 8))]
        units = {rng.choice([v, -v])
                 for v in rng.sample(range(1, n + 1), rng.randint(1, 2))}
        drop = {i for i, c in enumerate(full)
                if units & set(c) and rng.random() < 0.7}
        dropped += len(drop)
        eng = engine_with(kernel, n, full + [(l,) for l in units])
        refs = [rec.ref for rec in eng.clauses]
        assert eng.retract(refs=[refs[i] for i in drop]) == len(drop)
        fresh = engine_with(kernel, n, [c for i, c in enumerate(full)
                                        if i not in drop]
                            + [(l,) for l in units])
        assert eng.root_conflict == fresh.root_conflict
        assume = [rng.choice([v, -v]) for v in rng.sample(range(1, n + 1), rng.randint(0, n))]
        o1 = eng.solve(assumptions=assume)
        o2 = fresh.solve(assumptions=assume)
        assert (o1.status, o1.model, o1.core) == (o2.status, o2.model, o2.core)
    assert dropped >= 10


def test_a_level_0_conflict_answers_alike_in_either_clause_order(kernel):
    # level 0 stops at its first conflict, so which literals it fixed on
    # the way depends on the order of the clauses: here 1 and 2, and with
    # (-1 -2) stored before (-1 2) it would be 1 and -2.  The answer does
    # not: unsat with an empty core and no conflict, under any assumptions.
    for clauses in ([(-1, 2), (-1, -2), (1,)], [(-1, -2), (-1, 2), (1,)]):
        eng = engine_with(kernel, 3, clauses)
        assert not eng.root_conflict
        for assume in ([], [2], [-2, 3], [-1]):
            out = eng.solve(assumptions=assume)
            assert (out.status, out.core, out.conflicts,
                    out.decisions) == ("unsat", (), 0, 0)


def test_clauses_after_a_root_conflict_leave_the_root(kernel):
    # the conflict is for good, so a later clause changes no answer;
    # retract still keeps its unit contract over the clauses stored after it
    eng = engine_with(kernel, 3, [(1,), (-1,)])
    unit = eng.add_clause((2,))
    implied = eng.add_clause((2, 3))
    loose = eng.add_clause((-2, 3))
    eng.add_clause((-3,))
    assert (eng.solve(assumptions=[3]).core,
            eng.solve(assumptions=[-2]).core) == ((), ())
    stored = list(eng.clauses)
    with pytest.raises(ValueError):
        eng.retract([loose])
    with pytest.raises(ValueError):
        eng.retract([unit, implied])
    assert eng.clauses == stored
    assert eng.retract([implied]) == 1
    assert [rec.ref for rec in eng.clauses] == [0, 1, unit, loose, loose + 1]
    assert eng.solve().status == "unsat"


def _unit_closure(clauses):
    """Literals unit propagation fixes, or None on a conflict."""
    fixed = set()
    while True:
        grown = False
        for c in clauses:
            if any(l in fixed for l in c):
                continue
            free = [l for l in c if -l not in fixed]
            if not free:
                return None
            if len(free) == 1:
                fixed.add(free[0])
                grown = True
        if not grown:
            return fixed


def _refuted_at_level_0(out):
    """True when a solve answered from a conflict at level 0."""
    return (out.status, out.core, out.conflicts) == ("unsat", (), 0)


def test_root_is_the_unit_propagation_closure(kernel):
    """The kernel closes level 0 before the assumptions: a solve answers
    unsat with an empty core and no conflict exactly when unit propagation
    refutes the stored clauses, and otherwise an assumption -l fails at once
    exactly when unit propagation fixes l.  Learnt units of earlier solves
    can only add to level 0, so the exact checks run on fresh engines."""
    rng = random.Random(12)
    refuted = 0
    for _ in range(60):
        n = rng.randint(3, 8)
        eng = engine_with(kernel, n, [])
        clauses = []
        for _ in range(rng.randint(3, 14)):
            c = tuple(rng.choice([v, -v])
                      for v in rng.sample(range(1, n + 1), rng.randint(1, 3)))
            ref = eng.add_clause(c)
            clauses.append((ref, c))
            if rng.random() < 0.2:
                # a unit fixes a literal, and clauses holding it go
                lit = rng.choice(rng.choice(clauses)[1])
                unit = eng.add_clause((lit,))
                eng.retract(refs=[r for r, d in clauses if lit in d])
                clauses = [(r, d) for r, d in clauses if lit not in d]
                clauses.append((unit, (lit,)))
            fixed = _unit_closure([c for _, c in clauses])
            assume = [rng.choice([v, -v]) for v in range(1, n + 1)
                      if rng.random() < 0.5]
            if fixed is None:
                assert _refuted_at_level_0(eng.solve(assumptions=assume))
            stored = [rec.lits for rec in eng.clauses]
            fresh = engine_with(kernel, n, stored).solve(assumptions=assume)
            assert _refuted_at_level_0(fresh) == (fixed is None)
        refuted += fixed is None
        if fixed is not None:
            for l in (l for v in range(1, n + 1) for l in (v, -v)):
                out = engine_with(kernel, n, stored).solve(assumptions=[-l])
                at_once = (out.status, out.conflicts) == ("unsat", 0)
                assert at_once == (l in fixed), l
    assert refuted >= 10


class _BadPropagator(Propagator):
    """Posts an inference whose stated antecedent is not true."""

    def __init__(self, lit, fake):
        self.lit = lit
        self.fake = fake

    def propagate(self, view):
        if view.lit_value(self.lit) == 0:
            view.enqueue(self.lit, [self.fake])
        return True


def test_untrue_antecedent_raises_integrity_fault(kernel):
    eng = Engine(kernel=kernel)
    x, y = eng.new_bool_var(), eng.new_bool_var()
    eng.attach_propagator(_BadPropagator(x, y))
    with pytest.raises(EngineIntegrityError):
        eng.solve()


class _ReasonEditedInPlace(Propagator):
    """Enqueues twice citing one list, which it edits in between so that it
    cites an unassigned literal."""

    def __init__(self, x, y, z, w):
        self.x, self.y, self.z, self.w = x, y, z, w

    def propagate(self, view):
        if view.lit_value(self.x) == 1 and view.lit_value(self.y) == 0:
            reason = [self.x]
            view.enqueue(self.y, reason)
            reason[0] = self.z
            view.enqueue(self.w, reason)


def test_reason_edited_in_place_raises_integrity_fault(kernel):
    eng = Engine(kernel=kernel)
    x, y, z, w = (eng.new_bool_var() for _ in range(4))
    eng.attach_propagator(_ReasonEditedInPlace(x, y, z, w))
    with pytest.raises(EngineIntegrityError):
        eng.solve(assumptions=[x])


class _StaleReason(Propagator):
    """-x -> y, citing a list it keeps; once y is false it cites that list
    again, although the backjump that made y false unassigned x."""

    def __init__(self, x, y, w):
        self.y, self.w = y, w
        self.reason = [-x]

    def propagate(self, view):
        if view.lit_value(self.reason[0]) == 1 and view.lit_value(self.y) == 0:
            view.enqueue(self.y, self.reason)
        elif view.lit_value(self.y) == -1:
            view.enqueue(self.w, self.reason)


def test_reason_is_checked_again_after_backjump(kernel):
    eng = Engine(kernel=kernel)
    x, y, z, w = (eng.new_bool_var() for _ in range(4))
    # the decision -x implies y, and y conflicts: the learnt unit -y
    # backjumps to the root, where x is unassigned
    eng.add_clause((-y, z))
    eng.add_clause((-y, -z))
    eng.attach_propagator(_StaleReason(x, y, w))
    with pytest.raises(EngineIntegrityError, match="antecedent %d " % -x):
        eng.solve()


class _LateNogood(Propagator):
    """Once y is set, fails citing only -x, which was true a level earlier."""

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def propagate(self, view):
        if view.lit_value(self.y) != 0 and view.lit_value(self.x) == -1:
            view.fail([-self.x])


def test_conflict_below_conflict_level_raises_integrity_fault(kernel):
    eng = Engine(kernel=kernel)
    x, y = eng.new_bool_var(), eng.new_bool_var()
    eng.attach_propagator(_LateNogood(x, y))
    with pytest.raises(EngineIntegrityError):
        eng.solve()


def test_mutation_during_search_rejected(kernel):
    eng = Engine(kernel=kernel)
    x = eng.new_bool_var()

    class Mutator(Propagator):
        def propagate(self, view):
            with pytest.raises(MidSearchMutationError):
                eng.add_clause((x,))
            return True

    eng.attach_propagator(Mutator())
    eng.solve()


def test_nested_solve_rejected_and_guard_kept(kernel):
    eng = Engine(kernel=kernel)
    x = eng.new_bool_var()
    calls = []

    class Nester(Propagator):
        def propagate(self, view):
            # only the first call nests, so an accepted nested solve
            # cannot recurse
            if calls:
                return
            calls.append(1)
            with pytest.raises(MidSearchMutationError):
                eng.solve()
            # the refused solve leaves the outer search guarded
            with pytest.raises(MidSearchMutationError):
                eng.add_clause((x,))

    eng.attach_propagator(Nester())
    assert eng.solve().status == "sat"
    assert len(calls) == 1 and eng.stats["solves"] == 1
    assert eng.add_clause((x,)) is not None


def test_out_of_range_literal_raises_lookup_error(kernel):
    n = 3
    eng = engine_with(kernel, n, [])
    calls = []

    class Reader(Propagator):
        def propagate(self, view):
            calls.append(1)
            assert view.lit_value(n) in (-1, 0, 1)
            assert view.lit_value(-n) == -view.lit_value(n)
            for lit in (n + 1, -(n + 1), 2 * n, -2 * n):
                with pytest.raises(LookupError):
                    view.lit_value(lit)

    eng.attach_propagator(Reader())
    assert eng.solve().status == "sat"
    assert calls


def random_cnf(rng, max_vars=12):
    n = rng.randint(2, max_vars)
    m = rng.randint(1, 3 * n)
    clauses = []
    for _ in range(m):
        k = rng.randint(1, min(3, n))
        vs = rng.sample(range(1, n + 1), k)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return n, clauses


def test_random_soundness(kernel):
    """Models satisfy clauses; cores are unsatisfiable subsets; the learnt
    clauses of a sat answer are implied by the clauses."""
    rng = random.Random(11)
    for _ in range(60):
        n, clauses = random_cnf(rng, max_vars=9)
        assume = [rng.choice([v, -v]) for v in rng.sample(range(1, n + 1), rng.randint(0, min(3, n)))]
        eng = engine_with(kernel, n, clauses)
        if eng.root_conflict:
            continue
        out = eng.solve(assumptions=assume)
        models = all_models(n, clauses)
        sat_under = [m for m in models if all(m[abs(a)] == (a > 0) for a in assume)]
        if out.status == "sat":
            assert sat_under, "engine found a model where none exists"
            assert satisfies(out.model, clauses)
            assert all(out.model[abs(a)] == (a > 0) for a in assume)
            for learnt in out.learnts:
                assert all(any(m[abs(l)] == (l > 0) for l in learnt) for m in models)
        else:
            assert not sat_under, "engine reported unsat but a model exists"
            assert set(out.core) <= set(assume)
            blocked = [m for m in models if all(m[abs(a)] == (a > 0) for a in out.core)]
            assert not blocked, "core does not actually block all models"


def test_deterministic_reruns(kernel):
    rng = random.Random(5)
    n, clauses = random_cnf(rng)
    runs = []
    for _ in range(2):
        out = engine_with(kernel, n, clauses).solve()
        runs.append((out.status, out.model, out.core, out.conflicts,
                     out.decisions, out.propagations, out.restarts))
    assert runs[0] == runs[1]


def test_conflict_budget_yields_unknown(kernel):
    rng = random.Random(7)
    # A contradiction needing more than zero conflicts to refute.
    n = 12
    eng = engine_with(kernel, n, random_3cnf(rng, n, 60))
    out = eng.solve(conflict_budget=1)
    assert out.status in ("unknown", "sat", "unsat")

    def contradiction():
        eng2 = Engine(kernel=kernel)
        x, y = eng2.new_bool_var(), eng2.new_bool_var()
        for c in ((x, y), (x, -y), (-x, y), (-x, -y)):
            eng2.add_clause(c)
        return eng2

    assert contradiction().solve(conflict_budget=0).status == "unknown"
    assert contradiction().solve(conflict_budget=1).status == "unknown"
    # a real-valued budget is not truncated: 1.5 lets the search go on
    # after its first conflict, whose learnt unit then refutes level 0
    out = contradiction().solve(conflict_budget=1.5)
    assert (out.status, out.conflicts) == ("unsat", 1)


# ----------------------------------------------------------------------
# reason records, with learnt clauses and cores computed by hand.  With no
# assumptions level 1 is empty, and decisions take the lowest free variable
# with its saved phase, false at first: -1 at level 2, -2 at level 3.

class _Rule(Propagator):
    """Calls act(view) at each call that finds every literal of when true."""

    def __init__(self, when, act):
        self.when = when
        self.act = act

    def propagate(self, view):
        if all(view.lit_value(l) == 1 for l in self.when):
            self.act(view)


def test_record_conflict_from_enqueue_keeps_its_literal(kernel):
    # -1 forces -3 at level 2; at level 3 the rule enqueues 3 from
    # (-1, -2), a conflict (3 1 2) with 2 alone at level 3: learnt (2 3 1)
    eng = engine_with(kernel, 3, [(1, -3)],
                      _Rule([-1, -2], lambda v: v.enqueue(3, [-1, -2])))
    out = eng.solve()
    assert (out.status, out.conflicts) == ("sat", 1)
    assert out.explanations == [(3, 1, 2)]
    assert out.learnts == [(2, 3, 1)]


def test_record_conflict_from_fail(kernel):
    # fail(-1, -2) at level 3: the conflict (1 2), learnt (2 1)
    eng = engine_with(kernel, 3, [],
                      _Rule([-1, -2], lambda v: v.fail([-1, -2])))
    out = eng.solve()
    assert (out.status, out.conflicts) == ("sat", 1)
    assert out.explanations == [(1, 2)]
    assert out.learnts == [(2, 1)]


def test_record_fail_with_empty_reason_at_assumption_level(kernel):
    eng = engine_with(kernel, 2, [], _Rule([1], lambda v: v.fail([])))
    out = eng.solve(assumptions=[1, 2])
    assert (out.status, out.core) == ("unsat", ())
    assert out.explanations == [()]


def test_record_fail_at_assumption_level_gives_core(kernel):
    # 1 forces 3 by a clause; fail(3, 2) rests on the assumptions 1 and 2
    eng = engine_with(kernel, 4, [(-1, 3)],
                      _Rule([3, 2], lambda v: v.fail([3, 2])))
    out = eng.solve(assumptions=[4, 2, 1])
    assert (out.status, out.core) == ("unsat", (1, 2))
    assert out.explanations == [(-3, -2)]


def test_record_as_reason_in_analysis(kernel):
    # at level 3 the rule enqueues 3 from (-2, -1), and 3 with -2 forces
    # both 4 and -4; resolving through the record brings in 1 from level
    # 2: learnt (2 1)
    eng = engine_with(kernel, 4, [(-3, 2, 4), (-3, 2, -4)],
                      _Rule([-2], lambda v: v.enqueue(3, [-2, -1])))
    out = eng.solve()
    assert (out.status, out.conflicts) == ("sat", 1)
    assert out.explanations == [(3, 2, 1)]
    assert out.learnts == [(2, 1)]


def test_record_as_reason_in_final_core(kernel):
    # the rule enqueues 3 from 1; 3 and 2 force both 4 and -4 at the
    # assumption level, so the core goes through the record to 1
    eng = engine_with(kernel, 5, [(-3, -2, 4), (-3, -2, -4)],
                      _Rule([1], lambda v: v.enqueue(3, [1])))
    out = eng.solve(assumptions=[5, 2, 1])
    assert (out.status, out.core) == ("unsat", (1, 2))
    assert out.explanations == [(3, -1)]


def test_record_conflict_from_enqueue_at_assumption_level(kernel):
    # 2 forces -3 by a clause, then the rule enqueues 3 from 1: the
    # conflict (3 -1) rests on 1 and, through its literal 3, on 2
    eng = engine_with(kernel, 4, [(-3, -2)],
                      _Rule([1], lambda v: v.enqueue(3, [1])))
    out = eng.solve(assumptions=[4, 2, 1])
    assert (out.status, out.core) == ("unsat", (1, 2))
    assert out.explanations == [(3, -1)]


# ----------------------------------------------------------------------
# SolveOutcome.explanations, built when read

class _EditsReasonAfterEnqueue(Propagator):
    def propagate(self, view):
        if view.lit_value(1) == 1 and view.lit_value(2) == 0:
            reason = [1]
            view.enqueue(2, reason)
            reason[0] = 3
            reason.append(4)


def test_reason_edited_after_enqueue_keeps_the_recorded_explanation(kernel):
    eng = engine_with(kernel, 4, [], _EditsReasonAfterEnqueue())
    out = eng.solve(assumptions=[1])
    assert out.status == "sat"
    assert out.explanations == [(2, -1)]


def test_later_solve_leaves_earlier_explanations(kernel):
    eng = engine_with(kernel, 3, [],
                      _Rule([1], lambda v: v.enqueue(2, [1])),
                      _Rule([-1], lambda v: v.enqueue(3, [-1])))
    first = eng.solve(assumptions=[1])
    second = eng.solve(assumptions=[-1])
    # read only after the second solve
    assert first.explanations == [(2, -1)]
    assert second.explanations == [(3, 1)]
    assert first.explanations is first.explanations


def test_outcome_repr_and_equality(kernel):
    def run():
        eng = engine_with(kernel, 2, [],
                          _Rule([1], lambda v: v.enqueue(2, [1])))
        return eng.solve(assumptions=[1])

    out = run()
    assert out == run()
    assert out != engine_with(kernel, 2, []).solve(assumptions=[1])
    text = repr(out)
    assert text.startswith("SolveOutcome(status='sat'")
    assert "records" not in text and "explanations" not in text
    assert SolveOutcome(status="unsat").explanations == []


def test_outcome_keeps_no_kernel_alive(monkeypatch):
    # the pure kernel: the arena holds only problem and learnt clauses, and
    # the outcome's records do not keep the kernel alive once the engine,
    # which holds it for the next solve, is gone
    from maxcore.engine import _search_py
    cores, arenas = [], []

    class Recorded(_search_py.SearchCore):
        def solve(self, *args):
            res = super().solve(*args)
            cores.append(weakref.ref(self))
            arenas.append((len(self.clauses), self.n_problem))
            return res

    monkeypatch.setattr(_search_py, "SearchCore", Recorded)
    eng = engine_with("python", 3, [(1, -3)],
                      _Rule([-1, -2], lambda v: v.enqueue(3, [-1, -2])))
    out = eng.solve()
    del eng
    gc.collect()
    assert [ref() for ref in cores] == [None]
    assert arenas == [(1 + len(out.learnts), 1)]
    assert out.explanations == [(3, 1, 2)]


class _NeighbourReasons(Propagator):
    """Enqueues 3, 4, 5, 6 from reasons that equal, extend or differ from
    the one before."""

    def propagate(self, view):
        if view.lit_value(1) == 1 and view.lit_value(2) == 1:
            for lit, reason in ((3, [1]), (4, [2]), (5, [2, 1]), (6, [2, 1])):
                view.enqueue(lit, reason)


def test_records_with_equal_and_different_neighbour_reasons(kernel):
    out = engine_with(kernel, 6, [], _NeighbourReasons()).solve(
        assumptions=[1, 2])
    assert out.explanations == [(3, -1), (4, -2), (5, -2, -1), (6, -2, -1)]


def test_records_count_without_building_and_keep_no_kernel_alive(kernel):
    # records is (heads, negs), one implied literal per record, so the
    # record count needs no explanation tuple; the pair holds nothing of
    # the kernel, whose propagators die with the engine
    prop = _NeighbourReasons()
    alive = weakref.ref(prop)
    eng = engine_with(kernel, 6, [], prop,
                      _Rule([5, 6], lambda v: v.fail([5, 6])))
    out = eng.solve(assumptions=[1, 2])
    del eng, prop
    gc.collect()
    assert alive() is None
    heads, negs = out.records
    assert len(heads) == len(negs) == len(out.explanations) == 5
    assert list(heads) == [3, 4, 5, 6, 0]
    assert [tuple(neg) for neg in negs] == [
        (-1,), (-2,), (-2, -1), (-2, -1), (-5, -6)]
    assert out.explanations == [
        (3, -1), (4, -2), (5, -2, -1), (6, -2, -1), (-5, -6)]
    assert SolveOutcome(status="unsat").records == ((), ())


# ----------------------------------------------------------------------
# one live kernel per engine, solved again and again


def test_engine_builds_one_kernel_until_retract(kernel, monkeypatch):
    # a retract keeps the kernel too, so the engine builds one kernel
    builds = count_builds(kernel, monkeypatch)
    eng = engine_with(kernel, 3, [(1, 2), (-1, 3)])
    eng.solve()
    eng.solve(assumptions=[-2])
    x = eng.new_bool_var()
    ref = eng.add_clause((-3, x))
    eng.attach_propagator(_Rule([x], lambda v: v.enqueue(-2, [x])))
    out = eng.solve(assumptions=[1])
    assert out.model == {1: True, 2: False, 3: True, 4: True}
    assert builds == [2]
    assert eng.retract(refs=[999]) == 0
    eng.solve()
    assert builds == [2]
    eng.add_clause((-1,))
    assert eng.retract(refs=[1]) == 1
    assert eng.solve(assumptions=[2]).model[1] is False
    eng.add_clause((x,))
    assert eng.retract(refs=[ref]) == 1
    # at level 0, x wakes the propagator, whose -2 with -1 refutes (1 2)
    assert eng.solve(assumptions=[2]).core == ()
    assert builds == [2]


def test_second_solve_keeps_learnt_clauses(kernel):
    n = 60
    eng = engine_with(kernel, n,
                      random_3cnf(random.Random(2), n, int(4.1 * n)))
    first = eng.solve()
    again = eng.solve()
    assert first.status == again.status == "sat"
    assert first.conflicts > 50 and again.conflicts < first.conflicts // 10
    # learnts lists only the clauses a solve learnt itself
    assert len(again.learnts) <= again.conflicts


def test_learnt_unit_holds_at_the_root_of_the_next_solve(kernel):
    # the first solve learns a unit after one conflict, and level 0 then
    # refutes it with no second one; the next solve assigns that unit at
    # level 0 and refutes it there, with no conflict at all
    eng = engine_with(kernel, 2, [(1, 2), (1, -2), (-1, 2), (-1, -2)])
    first = eng.solve()
    again = eng.solve()
    assert (first.status, first.conflicts) == ("unsat", 1)
    assert len(first.learnts) == 1 and len(first.learnts[0]) == 1
    assert (again.status, again.conflicts, again.learnts) == ("unsat", 0, [])


def test_level_0_keeps_its_consequences_after_a_learnt_unit(kernel):
    # (u) implies x at level 0.  Deciding -a meets (a b) and (a -b), and
    # the learnt unit a backjumps to the root, which keeps x: the solve
    # decides -a and then b, never x
    u, x, a, b = 1, 2, 3, 4
    eng = engine_with(kernel, 4, [(u,), (-u, x), (a, b), (a, -b)])
    out = eng.solve()
    assert out.status == "sat" and out.learnts == [(a,)]
    assert (out.conflicts, out.decisions) == (1, 2)
    assert out.model == {u: True, x: True, a: True, b: False}


def test_a_propagator_that_refutes_the_root_gives_an_empty_core(kernel):
    # the propagator fails whenever the unit u is true, so level 0 is
    # refuted before any assumption is made, whatever the assumptions
    u, y = 1, 2
    rule = _Rule([u], lambda v: v.fail([u]))
    eng = engine_with(kernel, 2, [(u,)], rule)
    for assume in ([], [y], [-y], [-u], [y, -u]):
        out = eng.solve(assumptions=assume)
        assert (out.status, out.core, out.conflicts) == ("unsat", (), 0)
        assert out.explanations == [(-u,)]
    assert not eng.root_conflict


def test_reductions_across_solves_keep_the_search(kernel):
    # the CNF of tests/test_kernels.py, with an implication whose records
    # can be trail reasons at a reduction, and after each solve a unit
    # clause on a new variable, which extend() puts after the learnt
    # clauses.  Each 4500-conflict solve passes the learnt cap of 4000, so
    # a reduction compacts the arena and moves the kept learnt clauses of
    # earlier solves and the units after them; a clause, reason, unit or
    # first_learnt moved wrongly would change the pinned outcomes
    n = 180
    eng = engine_with(kernel, n,
                      random_3cnf(random.Random(1), n, int(4.26 * n)),
                      _Rule([1], lambda v: v.enqueue(-2, [1])))
    got = []
    for _ in range(3):
        out = eng.solve(conflict_budget=4500)
        got.append((out.status, out.conflicts, out.decisions,
                    out.propagations, out.restarts, len(out.learnts),
                    hashlib.sha256(repr(out.learnts).encode()).hexdigest(),
                    out.explanations))
        eng.add_clause((eng.new_bool_var(),))
    assert got == [
        ("unknown", 4500, 5367, 199343, 7, 2505,
         "e201fe4aa0d2bb1ddf0f5e0b2db5cd5dc8c38160103ab9aed0d38e0620db2649",
         [(-2, -1), (-2, -1)]),
        ("unknown", 4500, 5283, 206203, 7, 2803,
         "4403aa2dfe4dc397f865ccc0f897d6ea1b5d486fd8beaea2e78bf43df8240ccc",
         [(-2, -1), (-2, -1), (-2, -1)]),
        ("unknown", 4500, 5246, 205924, 7, 3193,
         "a210c708ccd3119f8f5db78d54c75a3f58616043d1d1447cfa8ac9e89a45b70e",
         [(-2, -1), (-2, -1)]),
    ]


def test_time_budget_is_checked_at_every_conflict(kernel):
    # a budget of 0 s has run out by the first conflict, the first point
    # where a solve reads the clock
    n = 180
    eng = engine_with(kernel, n,
                      random_3cnf(random.Random(1), n, int(4.26 * n)))
    out = eng.solve(time_budget_s=0)
    assert (out.status, out.conflicts) == ("unknown", 1)


def _pb_holds(model, terms, bound):
    # PbUpperBound treats a bound of 0 as 1
    return sum(w for w, l in terms if model[abs(l)] == (l > 0)) < max(bound, 1)


def test_incremental_solving_is_sound(kernel):
    """One engine gains variables, clauses and a PB bound that tightens,
    loses clauses by retracts (a unit first fixes a literal of each), and
    solves under random assumptions between the steps.  Each solve agrees
    on its status with a fresh engine built from the same store; its model,
    its core and its learnt clauses are checked by brute force."""
    rng = random.Random(17)
    statuses = []
    kept = 0
    for _ in range(30):
        eng = engine_with(kernel, 4, [])
        pb = None
        for _ in range(25):
            n = eng.nvars
            step = rng.random()
            if step < 0.15 and n < 10:
                eng.new_bool_var()
            elif step < 0.62:
                k = rng.choice((1, 2, 2, 3, 3, 3, 3))
                eng.add_clause(tuple(rng.choice([v, -v])
                                     for v in rng.sample(range(1, n + 1), k)))
            elif step < 0.7 and eng.clauses:
                # a selector switched off for good, as wpm1 does
                lit = rng.choice(rng.choice(eng.clauses).lits)
                unit = eng.add_clause((lit,))
                drop = [rec.ref for rec in eng.clauses
                        if lit in rec.lits and rec.ref != unit
                        and rng.random() < 0.7]
                live = eng._kernel
                eng.retract(refs=drop)
                assert eng._kernel is live
                kept += live is not None
            elif pb is None:
                terms = [(rng.randint(1, 3), rng.choice([v, -v]))
                         for v in rng.sample(range(1, n + 1), rng.randint(2, n))]
                pb = post_pb_upper_bound(eng, terms, sum(w for w, _ in terms))
            elif pb.bound > 1:
                pb.tighten(rng.randint(1, pb.bound - 1))
            assume = [rng.choice([v, -v])
                      for v in rng.sample(range(1, n + 1), rng.randint(0, 3))]
            out = eng.solve(assumptions=assume)
            statuses.append((out.status, out.conflicts > 0))

            clauses = [rec.lits for rec in eng.clauses]
            fresh = engine_with(kernel, eng.nvars, clauses)
            models = all_models(eng.nvars, clauses)
            if pb is not None:
                post_pb_upper_bound(fresh, pb.terms, pb.bound)
                models = [m for m in models if _pb_holds(m, pb.terms, pb.bound)]
            assert out.status == fresh.solve(assumptions=assume).status
            if out.status == "sat":
                assert out.model in models
                assert all(out.model[abs(a)] == (a > 0) for a in assume)
            else:
                assert set(out.core) <= set(assume)
                assert not [m for m in models
                            if all(m[abs(a)] == (a > 0) for a in out.core)]
            for learnt in out.learnts:
                assert all(any(m[abs(l)] == (l > 0) for l in learnt)
                           for m in models)
            if eng.root_conflict:
                break
    for seen in (("sat", True), ("unsat", True), ("unsat", False)):
        assert seen in statuses
    assert kept >= 5


def test_solve_retract_solve_matches_fresh_build(kernel):
    """Between two solves, units fix a few literals and the clauses holding
    them go.  The second solve, on the kept kernel, agrees on its status
    with a fresh engine built from the store, and its model satisfies the
    store, or the fresh engine refutes its core."""
    rng = random.Random(29)
    compared = 0
    for _ in range(20):
        n = rng.randint(20, 40)
        clauses = random_3cnf(rng, n, int(4.2 * n))
        eng = engine_with(kernel, n, [])
        refs = [eng.add_clause(c) for c in clauses]
        first = eng.solve(assumptions=[rng.choice([v, -v])
                                       for v in rng.sample(range(1, n + 1), 2)])
        units = {rng.choice([v, -v])
                 for v in rng.sample(range(1, n + 1), rng.randint(1, 3))}
        for l in units:
            eng.add_clause((l,))
        drop = {i for i, c in enumerate(clauses) if units & set(c)}
        assert eng.retract(refs=[refs[i] for i in drop]) == len(drop)
        store = [c for i, c in enumerate(clauses) if i not in drop]
        store += [(l,) for l in units]
        fresh = engine_with(kernel, n, store)
        assume = [rng.choice([v, -v])
                  for v in rng.sample(range(1, n + 1), rng.randint(0, 3))]
        out = eng.solve(assumptions=assume)
        assert out.status == fresh.solve(assumptions=assume).status
        if out.status == "sat":
            assert satisfies(out.model, store + [(a,) for a in assume])
        else:
            assert set(out.core) <= set(assume)
            assert fresh.solve(assumptions=list(out.core)).status == "unsat"
        compared += first.conflicts > 0 and out.conflicts > 0
    assert compared >= 10


class _MisbehavesOnce(Propagator):
    """1 -> 2, except that call number `at` misbehaves: it raises exc, or
    with exc None enqueues 2 citing a literal that is not true."""

    def __init__(self, at, exc):
        self.at = at
        self.exc = exc
        self.calls = 0

    def propagate(self, view):
        self.calls += 1
        if self.calls == self.at:
            if self.exc is not None:
                raise self.exc
            view.enqueue(2, [3, -3])
        if view.lit_value(1) == 1:
            view.enqueue(2, [1])


@pytest.mark.parametrize("exc", [None, KeyboardInterrupt, RuntimeError],
                         ids=["integrity", "interrupt", "other"])
def test_solve_after_a_raise_rebuilds_the_kernel(kernel, exc):
    # the raise comes after some 30 conflicts, so a kernel kept from that
    # solve would hold learnt clauses and bumped activities
    n = 80
    clauses = random_3cnf(random.Random(31), n, int(4.2 * n))
    eng = engine_with(kernel, n, clauses)
    prop = eng.attach_propagator(_MisbehavesOnce(40, exc))
    with pytest.raises(EngineIntegrityError if exc is None else exc):
        eng.solve(assumptions=[1])
    assert prop.calls == 40
    fresh = engine_with(kernel, n, clauses)
    fresh.attach_propagator(_MisbehavesOnce(0, exc))
    for assume in ([1], [-1, 3], []):
        out = eng.solve(assumptions=assume)
        ref = fresh.solve(assumptions=assume)
        assert out == ref and out.explanations == ref.explanations


class _Alarm(Exception):
    pass


@pytest.mark.skipif(not hasattr(signal, "setitimer"),
                    reason="no interval timers on this platform")
def test_a_raising_signal_handler_ends_a_compiled_search(compiled_kernel):
    """A search that calls no Python code can run a signal handler only
    where the kernel checks for signals, at each conflict.  The handler
    fires after 0.01 s of CPU time (SIGVTALRM; the time limit of the tests
    uses SIGALRM) and raises: the solve raises well before the CPU time the
    same search takes to its conflict budget, and the next solve rebuilds
    the kernel and runs that search."""
    budget = 20000
    reference = Engine(kernel="compiled")
    pigeonhole(reference, 9)
    start = time.process_time()
    full = reference.solve(conflict_budget=budget)
    full_s = time.process_time() - start
    assert (full.status, full.conflicts) == ("unknown", budget)

    def expire(signum, frame):
        raise _Alarm

    eng = Engine(kernel="compiled")
    pigeonhole(eng, 9)
    previous = signal.signal(signal.SIGVTALRM, expire)
    try:
        start = time.process_time()
        signal.setitimer(signal.ITIMER_VIRTUAL, 0.01)
        with pytest.raises(_Alarm):
            eng.solve(conflict_budget=budget)
        stopped_s = time.process_time() - start
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, previous)
    assert stopped_s < full_s / 4, (stopped_s, full_s)
    again = eng.solve(conflict_budget=budget)
    assert outcome(again) == outcome(full)


# ----------------------------------------------------------------------
# a retract keeps the kernel when a stored unit subsumes every dropped clause


def test_unit_subsumed_retract_keeps_the_kernel(kernel, monkeypatch):
    builds = count_builds(kernel, monkeypatch)
    n = 60
    cnf = random_3cnf(random.Random(2), n, int(4.1 * n))
    eng = engine_with(kernel, n, cnf)
    a = eng.new_bool_var()
    refs = [eng.add_clause((1, -a)), eng.add_clause((-1, 2, -a))]
    first = eng.solve()
    eng.add_clause((-a,))
    assert eng.retract(refs=refs) == 2
    again = eng.solve()
    assert first.status == again.status == "sat"
    assert builds == [len(cnf) + 2]
    # the kernel kept what the first solve learnt
    assert first.conflicts > 50 and again.conflicts < first.conflicts // 10
    assert eng.solve(assumptions=[a]).core == (a,)
    assert builds == [len(cnf) + 2]


def test_retract_raises_once_its_unit_is_gone(kernel, monkeypatch):
    builds = count_builds(kernel, monkeypatch)
    eng = engine_with(kernel, 3, [(1, 2)])
    c1, c2 = eng.add_clause((2, -3)), eng.add_clause((1, -3))
    u1, u2 = eng.add_clause((-3,)), eng.add_clause((-3,))
    eng.solve()
    # a second copy of the unit still stands behind c1
    assert eng.retract(refs=[c1, u1]) == 2
    # no copy would be left behind c2, nor behind the last unit itself
    for refs in ([c2, u2], [u2]):
        with pytest.raises(ValueError):
            eng.retract(refs=refs)
    assert [rec.ref for rec in eng.clauses] == [0, c2, u2]
    assert eng.solve(assumptions=[3]).core == (3,)
    assert len(builds) == 1


def test_retract_raises_for_a_root_implied_literal(kernel):
    # 2 is fixed at the root, but through (-1 2), not by a unit (2)
    eng = engine_with(kernel, 3, [(1,), (-1, 2), (2, 3)])
    with pytest.raises(ValueError):
        eng.retract(refs=[2])
    assert len(eng.clauses) == 3


def test_a_retract_that_raises_changes_nothing(kernel, monkeypatch):
    builds = count_builds(kernel, monkeypatch)
    eng = engine_with(kernel, 4, [(1,), (1, 2), (-2, 3), (3, 4)])
    eng.solve()
    live = eng._kernel
    clauses = list(eng.clauses)
    # (1 2) is implied by the unit (1), but (-2 3) is not
    with pytest.raises(ValueError):
        eng.retract(refs=[1, 2])
    assert eng.clauses == clauses
    assert not eng.root_conflict
    assert eng._kernel is live
    assert eng.solve(assumptions=[2, -3]).core == (2, -3)
    assert len(builds) == 1


def test_kernel_gets_exactly_the_clauses_added_after_a_kept_retract(
        kernel, monkeypatch):
    extends = []
    builds = count_builds(kernel, monkeypatch, extends)
    eng = engine_with(kernel, 3, [(1, 2)])
    ref = eng.add_clause((1, -3))
    eng.add_clause((-3,))
    eng.solve()
    assert eng.retract(refs=[ref]) == 1
    # the store is as long as at the last solve, and holds a new clause
    eng.add_clause((-1,))
    out = eng.solve(assumptions=[1])
    assert (out.status, out.core) == ("unsat", (1,))
    assert len(builds) == 1 and extends == [[(-1,)]]
    out = eng.solve(assumptions=[2])
    assert out.model == {1: False, 2: True, 3: False}
    assert extends == [[(-1,)]]


# ----------------------------------------------------------------------
# a compiled kernel built from another _search.cpp is refused


def test_a_compiled_kernel_of_another_source_is_refused(tmp_path):
    source = tmp_path / "_search.cpp"
    source.write_bytes(b"// the kernel\n")
    digest = hashlib.sha256(b"// the kernel\n").hexdigest()
    stale = types.SimpleNamespace(SOURCE_SHA256="0" * 64, __file__="old.so")
    with pytest.warns(RuntimeWarning, match="old.so") as seen:
        assert engine_core._built_from(stale, str(source)) is None
    assert len(seen) == 1
    # a build from before the hash was recorded carries none
    with pytest.warns(RuntimeWarning):
        assert engine_core._built_from(types.SimpleNamespace(),
                                       str(source)) is None
    fresh = types.SimpleNamespace(SOURCE_SHA256=digest)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert engine_core._built_from(fresh, str(source)) is fresh
        # no source to compare with: the module is kept
        assert engine_core._built_from(
            stale, str(tmp_path / "missing.cpp")) is stale


def test_the_compiled_kernel_in_use_was_built_from_its_source():
    module = engine_core._compiled()
    assert ("compiled" in available_kernels()) == (module is not None)
    if module is not None:
        with open(engine_core._SOURCE, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        assert module.SOURCE_SHA256 == digest


# ----------------------------------------------------------------------
# finding the compiled kernel: in place, else a checkout's cached build


def checkout(tmp_path, setup):
    """A temporary source checkout holding setup.py (the text setup) and a
    copy of this engine's _search.cpp; returns its engine directory."""
    engine = tmp_path / "src" / "maxcore" / "engine"
    engine.mkdir(parents=True)
    shutil.copy(engine_core._SOURCE, engine)
    (tmp_path / "setup.py").write_text(setup)
    return engine


def warm_cache(tmp_path):
    """Copy the session's compiled kernel into the cache of the checkout at
    tmp_path, where the engine looks for a build of this _search.cpp;
    returns its path."""
    with open(engine_core._SOURCE, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    built = engine_core._compiled().__file__
    path = (tmp_path / "build" / "kernel" / digest / "maxcore" / "engine"
            / os.path.basename(built))
    path.parent.mkdir(parents=True)
    shutil.copy(built, path)
    return path


def source_digest(engine):
    return hashlib.sha256((engine / "_search.cpp").read_bytes()).hexdigest()


def test_a_failed_build_leaves_the_pure_kernel_and_says_why(tmp_path):
    engine = checkout(tmp_path, "raise SystemExit('no compiler here')\n")
    module, status = engine_core._find_compiled(str(engine))
    marker = "%s.failed" % source_digest(engine)
    assert module is None
    assert status == ("compiled kernel not built (no compiler here; delete "
                      "build/kernel/%s to build again); pure kernel only"
                      % marker)
    # no building-* directory is left, only the marker
    assert os.listdir(tmp_path / "build" / "kernel") == [marker]
    # outside a checkout nothing is built
    os.remove(tmp_path / "setup.py")
    module, status = engine_core._find_compiled(str(engine))
    assert module is None and status.startswith("no compiled kernel (")


def test_a_failed_build_is_not_run_again_until_its_marker_goes(
        tmp_path, monkeypatch):
    engine = checkout(tmp_path, "raise SystemExit('no compiler here')\n")
    cache = tmp_path / "build" / "kernel"
    _, status = engine_core._find_compiled(str(engine))
    marker = cache / ("%s.failed" % source_digest(engine))
    assert marker.read_text() == "no compiler here\n"
    real_run = subprocess.run

    def no_build(*args, **kwargs):
        raise AssertionError("a recorded failure ran a subprocess")

    monkeypatch.setattr(subprocess, "run", no_build)
    assert engine_core._find_compiled(str(engine)) == (None, status)
    # an OSError may not recur, so it leaves no marker
    marker.unlink()

    def full_disk(*args, **kwargs):
        raise OSError("No space left on device")

    monkeypatch.setattr(subprocess, "run", full_disk)
    assert engine_core._find_compiled(str(engine)) == (
        None, "compiled kernel not built (No space left on device); pure "
        "kernel only")
    assert os.listdir(cache) == []
    # a deleted marker, or another source, builds again
    runs = []

    def counted(*args, **kwargs):
        runs.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counted)
    assert engine_core._find_compiled(str(engine)) == (None, status)
    assert len(runs) == 1 and marker.exists()
    with open(engine / "_search.cpp", "a") as f:
        f.write("// edited\n")
    _, edited = engine_core._find_compiled(str(engine))
    assert len(runs) == 2 and edited != status
    assert sorted(os.listdir(cache)) == sorted(
        [marker.name, "%s.failed" % source_digest(engine)])


def test_a_build_prunes_the_other_builds_and_markers(tmp_path,
                                                     compiled_kernel):
    # a setup.py stand-in that "builds" by copying the session's kernel
    built = engine_core._compiled().__file__
    engine = checkout(tmp_path, (
        "import os, shutil, sys\n"
        "lib = os.path.join(sys.argv[sys.argv.index('--build-lib') + 1],\n"
        "                   'maxcore', 'engine')\n"
        "os.makedirs(lib)\n"
        "shutil.copy(%r, lib)\n") % built)
    cache = tmp_path / "build" / "kernel"
    (cache / ("1" * 64)).mkdir(parents=True)
    (cache / ("1" * 64 + ".failed")).write_text("old\n")
    (cache / "building-x").mkdir()
    module, status = engine_core._find_compiled(str(engine))
    digest = source_digest(engine)
    assert module.__file__ == str(cache / digest / "maxcore" / "engine"
                                  / os.path.basename(built))
    assert sorted(os.listdir(cache)) == sorted(["building-x", digest])


def test_a_warm_cache_is_loaded_without_a_build(tmp_path, monkeypatch,
                                                compiled_kernel):
    engine = checkout(tmp_path, "raise SystemExit('built again')\n")
    path = warm_cache(tmp_path)

    def no_build(*args, **kwargs):
        raise AssertionError("a warm cache ran a subprocess")

    monkeypatch.setattr(subprocess, "run", no_build)
    module, status = engine_core._find_compiled(str(engine))
    assert module.__file__ == str(path)
    assert status == "compiled kernel: %s" % os.path.relpath(path, tmp_path)
    assert module.SearchCore(1, [(1,)], [], []).solve(
        [], None, None)["status"] == "sat"


def test_a_stale_in_place_module_gives_way_to_the_cached_build(
        tmp_path, compiled_kernel):
    engine = checkout(tmp_path, "raise SystemExit('built again')\n")
    path = warm_cache(tmp_path)
    # a stand-in for an in-place build of another _search.cpp
    (engine / "_search.py").write_text("SOURCE_SHA256 = '%s'\n" % ("0" * 64))
    with pytest.warns(RuntimeWarning, match="_search.py was not built from"):
        module, status = engine_core._find_compiled(str(engine))
    assert module.__file__ == str(path)
    assert status == "compiled kernel: %s" % os.path.relpath(path, tmp_path)
    # one built from this source is used first, without a warning
    # (a size of its own, so that no cached bytecode of the first stands in)
    (engine / "_search.py").write_text(
        "SOURCE_SHA256 = %r  # fresh\n" % module.SOURCE_SHA256)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        module, status = engine_core._find_compiled(str(engine))
    assert module.__file__ == str(engine / "_search.py")
    assert status == "compiled kernel: %s" % (engine / "_search.py")


def test_retract_follows_its_rule_on_random_stores(kernel):
    """retract against a brute-force statement of its rule: it removes the
    given clauses exactly when each of them holds a literal l such that a
    copy of the unit (l) is stored outside them, and otherwise raises and
    changes nothing.  The stores hold duplicated units."""
    rng = random.Random(24)
    n = 5
    lits = [l for v in range(1, n + 1) for l in (v, -v)]
    # kept / raised: either outcome; second copy: kept although a removed
    # unit's literal is among the removed literals it backs; own unit:
    # raised although the store held every unit the rule needs, some of
    # them only among the removed clauses
    tally = dict.fromkeys(("kept", "raised", "second copy", "own unit"), 0)
    for _ in range(150):
        units = [(l,) for l in rng.sample(lits, 3)
                 for _ in range(rng.randint(1, 3))]
        eng = engine_with(kernel, n, units + [
            rng.sample(lits, rng.randint(1, 3)) for _ in range(6)])
        eng.solve()
        for _ in range(4):
            store = list(eng.clauses)
            refs = {rec.ref for rec in rng.sample(
                store, min(len(store), rng.randint(1, 3)))}
            refs.add(100)            # not stored: ignored
            removed = [rec for rec in store if rec.ref in refs]
            kept = [rec for rec in store if rec.ref not in refs]

            def backed(among):
                return all(any(other.lits == (l,) for other in among
                               for l in rec.lits) for rec in removed)

            live, conflict = eng._kernel, eng.root_conflict
            if backed(kept):
                assert eng.retract(refs) == len(removed)
                assert eng.clauses == kept
                tally["kept"] += 1
                tally["second copy"] += any(
                    len(rec.lits) == 1 and rec.lits[0] in other.lits
                    for rec in removed for other in removed if other != rec)
            else:
                with pytest.raises(ValueError):
                    eng.retract(refs)
                assert eng.clauses == store
                tally["raised"] += 1
                tally["own unit"] += backed(store)
            assert eng.root_conflict == conflict and eng._kernel is live
            models = all_models(n, [rec.lits for rec in eng.clauses])
            assert eng.solve().status == ("sat" if models else "unsat")
    assert min(tally.values()) >= 20, tally
