"""Reverse unit propagation (RUP) checks of what the kernels hand over, at
workload scale.

A clause C is RUP from a clause set F when unit propagation on F together
with the negation of every literal of C reaches a conflict; F then implies
C.  This is the check at the core of DRAT-trim (Wetzler, Heule & Hunt, SAT
2014), run forward.  It needs no proof log here, because every solve hands
over its learnt clauses (SolveOutcome.learnts), its explanation clauses
(SolveOutcome.explanations) and its core.

RupRecorder keeps, per engine, the premises its solves may rest on:

- every clause the engine stores, retracted ones included, since a stored
  unit implies each of them;
- the empty clause, once one was added (root_conflict);
- every explanation clause of every solve so far;
- every learnt clause checked so far.

After each solve, every clause of out.learnts must be RUP from them, and
so must the negated core of an unsat answer.

Limit: a learnt clause that a reduction drops is never handed over, and a
later learnt clause may rest on it.  So the recorder serves only runs that
never reach the learnt cap of LEARNT_CAP_MIN (4,000) clauses.  A reduction
drops at most half of the learnt clauses, so an engine that hands over
fewer than half the cap in all never reduced; the tests that run engines
assert that.
"""

import os
import sys
import weakref
from bisect import bisect_left
from collections import defaultdict

import pytest

from maxcore.engine import Engine
from maxcore.engine._search_py import LEARNT_CAP_MIN

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _sub in ("benchmarks", "perfbench"):
    if os.path.join(ROOT, _sub) not in sys.path:
        sys.path.insert(0, os.path.join(ROOT, _sub))

import workloads  # noqa: E402

# every rcpsp-soft cell, two wcnf-random groups, the first 20 wcnf-small ones
GROUPS = {
    "rcpsp-soft": None,
    "wcnf-random": ("n35-s0", "n35-s2"),
    "wcnf-small": tuple("n16-s%d" % k for k in range(20)),
}


class Rup:
    """Unit propagation over a growing clause set, kept at its fixpoint
    (the root), with two watched literals per clause."""

    def __init__(self):
        self.true = set()           # true literals: the root, then a check's
        self.trail = []
        self.watches = defaultdict(list)
        self.refuted = False        # the root propagates to a conflict

    def add(self, clause):
        if self.refuted:
            return
        true = self.true
        lits = []
        for l in dict.fromkeys(clause):
            if l in true or -l in clause:
                return              # satisfied at the root, or a tautology
            if -l not in true:
                lits.append(l)
        if not lits:
            self.refuted = True
        elif len(lits) == 1:
            true.add(lits[0])
            self.trail.append(lits[0])
            self.refuted = not self._propagate(len(self.trail) - 1)
        else:
            self.watches[lits[0]].append(lits)
            self.watches[lits[1]].append(lits)

    def implies(self, clause):
        """True when clause is RUP from the clauses added so far."""
        if self.refuted:
            return True
        true = self.true
        trail = self.trail
        mark = len(trail)
        for l in clause:
            if l in true:
                found = True
                break
            if -l not in true:
                true.add(-l)
                trail.append(-l)
        else:
            found = not self._propagate(mark)
        for l in trail[mark:]:
            true.discard(l)
        del trail[mark:]
        return found

    def _propagate(self, head):
        # False on a conflict; the watches stay valid when the trail shrinks
        true = self.true
        trail = self.trail
        watches = self.watches
        while head < len(trail):
            false_lit = -trail[head]
            head += 1
            wl = watches[false_lit]
            i = 0
            while i < len(wl):
                c = wl[i]
                if c[0] == false_lit:
                    c[0], c[1] = c[1], false_lit
                first = c[0]
                if first in true:
                    i += 1
                    continue
                for k in range(2, len(c)):
                    q = c[k]
                    if -q not in true:
                        c[1], c[k] = q, false_lit
                        watches[q].append(c)
                        wl[i] = wl[-1]
                        wl.pop()
                        break
                else:
                    if -first in true:
                        return False
                    true.add(first)
                    trail.append(first)
                    i += 1
        return True


class RupRecorder:
    """Checks every Engine.solve() while installed (see the module
    docstring).  checks lists (kind, clause, implied) in order, kind
    "learnt" or "core"; most_learnts is the most learnt clauses that one
    engine handed over.  mutate, if given, maps each learnt clause to the
    clause checked in its place; the premises still gain the clause
    itself."""

    def __init__(self, mutate=None):
        self.mutate = mutate
        self.checks = []
        self.most_learnts = 0
        # Engine -> [Rup, next clause ref, learnt clauses handed over]
        self._premises = weakref.WeakKeyDictionary()

    def install(self, monkeypatch):
        original = Engine.solve

        def checked(eng, *args, **kwargs):
            out = original(eng, *args, **kwargs)
            self.after_solve(eng, out)
            return out

        monkeypatch.setattr(Engine, "solve", checked)

    def after_solve(self, eng, out):
        entry = self._premises.setdefault(eng, [Rup(), 0, 0])
        rup, next_ref, _ = entry
        new = bisect_left(eng.clauses, next_ref, key=lambda rec: rec.ref)
        for rec in eng.clauses[new:]:
            rup.add(rec.lits)
        if eng.clauses:
            entry[1] = max(next_ref, eng.clauses[-1].ref + 1)
        if eng.root_conflict:
            rup.add(())
        for clause in out.explanations:
            rup.add(clause)
        for clause in out.learnts:
            checked = self.mutate(clause) if self.mutate else clause
            self.checks.append(("learnt", checked, rup.implies(checked)))
            rup.add(clause)
        entry[2] += len(out.learnts)
        self.most_learnts = max(self.most_learnts, entry[2])
        if out.status == "unsat":
            negated = tuple(-a for a in out.core)
            self.checks.append(("core", negated, rup.implies(negated)))


@pytest.fixture(scope="module")
def cells():
    return [cell for workload, groups in GROUPS.items()
            for cell in workloads.build(workload)
            if groups is None or cell.group in groups]


def _run_checked(cells, kernel, monkeypatch, mutate=None):
    recorder = RupRecorder(mutate)
    recorder.install(monkeypatch)
    for cell in cells:
        cell.run(kernel=kernel)
    monkeypatch.undo()
    assert recorder.most_learnts < LEARNT_CAP_MIN // 2
    return recorder


def test_learnt_clauses_and_cores_are_rup(cells, kernel, monkeypatch):
    recorder = _run_checked(cells, kernel, monkeypatch)
    kinds = [kind for kind, _, _ in recorder.checks]
    assert kinds.count("learnt") > 1000 and kinds.count("core") > 200
    assert [c for c in recorder.checks if not c[2]] == []


def test_a_learnt_clause_missing_a_literal_is_rejected(cells, monkeypatch):
    recorder = _run_checked(cells[:30], "python", monkeypatch,
                            mutate=lambda clause: clause[:-1])
    # a unit learnt clause loses its only literal: skip that trivial case
    rejected = [c for kind, c, ok in recorder.checks
                if kind == "learnt" and c and not ok]
    assert rejected
    assert all(ok for kind, _, ok in recorder.checks if kind == "core")


def test_rup_checker_on_small_sets():
    rup = Rup()
    for clause in [(1, 2), (-1, 3), (-2, 3), (-3, 4, 5)]:
        rup.add(clause)
    assert rup.implies((3,))
    assert rup.implies((4, 5))
    assert not rup.implies((4,))
    assert not rup.implies((1,))
    assert rup.implies((1, -1))
    # a failed check leaves the root as it was
    assert rup.trail == [] and not rup.refuted
    rup.add((-4,))
    assert rup.trail == [-4]
    assert rup.implies((-1, 5)) and not rup.implies((-3,))
    # (-3 4 5) now forces -3, then -1 and -2, and (1 2) fails
    rup.add((-5,))
    assert rup.refuted and rup.implies(())
    empty = Rup()
    assert not empty.implies(())
    empty.add(())
    assert empty.implies(())
