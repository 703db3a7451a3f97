"""Pure-Python CDCL search kernel, the specification of the search.

One SearchCore runs solve() again and again, under new assumptions each
time; extend() adds variables, problem clauses and propagators in between.
Learnt clauses, variable activities, saved phases, var_inc and cla_inc carry
over from one solve to the next.  Nothing else does: each solve starts by
unassigning the whole trail, level 0 included (saving phases as a backjump
does), clearing the reason records and the counters and marking every
propagator pending, and then assigns every unit clause, problem or
learnt, at level 0.  As in MiniSat, level 0 is propagated to a fixpoint
each time the assumptions level is about to open (at the start, after a
restart and after a learnt unit); a conflict there is unsat with an empty
core, and not counted.  Problem clauses that extend() adds follow the learnt
clauses of earlier solves in the arena, so a flag per clause tells learnt
clauses apart.  A solve's result lists only the learnt clauses it derived
itself.  Once the learnt clauses reach learnt_cap, a reduction drops the
less active half of those that are no reason on the trail and compacts the
arena, as MiniSat's garbage collection does: the clauses left keep their
order, and the trail's reasons, the unit list and first_learnt follow them.

Literal values live in one table keyed by literal: val, a dict from 0 and
every literal -nvars..nvars to -1 (false), 0 (unset) or 1 (true).  An
assignment writes lit and -lit, a backjump clears both, so reading a value
is one lookup and needs no sign test.  The propagator view's lit_value is
the table's own __getitem__, a C method: a read costs no Python call, and a
literal outside +-nvars raises KeyError.  The watch lists and the wake lists
are keyed by literal in the same way.

The clause arena holds one literal list per clause, its slots 0 and 1
watched, as MiniSat's clauses are.  _bcp reorders the literals of a list
as its watches move, so extend() stores a copy of each problem clause, and
_lits hands out the arena's own list, which its callers must not change.
The clause arena and the watch lists hold only problem clauses and live
learnt clauses.  A propagator's inference is a reason record instead: an
enqueue records the implied literal and its negated reason list, a fail
records the negated reason list alone.  A reason or conflict reference r is
a clause index when r >= 0, no reason (a decision or an assumption) when
r == -1, and record -2 - r when r <= -2.  Conflict analysis and the final
core read records and clauses alike.  The solve result hands the records
over as data, the pair (r_head, r_neg) under the key "records": the next
solve starts new lists, so the pair holds nothing of the kernel.  The
record count is len(r_head), and explanations(*records) builds the
explanation clauses only when a caller asks for them.  The C++ kernel hands
over the same pair, with its negated reasons kept flat in a FlatNegs.

Propagators run at each Boolean fixpoint, in attachment order, until one
enqueues a literal.  A propagator whose wake_on is None runs at every
fixpoint.  One that lists wake_on literals runs only while it is pending: it
becomes pending when a solve starts and when one of its wake_on literals
becomes true; a call clears it as the call starts.  A backjump, to the root
too, makes no propagator pending: the trail it keeps was a fixpoint of every
propagator.  The kernel reads every wake_on when it is built and at every
extend(), since a propagator's watches may grow with the variables.
enqueue() checks that a reason is true once and trusts an equal reason
until the next backjump.

Integer bounds are kernel state.  extend() takes order literals as
(literal, IntVar, value) triples: the positive literal stands for
[x >= value].  The kernel sets every IntVar it registers to x.cur =
(lb0, None, ub0, None) and keeps, for every variable, order[var] = (x,
value) or None.  Each assignment looks its variable up there, and one of a
registered literal replaces x.cur when it moves a bound: a true [x >= v]
with v above the lower bound makes (v, lit) the lower bound and its
witness, a false one with v - 1 below the upper bound makes (v - 1, -lit)
the upper bound and its witness.  So x.cur is always the highest true and
the lowest false order literal, as IntVar.bounds reads them from the
ladder.  A move pushes an undo entry (trail position, x, old tuple), and
unassigning the trail from a position on pops the entries at or above it
and puts the old tuples back, newest first.

A decision takes the unassigned variable of highest activity, lowest id
on ties.  The variables wait in a lazy heapq of (-activity, var) entries:
queued[v] says that the heap holds a live entry for v, one that carries v's
current activity.  A backjump pushes each variable it unassigns that is not
queued.  A bump, always of an assigned variable, leaves its entry stale.  A
decision pops entries until it finds a live one of an unassigned variable,
and drops the rest.  An activity rescale, or a backjump that leaves more
than 2 * nvars entries, rebuilds the heap from the unassigned variables.
The C++ kernel keeps the same heap.

The hand-written C++ kernel in _search.cpp runs the same search step for
step: any behavioural change here must be made there too, and
tests/test_kernels.py checks that both return identical results and make
the same propagator calls.  Its arena is one flat literal vector instead;
what the kernels share is the order of the clauses, of the literals within
each clause and of each watch list.
"""

import time
from heapq import heapify, heappop, heappush
from itertools import accumulate, compress

from .errors import EngineIntegrityError

VAR_DECAY = 0.95
CLAUSE_DECAY = 0.999
RESTART_BASE = 100
RESTART_MULT = 1.5
LEARNT_CAP_MIN = 4000


class SearchCore:
    """CDCL search over int literals (DIMACS signs), solved again and again
    as the clause set grows."""

    def __init__(self, nvars, clauses, propagators, order_literals=()):
        self.nvars = 0
        self.propagators = []

        self.val = {0: 0}   # per literal: -1 false, 0 unset, 1 true
        self.lit_value = self.val.__getitem__
        self.levels = [0]
        self.reasons = [-1]     # a reference, -1 for decisions/assumptions
        self.phase = [False]
        self.activity = [0.0]
        self.seen = [0]
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.order = [None]     # per variable: (IntVar, v) of [x >= v], or None
        self.bound_undo = []    # (trail position, IntVar, cur before the move)

        # the arena: one literal list per clause, slots 0 and 1 watched.
        # Problem clauses that extend() adds follow the learnt clauses of
        # earlier solves, so c_learnt flags the learnt ones.
        self.clauses = []
        self.c_act = []
        self.c_learnt = []
        self.units = []         # the clauses of one literal, in order
        self.watches = {}
        self.n_problem = 0      # problem clauses; the rest are learnt
        self.first_learnt = 0   # the first clause the current solve learnt

        self.var_inc = 1.0
        self.cla_inc = 1.0
        self.heap = []          # (-activity, var) entries, live or stale
        self.queued = [False]   # per variable: the heap holds a live entry

        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0

        # reason records: record k implies r_head[k] (0 for a fail) from
        # the negated reason r_neg[k], a list that equal reasons share
        self.r_head = []
        self.r_neg = []

        self._prop_enqueued = False
        self._prop_conflict = -1

        # the last reason enqueue() checked, and its negation
        self._checked = None
        self._checked_neg = None

        self._wakers = {0: None}
        self._woken = []        # the literals whose _wakers entry is a list

        self.extend(nvars, clauses, propagators, order_literals)

    def extend(self, nvars, clauses, propagators, order_literals=()):
        """Grows the kernel to nvars variables and adds the problem clauses,
        the propagators and the order literals; reads every propagator's
        wake_on again."""
        old = self.nvars
        if nvars < old:
            raise ValueError("variable count %d below %d" % (nvars, old))
        self.nvars = nvars
        n1 = nvars + 1
        new = nvars - old
        fresh = [*range(-nvars, -old), *range(old + 1, n1)]
        self.val.update(dict.fromkeys(fresh, 0))
        self.watches.update({lit: [] for lit in fresh})
        self.levels += [0] * new
        self.reasons += [-1] * new
        self.phase += [False] * new
        self.activity += [0.0] * new
        self.seen += [0] * new
        self.order += [None] * new
        for lit, x, v in order_literals:
            if not 0 < lit <= nvars:
                raise ValueError("order literal %d out of range" % lit)
            self.order[lit] = (x, v)
            x.cur = (x.lb0, None, x.ub0, None)
        # a new variable has activity 0 and the highest id: no entry sorts
        # after its own, so appending keeps the heap a heap
        self.queued += [True] * new
        self.heap += [(-0.0, v) for v in range(old + 1, n1)]

        first = len(self.clauses)
        for lits in clauses:
            # a copy, since _bcp reorders the arena's lists
            self._add_clause(list(lits), False)
        self.n_problem += len(self.clauses) - first
        self.learnt_cap = max(LEARNT_CAP_MIN, 2 * self.n_problem)

        self.propagators += propagators
        # wake rule: _wakers[lit] lists the propagators that watch lit, or is
        # None; a propagator whose wake_on is None stays pending for good.
        # The table grows by the new literals, and only the lists that
        # _woken names are reset before every wake_on is read again.
        wakers = self._wakers
        wakers.update(dict.fromkeys(fresh))
        for lit in self._woken:
            wakers[lit] = None
        self._woken = woken = []
        self._always = []
        self._pending = [True] * len(self.propagators)
        for pi, p in enumerate(self.propagators):
            wake_on = p.wake_on
            self._always.append(wake_on is None)
            for lit in wake_on or ():
                w = wakers[lit]
                if w is None:
                    wakers[lit] = [pi]
                    woken.append(lit)
                elif w[-1] != pi:
                    w.append(pi)

    # ------------------------------------------------------------------
    # clause arena

    def _add_clause(self, lits, learnt):
        # stores the list lits itself
        ci = len(self.clauses)
        self.clauses.append(lits)
        self.c_act.append(0.0)
        self.c_learnt.append(learnt)
        if len(lits) >= 2:
            self.watches[lits[0]].append(ci)
            self.watches[lits[1]].append(ci)
        else:
            self.units.append(ci)
        return ci

    def _lits(self, ref):
        # the literals of a clause or record, an enqueue's implied literal
        # first; a clause's are the arena's own list, not to be changed
        if ref >= 0:
            return self.clauses[ref]
        k = -2 - ref
        head = self.r_head[k]
        return [head] + self.r_neg[k] if head else list(self.r_neg[k])

    # ------------------------------------------------------------------
    # assignment primitives

    def _assign(self, lit, reason):
        # _bcp and enqueue inline this
        val = self.val
        val[lit] = 1
        val[-lit] = -1
        wakers = self._wakers[lit]
        if wakers is not None:
            for pi in wakers:
                self._pending[pi] = True
        var = lit if lit > 0 else -lit
        entry = self.order[var]
        if entry is not None:
            self._move_bound(lit, entry)
        self.levels[var] = len(self.trail_lim)
        self.reasons[var] = reason
        self.trail.append(lit)
        if reason != -1:
            self.propagations += 1

    def _move_bound(self, lit, entry):
        # lit, about to enter the trail, sets the order literal [x >= v] of
        # entry = (x, v); x.cur changes if that moves a bound of x
        x, v = entry
        cur = x.cur
        if lit > 0:
            if v <= cur[0]:
                return
            new = (v, lit, cur[2], cur[3])
        else:
            if v > cur[2]:
                return
            new = (cur[0], cur[1], v - 1, lit)
        self.bound_undo.append((len(self.trail), x, cur))
        x.cur = new

    def _new_level(self):
        self.trail_lim.append(len(self.trail))

    def _backjump(self, level):
        if len(self.trail_lim) <= level:
            return
        bound = self.trail_lim[level]
        if bound < len(self.trail):
            # the trail it keeps was a fixpoint of every propagator
            self._pending = list(self._always)
        self._unassign(bound)
        del self.trail_lim[level:]

    def _unassign(self, bound):
        # unassigns the trail from position bound on, saving phases, and
        # puts back the integer bounds from before it
        trail = self.trail
        undo = self.bound_undo
        while undo and undo[-1][0] >= bound:
            _, x, old = undo.pop()
            x.cur = old
        self._checked = None
        val = self.val
        phase = self.phase
        activity = self.activity
        queued = self.queued
        heap = self.heap
        for lit in reversed(trail[bound:]):
            val[lit] = 0
            val[-lit] = 0
            var = lit if lit > 0 else -lit
            phase[var] = lit > 0
            if not queued[var]:
                queued[var] = True
                heappush(heap, (-activity[var], var))
        del trail[bound:]
        self.qhead = len(trail)
        if len(heap) > 2 * self.nvars:
            self._rebuild_heap()

    # ------------------------------------------------------------------
    # activities

    def _rebuild_heap(self):
        # one live entry per unassigned variable, and nothing else
        val = self.val
        activity = self.activity
        unassigned = [val[v] == 0 for v in range(self.nvars + 1)]
        unassigned[0] = False
        self.queued[:] = unassigned
        heap = self.heap
        heap[:] = [(-activity[v], v)
                   for v in range(1, self.nvars + 1) if unassigned[v]]
        heapify(heap)

    def _rescale_activity(self):
        activity = self.activity
        for u in range(1, self.nvars + 1):
            activity[u] *= 1e-100
        self.var_inc *= 1e-100
        self._rebuild_heap()

    def _bump_clause(self, ci):
        self.c_act[ci] += self.cla_inc
        if self.c_act[ci] > 1e20:
            for k in range(len(self.c_act)):
                self.c_act[k] *= 1e-20
            self.cla_inc *= 1e-20

    # ------------------------------------------------------------------
    # propagation

    def _bcp(self):
        clauses = self.clauses
        val = self.val
        watches = self.watches
        wakers = self._wakers
        pending = self._pending
        levels = self.levels
        reasons = self.reasons
        order = self.order
        trail = self.trail
        level = len(self.trail_lim)
        qhead = self.qhead
        implied = 0
        confl = -1
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            wl = watches[false_lit]
            i = len(wl) - 1
            while i >= 0:
                ci = wl[i]
                c = clauses[ci]
                first = c[0]
                if first == false_lit:
                    first = c[1]
                    c[0] = first
                    c[1] = false_lit
                fv = val[first]
                if fv == 1:
                    i -= 1
                    continue
                for k in range(2, len(c)):
                    q = c[k]
                    if val[q] != -1:
                        c[1] = q
                        c[k] = false_lit
                        watches[q].append(ci)
                        wl[i] = wl[-1]
                        wl.pop()
                        break
                else:
                    if fv == -1:
                        confl = ci
                        break
                    # _assign(first, ci)
                    val[first] = 1
                    val[-first] = -1
                    w = wakers[first]
                    if w is not None:
                        for pi in w:
                            pending[pi] = True
                    var = first if first > 0 else -first
                    entry = order[var]
                    if entry is not None:
                        self._move_bound(first, entry)
                    levels[var] = level
                    reasons[var] = ci
                    trail.append(first)
                    implied += 1
                i -= 1
            if confl != -1:
                break
        self.qhead = qhead
        self.propagations += implied
        return confl

    def _propagate_all(self):
        while True:
            confl = self._bcp()
            if confl >= 0:
                return confl
            progress = False
            pending = self._pending
            for pi, p in enumerate(self.propagators):
                if not pending[pi]:
                    continue
                pending[pi] = self._always[pi]
                self._prop_enqueued = False
                self._prop_conflict = -1
                p.propagate(self)
                if self._prop_conflict != -1:
                    return self._prop_conflict
                if self._prop_enqueued:
                    progress = True
                    break
            if not progress:
                return -1

    # propagator-facing interface -------------------------------------

    def enqueue(self, lit, reason_lits):
        if reason_lits != self._checked:
            # a copy, so that a reason list changed in place is checked again
            checked = list(reason_lits)
            val = self.val
            for r in checked:
                if val[r] != 1:
                    raise EngineIntegrityError(
                        "explanation antecedent %d is not true" % r)
            self._checked = checked
            self._checked_neg = [-r for r in checked]
        v = self.val[lit]
        if v == 1:
            return True
        ref = -2 - len(self.r_head)
        self.r_head.append(lit)
        self.r_neg.append(self._checked_neg)
        if v == -1:
            self._prop_conflict = ref
            return False
        # _assign(lit, ref)
        val = self.val
        val[lit] = 1
        val[-lit] = -1
        wakers = self._wakers[lit]
        if wakers is not None:
            pending = self._pending
            for pi in wakers:
                pending[pi] = True
        var = lit if lit > 0 else -lit
        entry = self.order[var]
        if entry is not None:
            self._move_bound(lit, entry)
        self.levels[var] = len(self.trail_lim)
        self.reasons[var] = ref
        self.trail.append(lit)
        self.propagations += 1
        self._prop_enqueued = True
        return True

    def fail(self, reason_lits):
        neg = []
        val = self.val
        for r in reason_lits:
            if val[r] != 1:
                raise EngineIntegrityError(
                    "nogood antecedent %d is not true" % r)
            neg.append(-r)
        self._prop_conflict = -2 - len(self.r_head)
        self.r_head.append(0)
        self.r_neg.append(neg)
        return False

    # ------------------------------------------------------------------
    # conflict analysis

    def _analyze(self, confl):
        seen = self.seen
        levels = self.levels
        trail = self.trail
        reasons = self.reasons
        activity = self.activity
        queued = self.queued
        clauses = self.clauses
        c_learnt = self.c_learnt
        r_neg = self.r_neg
        var_inc = self.var_inc
        learnt = [0]
        clevel = len(self.trail_lim)
        counter = 0
        p = 0
        idx = len(trail) - 1
        to_clear = []
        while True:
            # the reason of p without p itself, or the whole conflict
            if confl >= 0:
                if c_learnt[confl]:
                    self._bump_clause(confl)
                lits = clauses[confl][1:] if p != 0 else clauses[confl]
            elif p != 0:
                lits = r_neg[-2 - confl]
            else:
                lits = self._lits(confl)
            for q in lits:
                v = q if q > 0 else -q
                if not seen[v] and levels[v] > 0:
                    seen[v] = 1
                    to_clear.append(v)
                    # bump v; its heap entry, if any, goes stale
                    a = activity[v] + var_inc
                    activity[v] = a
                    queued[v] = False
                    if a > 1e100:
                        self._rescale_activity()
                        var_inc = self.var_inc
                    if levels[v] >= clevel:
                        counter += 1
                    else:
                        learnt.append(q)
            if counter == 0:
                # only a propagator can raise such a conflict: one it missed
                # at an earlier fixpoint
                raise EngineIntegrityError(
                    "conflict has no literal at the conflict level")
            while True:
                lit = trail[idx]
                if seen[lit if lit > 0 else -lit]:
                    break
                idx -= 1
            p = trail[idx]
            idx -= 1
            pv = p if p > 0 else -p
            confl = reasons[pv]
            seen[pv] = 0
            counter -= 1
            if counter == 0:
                break
        learnt[0] = -p
        for v in to_clear:
            seen[v] = 0
        bj = 0
        if len(learnt) > 1:
            best = 1
            for k in range(2, len(learnt)):
                lv = learnt[k] if learnt[k] > 0 else -learnt[k]
                bv = learnt[best] if learnt[best] > 0 else -learnt[best]
                if levels[lv] > levels[bv]:
                    best = k
            learnt[1], learnt[best] = learnt[best], learnt[1]
            b = learnt[1] if learnt[1] > 0 else -learnt[1]
            bj = levels[b]
        return learnt, bj

    def _final_core(self, lits, core):
        # adds to core, sorted, every assumption at level > 0 that the
        # literals rest on through their reasons
        seen = self.seen
        stack = list(lits)
        touched = []
        while stack:
            q = stack.pop()
            u = q if q > 0 else -q
            if self.levels[u] == 0 or seen[u]:
                continue
            seen[u] = 1
            touched.append(u)
            r = self.reasons[u]
            if r == -1:
                core.append(self.val[u] * u)
            elif r >= 0:
                stack.extend(self._lits(r))
            else:
                stack.extend(self.r_neg[-2 - r])
        for u in touched:
            seen[u] = 0
        core.sort(key=lambda l: (l if l > 0 else -l, l))
        return core

    # ------------------------------------------------------------------
    # learnt database reduction

    def _reduce_learnts(self):
        # drops the less active half of the learnt clauses that are no
        # reason on the trail, and compacts the arena
        reasons = self.reasons
        c_act = self.c_act
        trail = self.trail
        locked = {reasons[lit if lit > 0 else -lit] for lit in trail}
        cands = [ci for ci, learnt in enumerate(self.c_learnt)
                 if learnt and ci not in locked]
        cands.sort(key=lambda ci: (c_act[ci], ci))
        keep = [True] * len(c_act)
        for ci in cands[:len(cands) // 2]:
            keep[ci] = False
        # moved[ci] counts the clauses kept before ci: a kept ci moves there
        moved = [0, *accumulate(keep)]
        self.clauses = list(compress(self.clauses, keep))
        self.c_act = list(compress(c_act, keep))
        self.c_learnt = list(compress(self.c_learnt, keep))
        for lit in trail:
            v = lit if lit > 0 else -lit
            if reasons[v] >= 0:
                reasons[v] = moved[reasons[v]]
        self.units = [moved[ci] for ci in self.units if keep[ci]]
        self.first_learnt = moved[self.first_learnt]
        self._rebuild_watches()

    def _rebuild_watches(self):
        watches = self.watches
        for wl in watches.values():
            del wl[:]
        for ci, c in enumerate(self.clauses):
            if len(c) >= 2:
                watches[c[0]].append(ci)
                watches[c[1]].append(ci)

    # ------------------------------------------------------------------
    # top level

    def _establish_assumptions(self, assumptions):
        # all assumption literals enter one decision level before propagation
        self._new_level()
        for a in assumptions:
            v = self.val[a]
            if v == 1:
                continue
            if v == -1:
                return self._final_core([a], [a])
            self._assign(a, -1)
        return None

    def solve(self, assumptions, conflict_budget=None, time_budget_s=None):
        result = {
            "status": "unknown", "model": None, "core": None,
            "conflicts": 0, "decisions": 0, "propagations": 0, "restarts": 0,
        }
        deadline = None
        if time_budget_s is not None:
            deadline = time.monotonic() + time_budget_s
        restart_limit = float(RESTART_BASE)
        conflicts_since_restart = 0
        self._reset()

        for ci in self.units:
            lit = self.clauses[ci][0]
            v = self.val[lit]
            if v == -1:
                result["status"] = "unsat"
                result["core"] = []
                return self._finish(result)
            if v == 0:
                self._assign(lit, ci)

        while True:
            if len(self.trail_lim) == 0:
                # level 0 is closed before the assumptions level opens
                core = ([] if self._propagate_all() != -1
                        else self._establish_assumptions(assumptions))
                if core is not None:
                    result["status"] = "unsat"
                    result["core"] = core
                    return self._finish(result)
            confl = self._propagate_all()
            if confl != -1:
                self.conflicts += 1
                conflicts_since_restart += 1
                if len(self.trail_lim) == 1:
                    result["status"] = "unsat"
                    # every literal sits at the assumption level or below
                    result["core"] = self._final_core(self._lits(confl), [])
                    return self._finish(result)
                learnt, bj = self._analyze(confl)
                self._backjump(bj)
                ci = self._add_clause(learnt, True)
                if len(learnt) > 1:
                    self.c_act[ci] = self.cla_inc
                self._assign(learnt[0], ci)
                self.var_inc /= VAR_DECAY
                self.cla_inc /= CLAUSE_DECAY
                if len(self.clauses) - self.n_problem >= self.learnt_cap:
                    self._reduce_learnts()
                if conflict_budget is not None and self.conflicts >= conflict_budget:
                    return self._finish(result)
                if deadline is not None and time.monotonic() > deadline:
                    return self._finish(result)
            else:
                if (conflicts_since_restart >= restart_limit
                        and len(self.trail_lim) > 1):
                    conflicts_since_restart = 0
                    restart_limit *= RESTART_MULT
                    self.restarts += 1
                    self._backjump(0)
                    continue
                if len(self.trail) == self.nvars:
                    result["status"] = "sat"
                    result["model"] = list(map(self.lit_value,
                                              range(self.nvars + 1)))
                    return self._finish(result)
                # every unassigned variable has a live entry
                heap = self.heap
                activity = self.activity
                while True:
                    neg, var = heappop(heap)
                    if neg == -activity[var]:
                        self.queued[var] = False
                        if self.val[var] == 0:
                            break
                self.decisions += 1
                self._new_level()
                self._assign(var if self.phase[var] else -var, -1)

    def _reset(self):
        # what a solve starts from: nothing assigned, not even at level 0
        # (phases are saved as a backjump saves them), no reason records,
        # zero counters and every propagator pending.  Learnt clauses,
        # activities, phases, var_inc and cla_inc stay.
        self._unassign(0)
        del self.trail_lim[:]
        self.r_head = []
        self.r_neg = []
        self.conflicts = self.decisions = self.propagations = 0
        self.restarts = 0
        self._pending = [True] * len(self.propagators)
        self.first_learnt = len(self.clauses)

    def _finish(self, result):
        result["conflicts"] = self.conflicts
        result["decisions"] = self.decisions
        result["propagations"] = self.propagations
        result["restarts"] = self.restarts
        result["learnts"] = [
            tuple(c) for c in self.clauses[self.first_learnt:]]
        result["records"] = (self.r_head, self.r_neg)
        return result


def explanations(heads, negs):
    """The clause each record stands for, in creation order: the implied
    literal, if any, then the negated reason."""
    return [(head, *neg) if head else tuple(neg)
            for head, neg in zip(heads, negs)]


class FlatNegs:
    """The negated reasons of the C++ kernel's records, kept flat: item k is
    lits[offs[k]:offs[k] + lens[k]]."""

    __slots__ = ("offs", "lens", "lits")

    def __init__(self, offs, lens, lits):
        self.offs = offs
        self.lens = lens
        self.lits = lits

    def __len__(self):
        return len(self.offs)

    def __getitem__(self, k):
        off = self.offs[k]
        return self.lits[off:off + self.lens[k]]
