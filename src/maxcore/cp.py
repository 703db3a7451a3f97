"""Lazy clause generation layer over the Boolean engine.

An integer variable's domain is its ladder of order literals [x >= v],
created on demand and kept sorted by value.  CpModel.lit_geq registers each
new order literal with the engine, and the search kernel keeps each
registered variable's current bounds in IntVar.cur, on the trail: the
propagators read x.cur, never the ladder.  IntVar.bounds reads the same
bounds from the ladder; it is their specification, and decode_int reads a
model through it.  Every propagator explains each inference as a clause over
ladder literals.  Explanations cite only materialized bound literals;
original-domain bounds need no justification.
"""

import bisect
from itertools import accumulate

from .engine import Engine, Propagator


class IntVar:
    """Integer variable with original bounds and one ladder of lazily
    created order literals.

    cur is (lb, lb witness, ub, ub witness), what bounds() returns under the
    current assignment.  Only the search kernel of the variable's engine
    writes it: it sets cur to (lb0, None, ub0, None) when it registers the
    variable, replaces it when an assigned order literal moves a bound, and
    restores it from the trail when that literal is unassigned.  cur is
    valid during a propagate call made by that kernel; outside one it holds
    whatever the last search left.
    """

    def __init__(self, vid, lb, ub):
        self.id = vid
        self.lb0 = lb
        self.ub0 = ub
        self.geq_vals = []   # sorted values v with a literal, lb0 < v <= ub0
        self.geq_lits = []   # the literal [x >= v] of geq_vals[k] at index k
        self.cur = (lb, None, ub, None)

    def __repr__(self):
        return "IntVar(%d, [%d,%d])" % (self.id, self.lb0, self.ub0)

    def bounds(self, lit_value):
        """(lb, lb witness, ub, ub witness) under lit_value, which maps a
        literal to 1, 0 or -1.  The lower bound comes from the highest true
        [x >= v], the upper bound v - 1 from the lowest false one; a missing
        witness is None and leaves the original bound.  The ladder is read
        whole, not bisected, because it need not be monotone: a
        propagator's own enqueue of [x >= v] holds before the channelling
        clauses make [x >= v-1] true, and tests pass any assignment.  The
        kernel's cur equals bounds(lit_value) throughout a propagate call."""
        vals = list(map(lit_value, self.geq_lits))
        if 1 in vals:
            k = len(vals) - 1 - vals[::-1].index(1)
            lb, lwit = self.geq_vals[k], self.geq_lits[k]
        else:
            lb, lwit = self.lb0, None
        if -1 in vals:
            k = vals.index(-1)
            ub, uwit = self.geq_vals[k] - 1, -self.geq_lits[k]
        else:
            ub, uwit = self.ub0, None
        return lb, lwit, ub, uwit

    def strongest_geq(self, v):
        """Largest materialized bound value <= v, as (value, lit) or None."""
        i = bisect.bisect_right(self.geq_vals, v)
        if i == 0:
            return None
        return self.geq_vals[i - 1], self.geq_lits[i - 1]

    def strongest_leq(self, v):
        """Negated geq literal asserting x <= v, weakest materialized form,
        as (value, lit) or None."""
        i = bisect.bisect_right(self.geq_vals, v)
        if i == len(self.geq_vals):
            return None
        return self.geq_vals[i] - 1, -self.geq_lits[i]


class CpModel:
    """Owns an engine plus the integer variables living on it."""

    def __init__(self, engine=None, kernel="auto"):
        self.eng = engine if engine is not None else Engine(kernel=kernel)
        self.true_lit = self.eng.new_bool_var()
        self.eng.add_clause((self.true_lit,))
        self.ints = []

    def new_bool_var(self):
        return self.eng.new_bool_var()

    def new_int_var(self, lb, ub):
        if lb > ub:
            raise ValueError("empty domain [%d,%d]" % (lb, ub))
        x = IntVar(len(self.ints), lb, ub)
        self.ints.append(x)
        return x

    def lit_geq(self, x, v):
        """Literal for x >= v, clamped to the original domain; a new one is
        registered with the engine as the order literal of (x, v)."""
        if v <= x.lb0:
            return self.true_lit
        if v > x.ub0:
            return -self.true_lit
        i = bisect.bisect_left(x.geq_vals, v)
        if i < len(x.geq_vals) and x.geq_vals[i] == v:
            return x.geq_lits[i]
        lit = self.eng.new_bool_var()
        # channel against adjacent materialized bounds: [x>=v] -> [x>=prev],
        # [x>=next] -> [x>=v]; inserting between two repairs both sides
        if i > 0:
            self.eng.add_clause((-lit, x.geq_lits[i - 1]))
        if i < len(x.geq_vals):
            self.eng.add_clause((-x.geq_lits[i], lit))
        x.geq_vals.insert(i, v)
        x.geq_lits.insert(i, lit)
        self.eng.register_order_literal(lit, x, v)
        return lit

    def materialize(self, x):
        """Eagerly create the full bound ladder of x."""
        for v in range(x.lb0 + 1, x.ub0 + 1):
            self.lit_geq(x, v)

    def post_half_reified_linear(self, i, terms, rhs):
        """i -> sum(c * x for c, x in terms) >= rhs; the indicator literal
        i is checked as Engine.add_clause checks a literal, and a bad
        argument attaches nothing."""
        i = self.eng.check_literal(i)
        if not terms:
            raise ValueError("half-reified linear needs at least one term")
        prop = HalfReifiedLinear(i, terms, rhs)
        self.eng.attach_propagator(prop)
        return prop

    def post_cumulative(self, tasks, capacity):
        """tasks: list of (IntVar start, duration, demand).  A task of
        positive duration whose demand exceeds capacity overloads it alone
        and posts the empty clause; at capacity 0 every task of positive
        duration and demand does.  The other tasks overload it together
        when their energy exceeds its bound over their window, from the
        earliest original start to the latest original end
        (Cumulative.span), under either of two weightings of a demand:
        - the demand itself, bounded by capacity: at any instant the
          running demands sum to at most capacity;
        - 2 for a demand above half the capacity, 1 for one at exactly
          half and 0 below, bounded by 2: at any instant at most one
          running task is above half, and then none is at half, or at most
          two are at half.  This is the threshold-1/2 dual feasible
          function (Fekete & Schepers, Math. Program. 2001; Carlier &
          Neron, EJOR 2003, for RCPSP energy), which refutes tasks that
          cannot overlap and whose durations together exceed the window.
        An overload posts the empty clause, and no propagator is attached.
        Every check holds for every model, so search changes only where one
        fires."""
        if capacity < 0:
            raise ValueError("negative capacity")
        live = []
        for x, dur, dem in tasks:
            if dur < 0 or dem < 0:
                raise ValueError("negative duration or demand")
            if dur == 0 or dem == 0:
                continue
            if dem > capacity:
                self.eng.add_clause(())   # single task overloads
                continue
            live.append((x, dur, dem))
        if not live:
            return None
        prop = Cumulative(live, capacity)

        def half(dem):
            return (2 * dem > capacity) + (2 * dem >= capacity)

        for weight, bound in ((lambda dem: dem, capacity), (half, 2)):
            if (sum(dur * weight(dem) for _, dur, dem in live)
                    > bound * prop.span):
                self.eng.add_clause(())   # the tasks overload their window
                return None
        self.eng.attach_propagator(prop)
        return prop


def decode_int(x, model):
    """Integer value of an IntVar under a Boolean model: the highest
    materialized bound the model asserts, or the original lower bound."""
    return x.bounds(lambda lit: 1 if model[abs(lit)] == (lit > 0) else -1)[0]


def post_at_most_one(eng, lits):
    """At most one of lits is true: one PbUpperBound with unit weights and
    strict bound 2, which it returns; fewer than two literals post nothing
    and return None."""
    if len(lits) < 2:
        return None
    return post_pb_upper_bound(eng, [(1, lit) for lit in lits], 2)


def post_pb_upper_bound(eng, terms, strict_bound):
    """Enforce sum(w * [lit true]) < strict_bound over literals of eng.
    Each literal is checked as Engine.add_clause checks one, and a bad
    argument attaches nothing."""
    if strict_bound < 0:
        raise ValueError("strict bound must be nonnegative")
    terms = [(w, eng.check_literal(lit)) for w, lit in terms]
    for w, _ in terms:
        if w <= 0:
            raise ValueError("weights must be positive")
    prop = PbUpperBound(terms, strict_bound)
    eng.attach_propagator(prop)
    return prop


class PbUpperBound(Propagator):
    """Native propagator for sum(w * lit) < bound; bound can tighten in place.

    A bound of 0 cannot hold once any term exists, so it propagates like
    bound 1: every literal is forced false and a true literal is a conflict.
    """

    def __init__(self, terms, strict_bound):
        self.terms = [(w, lit) for w, lit in terms]
        self.bound = strict_bound
        self.max_weight = max((w for w, _ in self.terms), default=0)

    @property
    def wake_on(self):
        """The term literals: only a true term raises the sum."""
        return [lit for _, lit in self.terms]

    def tighten(self, new_bound):
        if new_bound > self.bound:
            raise ValueError("bound may only tighten")
        self.bound = new_bound

    def propagate(self, view):
        lit_value = view.lit_value
        limit = max(self.bound, 1)
        total = 0
        true_lits = []
        for w, lit in self.terms:
            if lit_value(lit) > 0:
                total += w
                true_lits.append(lit)
                if total >= limit:
                    view.fail(true_lits)
                    return
        slack = limit - total
        if self.max_weight < slack:
            return
        for w, lit in self.terms:
            if w >= slack and lit_value(lit) == 0:
                if not view.enqueue(-lit, true_lits):
                    return


class HalfReifiedLinear(Propagator):
    """indicator -> sum(coef * x) >= rhs with bounds propagation."""

    def __init__(self, indicator, terms, rhs):
        self.i = indicator
        self.terms = [(c, x) for c, x in terms if c != 0]
        self.rhs = rhs

    @property
    def wake_on(self):
        """The indicator, and the order literals whose truth can enable an
        inference: a falling upper bound of a positive term (a false
        [x >= v]) and a rising lower bound of a negative one (a true
        [x >= v]).  The failure test and each pushed bound read only those
        sides; the other side of a term only suppresses its own push."""
        lits = [self.i]
        for c, x in self.terms:
            if c > 0:
                lits.extend(-lit for lit in x.geq_lits)
            else:
                lits.extend(x.geq_lits)
        return lits

    def propagate(self, view):
        if view.lit_value(self.i) <= 0:
            return
        sides = []                                       # max c * x, witness
        for c, x in self.terms:
            lb, lwit, ub, uwit = x.cur
            sides.append((c * ub, uwit) if c > 0 else (c * lb, lwit))
        total = sum(side for side, _ in sides)
        if total < self.rhs:
            view.fail([self.i] + [w for _, w in sides if w is not None])
            return
        for j, (c, x) in enumerate(self.terms):
            need = self.rhs - (total - sides[j][0])      # c * x >= need
            # cur, not sides: a push earlier in this call may have moved x
            lb, _, ub, _ = x.cur
            if c > 0:
                target = -(-need // c)                   # ceil
                if target <= lb:
                    continue
                got = x.strongest_geq(target)
                if got is None or got[0] <= lb:
                    continue
            else:
                target = need // c                       # floor, c negative
                if target >= ub:
                    continue
                got = x.strongest_leq(target)
                if got is None or got[0] >= ub:
                    continue
            reason = [self.i]
            reason.extend(w for jj, (_, w) in enumerate(sides)
                          if jj != j and w is not None)
            if not view.enqueue(got[1], reason):
                return


class Cumulative(Propagator):
    """Timetable propagation from compulsory parts, with naive explanations.

    span is the tasks' window, from the earliest original start t0 to the
    latest original end.  CpModel.post_cumulative attaches no Cumulative
    whose tasks overload span by energy, either sum(dur * demand) above
    capacity * span, or sum(dur * h(demand)) above 2 * span, where h is 2
    above half the capacity, 1 at half and 0 below (see there why both
    hold).  Timetabling cannot see energy, so those overloads are refuted
    there, at the root.

    A call reads each start's bounds once, from the kernel's IntVar.cur,
    which IntVar.bounds reads from the whole ladder: the ladders are monotone
    when a kernel calls, but not always in the brute-force tests.  A call
    in which no task has a compulsory part [ub, lb + dur) returns at once:
    every height is then 0, and no demand exceeds the capacity (the tests
    and post_cumulative both hold to that), so nothing can fail or move.
    Otherwise the profile of compulsory parts is a list over the time
    window of the start domains.  A task is skipped when neither its first
    window [lb, lb + dur) nor its last [ub, ub + dur) holds a height above
    capacity - demand outside its own compulsory part; both push loops
    would stop at once.
    """

    def __init__(self, tasks, capacity):
        # (IntVar, duration, demand, capacity - demand)
        self.tasks = [(x, dur, dem, capacity - dem) for x, dur, dem in tasks]
        self.cap = capacity
        self.t0 = min(x.lb0 for x, _, _ in tasks)
        self.span = max(x.ub0 + dur for x, dur, _ in tasks) - self.t0

    @property
    def wake_on(self):
        """The order literals of the start variables, both ways."""
        lits = [lit for x, _, _, _ in self.tasks for lit in x.geq_lits]
        return lits + [-lit for lit in lits]

    def _witnesses(self, bounds, idx):
        wits = []
        for i in idx:
            _, lwit, _, uwit = bounds[i]
            if lwit is not None:
                wits.append(lwit)
            if uwit is not None:
                wits.append(uwit)
        return wits

    def _explain(self, bounds, parts, i, a, b):
        """Witnesses of the other tasks whose compulsory part meets [a, b),
        in task order, then of task i."""
        blockers = [j for j, s, e in parts if j != i and s < b and a < e]
        blockers.append(i)
        return self._witnesses(bounds, blockers)

    def propagate(self, view):
        tasks = self.tasks
        bounds = [x.cur for x, _, _, _ in tasks]   # (lb, lwit, ub, uwit)
        parts = [(j, b[2], b[0] + task[1])         # (task, start, end)
                 for j, (b, task) in enumerate(zip(bounds, tasks))
                 if b[2] < b[0] + task[1]]
        if not parts:
            return
        cap, t0 = self.cap, self.t0
        steps = [0] * (self.span + 1)
        for j, s, e in parts:
            dem = tasks[j][2]
            steps[s - t0] += dem
            steps[e - t0] -= dem
        profile = list(accumulate(steps))     # height at time t0 + k
        top = max(profile)
        if top > cap:
            t = t0 + next(k for k, h in enumerate(profile) if h > cap)
            view.fail(self._witnesses(
                bounds, [j for j, s, e in parts if s <= t < e]))
            return
        for i, ((_, dur, dem, room), (lb, _, ub, _)) in enumerate(
                zip(tasks, bounds)):
            if top <= room:
                continue              # no height can clash with this task
            a, b = lb - t0, ub - t0
            c = a + dur
            # The task's own part [b, c) cannot clash: no height exceeds cap
            # here.  Without a clash in the rest of its first window [a, c)
            # and its last [b, b + dur), both push loops stop at once.
            first = profile[a:b if b < c else c]
            last = profile[c if c > b else b:b + dur]
            if ((not first or max(first) <= room)
                    and (not last or max(last) <= room)):
                continue
            own = range(b, c)         # empty without a compulsory part
            for k in own:
                profile[k] -= dem
            if not self._push(view, bounds, parts, profile, i):
                return
            for k in own:
                profile[k] += dem

    def _push(self, view, bounds, parts, profile, i):
        """Move task i's start bounds past every clash with the profile of
        the other tasks; False once the view has failed or refused.  The
        scans run over window-relative times, profile indices."""
        x, dur, _, room = self.tasks[i]
        lb, _, ub, _ = bounds[i]
        t0 = self.t0
        a, b = lb - t0, ub - t0
        s, k = a, a                   # earliest start; scan [s, s + dur)
        while k < s + dur:
            if profile[k] > room:
                s = k + 1
                if s > b:
                    view.fail(self._explain(bounds, parts, i, lb, ub + dur))
                    return False
            k += 1
        if s > a:
            got = x.strongest_geq(s + t0)
            if got is not None and got[0] > lb:
                reason = self._explain(bounds, parts, i, lb, s + t0 + dur)
                if not view.enqueue(got[1], reason):
                    return False
        e, k = b, b + dur - 1         # latest start; scan [e, e + dur) down
        while k >= e:
            if profile[k] > room:
                e = k - dur
                if e < a:
                    view.fail(self._explain(bounds, parts, i, lb, ub + dur))
                    return False
            k -= 1
        if e < b:
            got = x.strongest_leq(e + t0)
            if got is not None and got[0] < ub:
                reason = self._explain(bounds, parts, i, e + t0, ub + dur)
                if not view.enqueue(got[1], reason):
                    return False
        return True
