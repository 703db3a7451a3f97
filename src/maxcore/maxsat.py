"""Weighted partial MaxSAT: data model, WCNF text format, three drivers.

The drivers share one engine contract: soft clauses are enforced through
assumption literals (WPM1) or temporary assumptions standing for singleton
clauses (MSU3), and unsatisfiable cores come back as subsets of those
assumptions.  Reported cores use 1-based positions into the input clause
list and are always sound against the original instance.
"""

import math
import time
from dataclasses import dataclass, field

from .engine import Engine
from .cp import post_at_most_one, post_pb_upper_bound

HARD = math.inf

ALGORITHMS = ("bnb", "wpm1", "msu3")


@dataclass
class WeightedClause:
    """One input clause with its weight; HARD marks hard clauses."""

    lits: tuple
    weight: object

    def is_hard(self):
        return self.weight == HARD


@dataclass
class SoftInstance:
    var_count: int
    clauses: list
    top_weight: int = 0     # hard-weight sentinel from WCNF, 0 = unset

    def check(self):
        for j, wc in enumerate(self.clauses, 1):
            if not wc.is_hard():
                if not isinstance(wc.weight, int) or wc.weight < 1:
                    raise ValueError("clause %d: weight %r invalid" % (j, wc.weight))
            for l in wc.lits:
                if l == 0 or abs(l) > self.var_count:
                    raise ValueError("clause %d: literal %d out of range" % (j, l))
        return self

    def soft_total(self):
        return sum(wc.weight for wc in self.clauses if not wc.is_hard())


class WcnfParseError(ValueError):
    def __init__(self, line_no, msg):
        super().__init__("line %d: %s" % (line_no, msg))
        self.line_no = line_no


def parse_wcnf(text):
    """Parse DIMACS WCNF: `p wcnf <vars> <clauses> <top>`, weight == top is hard."""
    header = None
    clauses = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise WcnfParseError(line_no, "duplicate header")
            parts = line.split()
            if len(parts) != 5 or parts[1] != "wcnf":
                raise WcnfParseError(line_no, "malformed header %r" % line)
            try:
                nvars, _, top = int(parts[2]), int(parts[3]), int(parts[4])
            except ValueError:
                raise WcnfParseError(line_no, "non-integer header field")
            if nvars < 0 or top < 1:
                raise WcnfParseError(line_no, "header values out of range")
            header = (nvars, top)
            continue
        if header is None:
            raise WcnfParseError(line_no, "clause before header")
        try:
            nums = [int(t) for t in line.split()]
        except ValueError:
            raise WcnfParseError(line_no, "non-integer token")
        if nums[-1] != 0:
            raise WcnfParseError(line_no, "missing terminating 0")
        weight, lits = nums[0], nums[1:-1]
        if weight <= 0:
            raise WcnfParseError(line_no, "weight %d must be positive" % weight)
        if weight > header[1]:
            raise WcnfParseError(line_no, "weight %d exceeds top" % weight)
        for l in lits:
            if l == 0:
                raise WcnfParseError(line_no, "unexpected 0 inside clause")
            if abs(l) > header[0]:
                raise WcnfParseError(line_no, "literal %d out of range" % l)
        clauses.append(WeightedClause(
            tuple(lits), HARD if weight == header[1] else weight))
    if header is None:
        raise WcnfParseError(0, "no 'p wcnf' header found")
    return SoftInstance(header[0], clauses, header[1])


def serialize_wcnf(inst):
    top = inst.top_weight
    if top < 1 or any(not wc.is_hard() and wc.weight >= top
                      for wc in inst.clauses):
        top = inst.soft_total() + 1
    out = ["p wcnf %d %d %d" % (inst.var_count, len(inst.clauses), top)]
    for wc in inst.clauses:
        w = top if wc.is_hard() else wc.weight
        out.append(" ".join([str(w)] + [str(l) for l in wc.lits] + ["0"]))
    return "\n".join(out) + "\n"


def evaluate_cost(inst, model):
    """Total weight of violated soft clauses; None if any hard one is violated."""
    cost = 0
    for wc in inst.clauses:
        if any(model[abs(l)] == (l > 0) for l in wc.lits):
            continue
        if wc.is_hard():
            return None
        cost += wc.weight
    return cost


@dataclass
class OptimizeResult:
    status: str                     # 'optimal' | 'unsatisfiable' | 'unknown'
    z_opt: int = None
    model: dict = None
    z_lower: int = 0
    cores: list = field(default_factory=list)
    incumbents: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


class _Budget:
    """A run's conflict and time budget; t0 is when the run started."""

    def __init__(self, conflicts, seconds):
        self.t0 = time.perf_counter()
        self.conflicts_left = conflicts
        self.deadline = None if seconds is None else time.monotonic() + seconds

    def exhausted(self):
        if self.conflicts_left is not None and self.conflicts_left <= 0:
            return True
        return self.deadline is not None and time.monotonic() >= self.deadline

    def args(self):
        t = None
        if self.deadline is not None:
            t = max(self.deadline - time.monotonic(), 0.0)
        return self.conflicts_left, t

    def charge(self, conflicts):
        if self.conflicts_left is not None:
            self.conflicts_left -= conflicts


def _lit_true(model, lit):
    return model[abs(lit)] == (lit > 0)


def _restrict(model, n):
    if n is None:
        return model
    return {v: model[v] for v in range(1, n + 1)}


def _start(inst, kernel, conflict_budget, time_budget_s):
    """Check inst; return (engine holding its variables, run budget)."""
    inst.check()
    budget = _Budget(conflict_budget, time_budget_s)
    eng = Engine(kernel=kernel)
    for _ in range(inst.var_count):
        eng.new_bool_var()
    return eng, budget


def _finish(status, eng, budget, *, z_opt, model, z_lower, cores, incumbents,
            meta, core_events, audit_inst):
    if audit_inst is not None and model is not None:
        meta["audit"] = evaluate_cost(audit_inst, model)
    stats = {"wall_ms": (time.perf_counter() - budget.t0) * 1000.0}
    stats.update(eng.stats)
    stats["cores"] = core_events
    stats["incumbents"] = len(incumbents)
    return OptimizeResult(status=status, z_opt=z_opt, model=model,
                          z_lower=z_lower, cores=list(cores),
                          incumbents=list(incumbents), stats=stats,
                          meta=meta)


# ---------------------------------------------------------------------------
# WPM1

class _Wpm1Soft:
    """A soft clause under WPM1, stored as lits + violators + (-assumption,)
    with clause ref ref, so it must hold while its selector assumption is
    assumed.  origin_id is the 1-based position of the input clause."""

    __slots__ = ("lits", "weight", "violators", "origin_id", "assumption",
                 "ref")

    def __init__(self, eng, lits, weight, violators, origin_id):
        self.lits = lits
        self.weight = weight
        self.violators = violators
        self.origin_id = origin_id
        self.assumption = eng.new_bool_var()
        self.ref = eng.add_clause(lits + violators + (-self.assumption,))


def _wpm1_softs(eng, clauses):
    """Post the hard clauses as they are and each soft clause under a fresh
    selector; returns the soft clauses' records."""
    records = []
    for j, wc in enumerate(clauses, 1):
        if wc.is_hard():
            eng.add_clause(wc.lits)
        else:
            records.append(_Wpm1Soft(eng, tuple(wc.lits), wc.weight, (), j))
    return records


def _wpm1_loop(eng, records, budget, decode_n, audit_inst, on_bound):
    """Solve under every record's selector; relax each core at w_min, and
    pass the running lower bound z_min to on_bound after each core.

    A core record gets a unit (-assumption,) that fixes its selector false
    for good, so its stored clause is subsumed and retracting it keeps the
    kernel; its relaxed clause, with one more violator, goes in under a
    fresh selector.  The core's fresh violators go under one at-most-one
    constraint, a PbUpperBound attached to the live kernel.
    """
    status = "unknown"
    model = None
    z_min = 0
    cores = []
    rounds = []
    while not budget.exhausted():
        cb, tb = budget.args()
        assumptions = [rec.assumption for rec in records]
        out = eng.solve(assumptions, conflict_budget=cb, time_budget_s=tb)
        budget.charge(out.conflicts)
        if out.status == "unknown":
            break
        if out.status == "sat":
            status, model = "optimal", _restrict(out.model, decode_n)
            break
        amap = {rec.assumption: rec for rec in records}
        core_recs = [amap[l] for l in out.core]
        if not core_recs:
            # hard clauses alone are unsatisfiable (the w_min = infinity case)
            status, z_min = "unsatisfiable", 0
            break
        w_min = min(rec.weight for rec in core_recs)
        z_min += w_min
        ids = tuple(sorted({rec.origin_id for rec in core_recs}))
        rounds.append({"core": ids, "w_min": w_min})
        if on_bound:
            on_bound(z_min)
        cores.append(ids)
        for rec in core_recs:
            eng.add_clause((-rec.assumption,))
        eng.retract(refs=[rec.ref for rec in core_recs])
        fresh = []
        for rec in core_recs:
            rec.assumption = eng.new_bool_var()
            if rec.weight > w_min:
                records.append(_Wpm1Soft(eng, rec.lits, rec.weight - w_min,
                                         rec.violators, rec.origin_id))
            v = eng.new_bool_var()
            rec.violators += (v,)
            rec.weight = w_min
            rec.ref = eng.add_clause(
                rec.lits + rec.violators + (-rec.assumption,))
            fresh.append(v)
        post_at_most_one(eng, fresh)
    return _finish(status, eng, budget,
                   z_opt=z_min if model is not None else None, model=model,
                   z_lower=z_min, cores=cores, incumbents=(),
                   meta={"rounds": rounds}, core_events=len(rounds),
                   audit_inst=audit_inst)


def solve_wpm1(inst, *, kernel="auto", conflict_budget=None,
               time_budget_s=None, on_bound=None):
    """Algorithm: solve with all softs enforced; each unsatisfiable core pays
    w_min into z_min and is relaxed with fresh violators, at most one of
    which may be true (a unit-weight PbUpperBound with strict bound 2).
    A relaxed clause goes in under a fresh selector, and the old selector is
    fixed false by a unit clause, so one kernel serves the whole run.
    on_bound(z_min) is called after each core with the ascending lower
    bound."""
    eng, budget = _start(inst, kernel, conflict_budget, time_budget_s)
    records = _wpm1_softs(eng, inst.clauses)
    return _wpm1_loop(eng, records, budget, inst.var_count, inst, on_bound)


# ---------------------------------------------------------------------------
# MSU3 and branch and bound

def _msu3_loop(eng, softs, temporaries, budget, decode_n, audit_inst,
               on_bound):
    """Tighten one bound sum(w * violator) < z below each model's cost z,
    and pass each such incumbent z to on_bound.

    softs is [(clause id, weight, violator literal, clause)], where each
    clause holds whenever its violator is false.  A model's cost z is the
    summed weight of the softs whose clause it falsifies, which may be below
    its violator sum.  That bound is sound: a model of cost c < z extends to
    violators v = not clause with sum c, so no optimum is cut off, and each
    incumbent is below the last.  With temporaries, every violator starts
    assumed false and cores spend those assumptions; without, this is linear
    SAT-UNSAT search, that is, branch and bound.
    """
    terms = [(w, v) for _, w, v, _ in softs]
    status = "unknown"
    incumbents = []
    best = None
    bound = None
    cores = []
    events = []
    core_events = 0
    # temporaries: (soft id, violator literal), id order
    live = [(sid, v) for sid, _, v, _ in softs] if temporaries else []
    while not budget.exhausted():
        cb, tb = budget.args()
        assumptions = [-v for _, v in live]
        out = eng.solve(assumptions, conflict_budget=cb, time_budget_s=tb)
        budget.charge(out.conflicts)
        if out.status == "unknown":
            break
        if out.status == "sat":
            model = out.model
            z = sum(w for _, w, _, clause in softs
                    if not any(_lit_true(model, l) for l in clause))
            incumbents.append(z)
            best = _restrict(model, decode_n)
            events.append({"kind": "incumbent", "z": z})
            if on_bound:
                on_bound(z)
            # next model must satisfy sum(w*v) < z; z = 0 makes that the empty clause
            if z <= 0:
                eng.add_clause(())
            elif bound is None:
                bound = post_pb_upper_bound(eng, terms, z)
            else:
                bound.tighten(z)
            continue
        core_set = set(out.core)
        in_core = [(sid, v) for sid, v in live if -v in core_set]
        ids = tuple(sid for sid, _ in in_core)
        bounded = bool(incumbents)
        events.append({"kind": "core", "temporaries": ids, "bounded": bounded})
        if not in_core:
            status = "optimal" if best is not None else "unsatisfiable"
            break
        core_events += 1
        if not bounded:
            # pre-incumbent cores are cores of the original instance
            cores.append(ids)
        dead = {sid for sid, _ in in_core}
        live = [(sid, v) for sid, v in live if sid not in dead]
    z_opt = incumbents[-1] if incumbents else None
    return _finish(status, eng, budget, z_opt=z_opt, model=best,
                   z_lower=z_opt if status == "optimal" else 0, cores=cores,
                   incumbents=incumbents, meta={"events": events},
                   core_events=core_events, audit_inst=audit_inst)


def _solve_with_violators(inst, temporaries, *, kernel="auto",
                          conflict_budget=None, time_budget_s=None,
                          on_bound=None):
    """bnb and msu3: post hard clauses as they are and each soft clause with
    a fresh violator v as (v or clause), then run the MSU3 loop.  A model
    may set v true while its clause holds, so v is an upper bound on the
    soft's cost in that model, not the cost itself."""
    eng, budget = _start(inst, kernel, conflict_budget, time_budget_s)
    softs = []
    for j, wc in enumerate(inst.clauses, 1):
        if wc.is_hard():
            eng.add_clause(wc.lits)
            continue
        v = eng.new_bool_var()
        lits = tuple(wc.lits)
        eng.add_clause((v,) + lits)
        softs.append((j, wc.weight, v, lits))
    return _msu3_loop(eng, softs, temporaries, budget, inst.var_count, inst,
                      on_bound)


def solve_bnb(inst, **kw):
    """Algorithm: violators on every soft clause; each model's cost, the
    weight of the soft clauses it falsifies, is the next incumbent, and the
    bound on the violator sum is tightened below it until unsatisfiable
    (MSU3 with no temporaries).  Keywords: kernel, conflict_budget,
    time_budget_s, and on_bound, called with each incumbent's cost, which
    descends."""
    return _solve_with_violators(inst, False, **kw)


def solve_msu3(inst, **kw):
    """Algorithm: violators everywhere plus temporary singletons keeping them
    false; cores spend temporaries, and each model's cost, the weight of the
    soft clauses it falsifies, is the next incumbent and tightens the bound
    on the violator sum below it.  Keywords as solve_bnb."""
    return _solve_with_violators(inst, True, **kw)


def solve(inst, algorithm="wpm1", **kw):
    if algorithm == "bnb":
        return solve_bnb(inst, **kw)
    if algorithm == "wpm1":
        return solve_wpm1(inst, **kw)
    if algorithm == "msu3":
        return solve_msu3(inst, **kw)
    raise ValueError("unknown algorithm %r" % algorithm)


# ---------------------------------------------------------------------------
# indicator bridge for intensional soft constraints

class IndicatorProblem:
    """Soft singleton view over an engine already holding the hard model.

    For bnb/msu3 each indicator is fused with its violator (v = not i), so no
    clause is added: the soft clause of violator -lit is (lit,), and a
    model's cost is its violator sum.  For wpm1 the singleton clause is
    materialized and then relaxed round by round.  solve() takes the
    keywords of the WCNF drivers except kernel, and on_bound gets the same
    bounds.  Solving consumes the engine, so a second solve() raises
    ValueError; build a fresh model per run.
    """

    def __init__(self, eng, indicators):
        seen = set()
        for lit, w in indicators:
            if lit == 0 or abs(lit) > eng.nvars:
                raise ValueError("indicator literal %d out of range" % lit)
            if abs(lit) in seen:
                raise ValueError("duplicate indicator literal %d" % lit)
            seen.add(abs(lit))
            if not isinstance(w, int) or w < 1:
                raise ValueError("indicator weight %r invalid" % (w,))
        self.eng = eng
        self.indicators = list(indicators)
        self.solved = False

    def solve(self, algorithm="wpm1", *, conflict_budget=None,
              time_budget_s=None, on_bound=None):
        if algorithm not in ALGORITHMS:
            raise ValueError("unknown algorithm %r" % algorithm)
        if self.solved:
            raise ValueError("solved already: solving consumes the engine")
        self.solved = True
        budget = _Budget(conflict_budget, time_budget_s)
        if algorithm == "wpm1":
            records = _wpm1_softs(self.eng, [WeightedClause((lit,), w)
                                             for lit, w in self.indicators])
            return _wpm1_loop(self.eng, records, budget, None, None, on_bound)
        softs = [(j, w, -lit, (lit,))
                 for j, (lit, w) in enumerate(self.indicators, 1)]
        return _msu3_loop(self.eng, softs, algorithm == "msu3", budget,
                          None, None, on_bound)
