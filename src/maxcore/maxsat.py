"""Weighted partial MaxSAT: data model, WCNF text format, three drivers.

Both front ends, the WCNF one (solve_bnb, solve_wpm1, solve_msu3) and
IndicatorProblem, hand the drivers one list of soft records
(origin_id, weight, lit, clause, ref), where the stored clauses make
lit -> clause hold and ref is the stored clause's ref.  _post_soft stores
one under a fresh variable x: for wpm1 as clause + (-x,) with lit = x, the
selector it assumes; for bnb and msu3 as (x,) + clause with lit = -x, so x
is the violator.  Unsatisfiable cores come back as subsets of the assumed
lits.  Reported cores use origin_id, the 1-based position of the input
clause or indicator, and are always sound against the original instance.
"""

import math
import time
from dataclasses import dataclass, field
from operator import index

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


def _finish(status, eng, budget, *, z_opt, model, z_lower, cores, incumbents,
            meta, core_events):
    stats = {"wall_ms": (time.perf_counter() - budget.t0) * 1000.0}
    stats.update(eng.stats)
    stats["cores"] = core_events
    stats["incumbents"] = len(incumbents)
    return OptimizeResult(status=status, z_opt=z_opt, model=model,
                          z_lower=z_lower, cores=list(cores),
                          incumbents=list(incumbents), stats=stats,
                          meta=meta)


def _post_soft(eng, algorithm, origin_id, weight, clause):
    """Store clause under a fresh variable x and return its soft record.
    wpm1 stores clause + (-x,) and assumes lit = x; bnb and msu3 store
    (x,) + clause, so x is the violator and lit = -x."""
    x = eng.new_bool_var()
    if algorithm == "wpm1":
        return (origin_id, weight, x, clause, eng.add_clause(clause + (-x,)))
    return (origin_id, weight, -x, clause, eng.add_clause((x,) + clause))


def _drive(eng, softs, algorithm, budget, on_bound):
    if algorithm == "wpm1":
        return _wpm1_loop(eng, softs, budget, on_bound)
    return _msu3_loop(eng, softs, algorithm == "msu3", budget, on_bound)


# ---------------------------------------------------------------------------
# WPM1

def _wpm1_loop(eng, softs, budget, on_bound):
    """Solve under every soft's lit; relax each core at w_min, and pass the
    running lower bound z_min to on_bound after each core.

    Each soft is stored as clause + (-lit,) under ref.  A core soft gets a
    unit (-lit,) that fixes its selector false for good, so its stored
    clause is subsumed and retracting it keeps the kernel.  Its weight above
    w_min goes on as a soft of its own, and its clause, with one more
    violator, goes in at w_min under a fresh selector.  The core's fresh
    violators go under one at-most-one constraint, a PbUpperBound attached
    to the live kernel.
    """
    status = "unknown"
    model = None
    z_min = 0
    cores = []
    rounds = []
    while not budget.exhausted():
        cb, tb = budget.args()
        out = eng.solve([lit for _, _, lit, _, _ in softs],
                        conflict_budget=cb, time_budget_s=tb)
        budget.charge(out.conflicts)
        if out.status == "unknown":
            break
        if out.status == "sat":
            status, model = "optimal", out.model
            break
        at = {lit: i for i, (_, _, lit, _, _) in enumerate(softs)}
        hit = [at[l] for l in out.core]
        if not hit:
            # hard clauses alone are unsatisfiable (the w_min = infinity case)
            status, z_min = "unsatisfiable", 0
            break
        core = [softs[i] for i in hit]
        w_min = min(w for _, w, _, _, _ in core)
        z_min += w_min
        ids = tuple(sorted({j for j, _, _, _, _ in core}))
        rounds.append({"core": ids, "w_min": w_min})
        if on_bound:
            on_bound(z_min)
        cores.append(ids)
        for _, _, lit, _, _ in core:
            eng.add_clause((-lit,))
        eng.retract(refs=[ref for _, _, _, _, ref in core])
        fresh = []
        for i, (j, w, _, clause, _) in zip(hit, core):
            x = eng.new_bool_var()
            if w > w_min:
                softs.append(_post_soft(eng, "wpm1", j, w - w_min, clause))
            v = eng.new_bool_var()
            clause += (v,)
            softs[i] = (j, w_min, x, clause, eng.add_clause(clause + (-x,)))
            fresh.append(v)
        post_at_most_one(eng, fresh)
    return _finish(status, eng, budget,
                   z_opt=z_min if model is not None else None, model=model,
                   z_lower=z_min, cores=cores, incumbents=(),
                   meta={"rounds": rounds}, core_events=len(rounds))


# ---------------------------------------------------------------------------
# MSU3 and branch and bound

def _msu3_loop(eng, softs, temporaries, budget, on_bound):
    """Tighten one bound sum(w * violator) < z below each model's cost z,
    and pass each such incumbent z to on_bound.

    Each soft's violator is -lit, and its clause holds whenever the
    violator is false.  A model's cost z is the summed weight of the softs
    whose clause it falsifies, so only softs with a true violator are
    checked; z may be below the violator sum.  That bound is sound: a model
    of cost c < z extends to violators v = not clause with sum c, so no
    optimum is cut off, and each incumbent is below the last.  With
    temporaries, every soft's lit starts assumed and cores spend those
    assumptions; without, this is linear SAT-UNSAT search, that is, branch
    and bound.
    """
    terms = [(w, -lit) for _, w, lit, _, _ in softs]
    status = "unknown"
    incumbents = []
    best = None
    bound = None
    cores = []
    events = []
    core_events = 0
    # temporaries: (soft id, assumed lit), id order
    live = [(j, lit) for j, _, lit, _, _ in softs] if temporaries else []
    while not budget.exhausted():
        cb, tb = budget.args()
        out = eng.solve([lit for _, lit in live],
                        conflict_budget=cb, time_budget_s=tb)
        budget.charge(out.conflicts)
        if out.status == "unknown":
            break
        if out.status == "sat":
            best = model = out.model
            z = sum(w for _, w, lit, clause, _ in softs
                    if not _lit_true(model, lit)
                    and not any(_lit_true(model, l) for l in clause))
            incumbents.append(z)
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
        ids = tuple(j for j, lit in live if lit in core_set)
        bounded = bool(incumbents)
        events.append({"kind": "core", "temporaries": ids, "bounded": bounded})
        if not ids:
            status = "optimal" if best is not None else "unsatisfiable"
            break
        core_events += 1
        if not bounded:
            # pre-incumbent cores are cores of the original instance
            cores.append(ids)
        live = [(j, lit) for j, lit in live if lit not in core_set]
    z_opt = incumbents[-1] if incumbents else None
    return _finish(status, eng, budget, z_opt=z_opt, model=best,
                   z_lower=z_opt if status == "optimal" else 0, cores=cores,
                   incumbents=incumbents, meta={"events": events},
                   core_events=core_events)


# ---------------------------------------------------------------------------
# WCNF front end

def _solve_wcnf(inst, algorithm, *, kernel="auto", conflict_budget=None,
                time_budget_s=None, on_bound=None):
    """Post inst's clauses in input order, hard ones as they are and soft
    ones through _post_soft, and drive the soft list.  The model is cut
    down to inst's variables, and meta["audit"] is its cost under
    evaluate_cost."""
    inst.check()
    budget = _Budget(conflict_budget, time_budget_s)
    eng = Engine(kernel=kernel)
    for _ in range(inst.var_count):
        eng.new_bool_var()
    softs = []
    for j, wc in enumerate(inst.clauses, 1):
        if wc.is_hard():
            eng.add_clause(wc.lits)
        else:
            softs.append(_post_soft(eng, algorithm, j, wc.weight,
                                    tuple(wc.lits)))
    res = _drive(eng, softs, algorithm, budget, on_bound)
    if res.model is not None:
        res.model = {v: res.model[v] for v in range(1, inst.var_count + 1)}
        res.meta["audit"] = evaluate_cost(inst, res.model)
    return res


def solve_bnb(inst, **kw):
    """Algorithm: violators on every soft clause; each model's cost, the
    weight of the soft clauses it falsifies, is the next incumbent, and the
    bound on the violator sum is tightened below it until unsatisfiable
    (MSU3 with no temporaries).  Keywords: kernel, conflict_budget,
    time_budget_s, and on_bound, called with each incumbent's cost, which
    descends."""
    return _solve_wcnf(inst, "bnb", **kw)


def solve_wpm1(inst, **kw):
    """Algorithm: solve with all softs enforced; each unsatisfiable core pays
    w_min into z_min and is relaxed with fresh violators, at most one of
    which may be true (a unit-weight PbUpperBound with strict bound 2).
    A relaxed clause goes in under a fresh selector, and the old selector is
    fixed false by a unit clause, so one kernel serves the whole run.
    on_bound(z_min) is called after each core with the ascending lower
    bound.  Keywords as solve_bnb."""
    return _solve_wcnf(inst, "wpm1", **kw)


def solve_msu3(inst, **kw):
    """Algorithm: violators everywhere plus temporary singletons keeping them
    false; cores spend temporaries, and each model's cost, the weight of the
    soft clauses it falsifies, is the next incumbent and tightens the bound
    on the violator sum below it.  Keywords as solve_bnb."""
    return _solve_wcnf(inst, "msu3", **kw)


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

    Indicator j, a literal i of weight w, becomes the soft record
    (j, w, lit, (i,), ref).  Under bnb and msu3 it is its own lit, with
    violator -i, and nothing is stored (ref None), so a model's cost is its
    violator sum.  Under wpm1 the singleton clause (i,) is posted like a
    WCNF soft and relaxed round by round.  solve() takes the keywords of
    the WCNF drivers except kernel, and on_bound gets the same bounds.
    Solving consumes the engine, so a second solve() raises ValueError;
    build a fresh model per run.
    """

    def __init__(self, eng, indicators):
        seen = set()
        checked = []
        for lit, w in indicators:
            lit = index(lit)
            if lit == 0 or abs(lit) > eng.nvars:
                raise ValueError("indicator literal %d out of range" % lit)
            if abs(lit) in seen:
                raise ValueError("duplicate indicator literal %d" % lit)
            seen.add(abs(lit))
            if not isinstance(w, int) or w < 1:
                raise ValueError("indicator weight %r invalid" % (w,))
            checked.append((lit, w))
        self.eng = eng
        self.indicators = checked
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
            softs = [_post_soft(self.eng, "wpm1", j, w, (lit,))
                     for j, (lit, w) in enumerate(self.indicators, 1)]
        else:
            softs = [(j, w, lit, (lit,), None)
                     for j, (lit, w) in enumerate(self.indicators, 1)]
        return _drive(self.eng, softs, algorithm, budget, on_bound)
