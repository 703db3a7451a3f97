"""Scheduling with generalized precedences: instances, soft conversion, solving.

An instance is solved by making every precedence soft behind an indicator
variable and handing the indicators to the maxsat drivers; the hard part is
the horizon (start + duration <= horizon) plus per-resource cumulatives.
"""

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .cp import CpModel, decode_int
from .engine import Engine
from .maxsat import IndicatorProblem

MODES = ("cardinality", "weighted")


@dataclass
class RcpspMax:
    """tasks: (duration, per-resource demands); precedences: (from, to, lag),
    0-based task indices, lags may be negative."""

    tasks: list
    resources: list
    precedences: list

    def check(self):
        r = len(self.resources)
        for cap in self.resources:
            if cap < 0:
                raise ValueError("negative capacity %d" % cap)
        for i, (dur, demands) in enumerate(self.tasks):
            if dur < 0:
                raise ValueError("task %d: negative duration" % (i + 1))
            if len(demands) != r:
                raise ValueError("task %d: %d demands for %d resources"
                                 % (i + 1, len(demands), r))
            for dem in demands:
                if dem < 0:
                    raise ValueError("task %d: negative demand" % (i + 1))
        n = len(self.tasks)
        for a, b, _ in self.precedences:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError("precedence (%d,%d) out of range" % (a + 1, b + 1))
        return self


class RcpspParseError(ValueError):
    def __init__(self, line_no, msg):
        super().__init__("line %d: %s" % (line_no, msg))
        self.line_no = line_no


def parse_instance(text):
    """Parse the instance format:

    <n_tasks> <n_resources>
    <duration> <demand_1> ... <demand_r>     (one line per task)
    <capacity_1> ... <capacity_r>
    <from> <to> <lag>                        (one line per precedence, 1-based)

    Blank lines and lines starting with '#' are skipped.
    """
    rows = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append((line_no, [int(t) for t in line.split()]))
        except ValueError:
            raise RcpspParseError(line_no, "non-integer token in %r" % line)
    if not rows:
        raise RcpspParseError(0, "empty instance")
    line_no, header = rows[0]
    if len(header) != 2:
        raise RcpspParseError(line_no, "header needs <n_tasks> <n_resources>")
    n, r = header
    if n < 1 or r < 0:
        raise RcpspParseError(line_no, "header values out of range")
    # with zero resources there is no capacity line to read
    body = 1 + n + (1 if r > 0 else 0)
    if len(rows) < body:
        raise RcpspParseError(rows[-1][0], "expected %d task lines plus capacities" % n)
    tasks = []
    for line_no, nums in rows[1:1 + n]:
        if len(nums) != 1 + r:
            raise RcpspParseError(line_no, "task line needs duration plus %d demands" % r)
        if nums[0] < 0 or any(d < 0 for d in nums[1:]):
            raise RcpspParseError(line_no, "negative duration or demand")
        tasks.append((nums[0], tuple(nums[1:])))
    caps = []
    if r > 0:
        line_no, caps = rows[1 + n]
        if len(caps) != r:
            raise RcpspParseError(line_no, "capacity line needs %d values" % r)
        if any(c < 0 for c in caps):
            raise RcpspParseError(line_no, "negative capacity")
    precedences = []
    for line_no, nums in rows[body:]:
        if len(nums) != 3:
            raise RcpspParseError(line_no, "precedence line needs <from> <to> <lag>")
        a, b, lag = nums
        if not (1 <= a <= n and 1 <= b <= n):
            raise RcpspParseError(line_no, "task index out of range")
        precedences.append((a - 1, b - 1, lag))
    return RcpspMax(tasks, list(caps), precedences).check()


def serialize_instance(inst):
    out = ["%d %d" % (len(inst.tasks), len(inst.resources))]
    for dur, demands in inst.tasks:
        out.append(" ".join(str(x) for x in (dur,) + tuple(demands)))
    if inst.resources:
        out.append(" ".join(str(c) for c in inst.resources))
    for a, b, lag in inst.precedences:
        out.append("%d %d %d" % (a + 1, b + 1, lag))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# makespan bounds

def _longest_start_offsets(n, edges):
    """Bellman-Ford longest paths from a virtual source; None on positive cycle."""
    dist = [0] * n
    for _ in range(n):
        changed = False
        for a, b, lag in edges:
            if dist[a] + lag > dist[b]:
                dist[b] = dist[a] + lag
                changed = True
        if not changed:
            return dist
    return None


def makespan_lower_bound(inst):
    """Max of the nonnegative-lag path bound and the per-resource energy bound.

    Rejects instances whose precedence cycles carry positive total lag (no
    finite schedule).
    """
    inst.check()
    n = len(inst.tasks)
    if _longest_start_offsets(n, inst.precedences) is None:
        raise ValueError("positive-lag precedence cycle: no finite schedule")
    dist = _longest_start_offsets(
        n, [e for e in inst.precedences if e[2] >= 0])
    bound = max((dist[i] + inst.tasks[i][0] for i in range(n)), default=0)
    for r, cap in enumerate(inst.resources):
        energy = sum(dur * demands[r] for dur, demands in inst.tasks)
        if energy and cap > 0:
            bound = max(bound, -(-energy // cap))
    return bound


def _post_resources(mdl, inst, starts):
    """One Cumulative per resource over every task.  build_model posts
    these last, after every precedence: the kernels call propagators in
    attachment order and start again from the first after each enqueue, so
    the costly timetables then run only once the cheap linears have
    nothing left to push."""
    for r, cap in enumerate(inst.resources):
        mdl.post_cumulative([(starts[i], dur, demands[r])
                             for i, (dur, demands) in enumerate(inst.tasks)],
                            cap)


# ---------------------------------------------------------------------------
# soft conversion

def splitmix64(seed, index):
    """Stream value for (seed, index); the documented weight PRNG."""
    mask = (1 << 64) - 1
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & mask
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & mask
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & mask
    z ^= z >> 31
    return z


@dataclass
class SoftPrecedenceProblem:
    base: RcpspMax
    alpha: float
    lower_bound: int
    horizon: int
    mode: str
    weights: list
    seed: int = 0


def soften(inst, alpha, l=None, mode="cardinality", seed=0):
    """All precedences become soft against horizon floor(alpha * l)."""
    inst.check()
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    if mode not in MODES:
        raise ValueError("mode must be one of %s" % (MODES,))
    if l is None:
        l = makespan_lower_bound(inst)
    if l < 0:
        raise ValueError("lower bound must be at least 0")
    horizon = math.floor(Fraction(str(alpha)) * l)
    max_dur = max((dur for dur, _ in inst.tasks), default=0)
    if horizon < max_dur:
        raise ValueError(
            "horizon %d below longest duration %d: trivially infeasible"
            % (horizon, max_dur))
    if mode == "cardinality":
        weights = [1] * len(inst.precedences)
    else:
        weights = [1 + splitmix64(seed, j) % 10
                   for j in range(len(inst.precedences))]
    return SoftPrecedenceProblem(inst, alpha, l, horizon, mode, weights, seed)


def build_model(p, eng):
    """Hard horizon + cumulatives + one half-reified precedence per indicator.

    Returns (start IntVars, [(indicator literal, weight)]); a root conflict on
    eng afterwards means the hard part alone is infeasible.

    Posting order is propagation priority.  Every precedence's
    HalfReifiedLinear is attached before any resource's Cumulative, since
    the kernels run propagators in attachment order and go back to the
    first one after every enqueue: the cheap linears reach their fixpoint
    before each timetable call, instead of a timetable running between
    every two precedence pushes.  The variables are numbered as if the
    cumulatives came first: posting them creates none.
    """
    mdl = CpModel(engine=eng)
    starts = []
    for dur, _ in p.base.tasks:
        if p.horizon - dur < 0:
            eng.add_clause(())
            return [], []
        starts.append(mdl.new_int_var(0, p.horizon - dur))
    for s in starts:
        mdl.materialize(s)
    indicators = []
    for j, (a, b, lag) in enumerate(p.base.precedences):
        i = mdl.new_bool_var()
        mdl.post_half_reified_linear(i, [(1, starts[b]), (-1, starts[a])], lag)
        indicators.append((i, p.weights[j]))
    _post_resources(mdl, p.base, starts)
    return starts, indicators


@dataclass
class ScheduleResult:
    status: str          # 'optimal' | 'infeasible' | 'unknown'
    cost: int = None
    starts: list = None
    audit_cost: int = None
    opt: object = None   # the driver's OptimizeResult, when one ran


def audit_schedule(p, starts):
    """Soft cost of a start assignment; raises if the hard part is violated."""
    horizon = p.horizon
    for i, ((dur, _), s) in enumerate(zip(p.base.tasks, starts)):
        if not 0 <= s or s + dur > horizon:
            raise ValueError("task %d runs outside the horizon" % (i + 1))
    for r, cap in enumerate(p.base.resources):
        usage = [0] * horizon
        for (dur, demands), s in zip(p.base.tasks, starts):
            for t in range(s, s + dur):
                usage[t] += demands[r]
        if usage and max(usage) > cap:
            raise ValueError("resource %d overloaded" % (r + 1))
    return sum(w for (a, b, lag), w in zip(p.base.precedences, p.weights)
               if starts[b] - starts[a] < lag)


def solve_schedule(p, algorithm="wpm1", kernel="auto", conflict_budget=None,
                   time_budget_s=None, on_bound=None):
    """Optimize the soft-precedence problem with one of the maxsat drivers,
    run by IndicatorProblem.solve, also when there is no precedence.
    on_bound gets the driver's bounds on the soft cost: wpm1's ascending
    lower bounds, or bnb's and msu3's descending incumbents."""
    eng = Engine(kernel=kernel)
    starts, indicators = build_model(p, eng)
    if eng.root_conflict:
        return ScheduleResult("infeasible")
    res = IndicatorProblem(eng, indicators).solve(
        algorithm, conflict_budget=conflict_budget,
        time_budget_s=time_budget_s, on_bound=on_bound)
    if res.status == "unsatisfiable":
        return ScheduleResult("infeasible", opt=res)
    if res.status != "optimal":
        return ScheduleResult("unknown", opt=res)
    vals = [decode_int(x, res.model) for x in starts]
    return ScheduleResult("optimal", res.z_opt, vals,
                          audit_schedule(p, vals), res)


# ---------------------------------------------------------------------------
# seeded micro-instances

def generate_instance(seed, min_tasks=4, max_tasks=6):
    """Small random instance; guaranteed free of positive-lag cycles."""
    rng = random.Random(seed)
    for _ in range(50):
        n = rng.randint(min_tasks, max_tasks)
        r = rng.randint(1, 2)
        caps = [rng.randint(2, 4) for _ in range(r)]
        tasks = []
        for _ in range(n):
            dur = rng.randint(1, 4)
            # light demands keep the path bound ahead of the energy bound,
            # so a cut-down horizon usually stays resource-feasible
            demands = tuple(min(rng.randint(0, 2), caps[k]) for k in range(r))
            tasks.append((dur, demands))
        precedences = []
        for _ in range(rng.randint(n - 1, n + 2)):
            a, b = rng.sample(range(n), 2)
            if a > b:
                a, b = b, a
            if rng.random() < 0.25:
                # occasional maximum lag, pointing backwards with slack
                precedences.append((b, a, -rng.randint(tasks[a][0], 8)))
            else:
                lag = rng.choice([1, tasks[a][0], tasks[a][0] + rng.randint(0, 2)])
                precedences.append((a, b, lag))
        inst = RcpspMax(tasks, caps, precedences).check()
        try:
            makespan_lower_bound(inst)
        except ValueError:
            continue
        return inst
    raise RuntimeError("could not generate an acyclic instance for seed %r" % seed)


def generate_micro_set(count, seed):
    """[(name, instance)] pairs seeded deterministically from seed."""
    return [("m%02d" % (k + 1), generate_instance(seed + k))
            for k in range(count)]


# ---------------------------------------------------------------------------
# benchmark harness

CSV_COLUMNS = ("set", "alpha", "mode", "algorithm", "instance", "status",
               "z_opt", "wall_ms", "conflicts", "cores", "incumbents")


def _bench_cell(args):
    (set_name, inst, name, alpha, mode, algorithm, budget_s, seed,
     stable_timing) = args
    t0 = time.perf_counter()
    try:
        p = soften(inst, alpha, mode=mode, seed=seed)
    except ValueError:
        p = None
    if p is None:
        result = ScheduleResult("infeasible")
    else:
        result = solve_schedule(p, algorithm=algorithm, time_budget_s=budget_s)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    stats = result.opt.stats if result.opt is not None else {}
    return {
        "set": set_name,
        "alpha": str(alpha),
        "mode": mode,
        "algorithm": algorithm,
        "instance": name,
        "status": result.status,
        "z_opt": "" if result.cost is None else str(result.cost),
        "wall_ms": "0.000" if stable_timing else "%.3f" % wall_ms,
        "conflicts": str(stats.get("conflicts", 0)),
        "cores": str(stats.get("cores", 0)),
        "incumbents": str(stats.get("incumbents", 0)),
        "_seconds": wall_ms / 1000.0,
    }


def run_benchmark(instances, alphas, modes, algorithms, budget_s, *,
                  seed=0, jobs=1, stable_timing=False):
    """Run the full grid; returns (rows, csv_text, table_text).

    instances: [(set_name, instance_name, RcpspMax)].  Unknown outcomes count
    as timeouts and enter the geometric mean at the budget value.
    """
    work = []
    for set_name, name, inst in instances:
        for alpha in alphas:
            for mode in modes:
                for algorithm in algorithms:
                    work.append((set_name, inst, name, alpha, mode, algorithm,
                                 budget_s, seed, stable_timing))
    if jobs > 1:
        # imported here: it loads multiprocessing, which a serial run never uses
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_bench_cell, work))
    else:
        rows = [_bench_cell(w) for w in work]
    rows.sort(key=lambda r: (r["set"], r["alpha"], r["mode"], r["algorithm"],
                             r["instance"]))
    csv_text = format_csv(rows)
    table_text = format_table(rows, algorithms, budget_s)
    return rows, csv_text, table_text


def format_csv(rows):
    out = [",".join(CSV_COLUMNS)]
    for row in rows:
        out.append(",".join(row[c] for c in CSV_COLUMNS))
    return "\n".join(out) + "\n"


def geometric_mean(values):
    if not values:
        return 0.0
    return math.exp(sum(math.log(max(v, 1e-9)) for v in values) / len(values))


def format_table(rows, algorithms, budget_s):
    """Per (set, alpha, mode) row: geometric-mean seconds and timeout count
    per algorithm, timeouts entering the mean at the budget value."""
    cells = {}
    groups = []
    for row in rows:
        if row["status"] == "infeasible":
            continue
        key = (row["set"], row["alpha"], row["mode"])
        if key not in cells:
            cells[key] = {}
            groups.append(key)
        entry = cells[key].setdefault(row["algorithm"], [0, []])
        if row["status"] == "optimal":
            entry[1].append(row["_seconds"])
        else:
            entry[0] += 1
            entry[1].append(float(budget_s))
    header = ["set", "alpha", "mode"] + ["%s gm(s)/timeouts" % a for a in algorithms]
    lines = [header]
    for key in sorted(groups):
        line = list(key)
        for a in algorithms:
            timeouts, secs = cells[key].get(a, [0, []])
            line.append("%.3f / %d" % (geometric_mean(secs), timeouts))
        lines.append(line)
    widths = [max(len(str(line[c])) for line in lines) for c in range(len(header))]
    text = []
    for line in lines:
        text.append("  ".join(str(v).ljust(w) for v, w in zip(line, widths)).rstrip())
    return "\n".join(text) + "\n"
