"""Per-layer spans and counters around maxcore's public calls.

The wrappers are installed from outside the package, on the `Engine`
methods, the active kernel module's `SearchCore` constructor, each
propagator class's `propagate`, the driver entry points and the `rcpsp`
functions, so the same tracing works on either kernel and nothing inside
`src/` changes.  They are installed only for traced rounds and removed
afterwards, so untraced rounds run the original code.

A span's self time is its duration minus the time of the spans it encloses.
Every figure is attributed to the driver named in `Tracer.driver`.
"""

import time
from collections import defaultdict

from maxcore import cp, maxsat, rcpsp
from maxcore.engine import core as engine_core

# Span -> name of its self-time metric, reported per driver and summed.
# The self time of Engine.solve is the kernel's own search: the kernel build
# and the propagator calls are spans of their own.
SELF_TIME = {
    "engine.add_clause": "engine.add_clause.s",
    "engine.retract": "engine.retract.s",
    "kernel.build": "kernel.build.s",
    "engine.solve": "kernel.search.self_s",
    "cp.pb": "cp.pb.s",
    "cp.cumulative": "cp.cumulative.s",
    "cp.linear": "cp.linear.s",
    "maxsat.driver": "maxsat.driver.self_s",
    "rcpsp.build_model": "rcpsp.build_model.s",
    "rcpsp.audit": "rcpsp.audit.s",
    "rcpsp.soften": "rcpsp.soften.s",
}
PROPAGATORS = (
    ("cp.pb", cp.PbUpperBound),
    ("cp.cumulative", cp.Cumulative),
    ("cp.linear", cp.HalfReifiedLinear),
)
DRIVERS = ("solve_bnb", "solve_wpm1", "solve_msu3")
# Counts reported as per-layer metrics; each repeats exactly on a rerun.
COUNTERS = (
    "engine.add_clause.calls", "engine.retract.calls", "engine.solve.calls",
    "engine.clauses.peak", "kernel.build.clauses", "kernel.conflicts",
    "kernel.decisions", "kernel.propagations", "kernel.explanations",
    "cp.pb.calls", "cp.cumulative.calls", "cp.linear.calls",
    "maxsat.solves", "maxsat.cores", "maxsat.incumbents",
)


class _ViewProbe:
    """Kernel view handed to a traced propagator; notes whether the call
    enqueued a literal that was not already true, or failed."""

    __slots__ = ("lit_value", "_view", "useful")

    def __init__(self, view):
        self._view = view
        self.lit_value = view.lit_value
        self.useful = False

    def enqueue(self, lit, reason_lits):
        if self.lit_value(lit) != 1:
            self.useful = True
        return self._view.enqueue(lit, reason_lits)

    def fail(self, reason_lits):
        self.useful = True
        return self._view.fail(reason_lits)


class Tracer:
    """Spans and counters for one traced round, keyed by (driver, name)."""

    def __init__(self, kernel="auto"):
        # Engine.solve looks SearchCore up on this module at every call, so
        # a wrapper set here times every kernel build.
        self.kernel_module = engine_core._kernel_module(kernel)
        self.driver = None
        self.own = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []
        self._saved = []

    # -- installation ----------------------------------------------------

    def install(self):
        eng = engine_core.Engine
        self._patch(eng, "add_clause", "engine.add_clause")
        self._patch(eng, "retract", "engine.retract")
        self._patch(eng, "solve", "engine.solve", self._after_solve)
        self._patch(self.kernel_module, "SearchCore", "kernel.build",
                    self._after_build)
        for name, cls in PROPAGATORS:
            self._patch(cls, "propagate", name,
                        wrap=lambda fn, name=name: self._probed(name, fn))
        for fn_name in DRIVERS:
            self._patch(maxsat, fn_name, "maxsat.driver", self._after_driver)
        self._patch(maxsat.IndicatorProblem, "solve", "maxsat.driver",
                    self._after_driver)
        self._patch(rcpsp, "build_model", "rcpsp.build_model")
        self._patch(rcpsp, "audit_schedule", "rcpsp.audit")
        self._patch(rcpsp, "soften", "rcpsp.soften")

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attr, name, after=None, wrap=None):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        inner = wrap(original) if wrap else original
        setattr(owner, attr, self._span(name, inner, after))

    def _span(self, name, fn, after):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer._stack
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dt
                key = (tracer.driver, name)
                tracer.own[key] += dt - inner
                tracer.counts[key + (".calls",)] += 1
            if after is not None:
                after(args, out)
            return out

        return traced

    def _probed(self, name, propagate):
        def probed(prop, view):
            probe = _ViewProbe(view)
            try:
                propagate(prop, probe)
            finally:
                if probe.useful:
                    self.counts[(self.driver, name, ".useful")] += 1
        return probed

    def _count(self, name, n):
        self.counts[(self.driver, name, "")] += n

    def _after_solve(self, args, out):
        eng = args[0]
        key = (self.driver, "engine.clauses.peak", "")
        self.counts[key] = max(self.counts[key], len(eng.clauses))
        self._count("kernel.conflicts", out.conflicts)
        self._count("kernel.decisions", out.decisions)
        self._count("kernel.propagations", out.propagations)
        self._count("kernel.explanations", len(out.explanations))

    def _after_build(self, args, out):
        self._count("kernel.build.clauses", len(args[1]))

    def _after_driver(self, args, out):
        self._count("maxsat.solves", out.stats.get("solves", 0))
        self._count("maxsat.cores", out.stats.get("cores", 0))
        self._count("maxsat.incumbents", out.stats.get("incumbents", 0))

    # -- results ---------------------------------------------------------

    def reset(self):
        self.own.clear()
        self.counts.clear()

    def counters(self):
        """Per-layer counts summed over drivers; identical on every rerun."""
        out = defaultdict(int)
        for (_, name, suffix), n in self.counts.items():
            if name == "engine.clauses.peak":
                out[name] = max(out[name], n)
                continue
            out[name + suffix] += n
        return dict(out)

    def seconds(self):
        """Self seconds per layer, summed ("cp.pb.s") and per driver
        ("bnb.cp.pb.s"); a span outside any cell counts only in the sum."""
        out = dict.fromkeys(SELF_TIME.values(), 0.0)
        for (driver, name), s in self.own.items():
            metric = SELF_TIME.get(name)
            if metric is None:
                continue
            out[metric] += s
            if driver is not None:
                key = "%s.%s" % (driver, metric)
                out[key] = out.get(key, 0.0) + s
        return out
