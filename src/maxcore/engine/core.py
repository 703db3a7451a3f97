"""Boolean engine: persistent clause store plus one live CDCL kernel.

Literals are DIMACS-style signed ints; variable ids start at 1.  The first
solve() builds a search kernel from the clause list, and later solves run on
the same kernel, given the variables, clauses and propagators the store
gained in between: learnt clauses, variable activities and saved phases
carry over from solve to solve.  Between solves the store only grows or
forgets clauses that the unit clauses it keeps imply (retract reads them
from the kept store, and counts none of its own), and propagators only
strengthen, so every kept learnt clause stays implied and the kernel's
level 0 only grows.  Only a solve that raised drops the kernel; the next
solve rebuilds it from the store.

The engine keeps no root assignment: each kernel closes level 0 before it
opens the assumptions level, and answers a refutation there.  Only the
empty clause, which no kernel can hold, is the engine's (root_conflict).

The engine also keeps the order literals registered with it, each [x >= v]
with its integer variable x and value v, and hands them to the kernel with
the clauses, so that the kernel can keep every registered variable's bounds
(see Propagator).

A compiled kernel records the SHA-256 of the _search.cpp it was built from.
One built from another version of the file than the one beside this module
is refused with a warning, and the pure kernel stands in for it.
"""

import importlib
import os
import warnings
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from operator import index

from .errors import EngineError, MidSearchMutationError
from . import _search_py

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_search.cpp")


def _sha256(data):
    """Hex SHA-256 of data.  As random.py does for SHA-512, CPython's own
    module comes first (_sha256 up to 3.11, _sha2 from 3.12): hashlib loads
    OpenSSL, about 3.6 MB of resident memory."""
    for name in ("_sha256", "_sha2", "hashlib"):
        try:
            return importlib.import_module(name).sha256(data).hexdigest()
        except ImportError:
            continue


def _built_from(module, source):
    """module, or None with a warning when its SOURCE_SHA256 is not the
    SHA-256 of source.  Without a readable source, as in an install that
    ships only the extension, there is nothing to compare and module is
    kept."""
    try:
        with open(source, "rb") as f:
            data = f.read()
    except OSError:
        return module
    if getattr(module, "SOURCE_SHA256", None) == _sha256(data):
        return module
    warnings.warn(
        "%s was not built from %s; using the pure kernel (rebuild with "
        "python3 setup.py build_ext --inplace)"
        % (getattr(module, "__file__", module), source), RuntimeWarning)
    return None


try:
    from . import _search as _search_c
except ImportError:
    _search_c = None
else:
    _search_c = _built_from(_search_c, _SOURCE)


def available_kernels():
    names = ["python"]
    if _search_c is not None:
        names.append("compiled")
    return names


def default_kernel():
    if os.environ.get("MAXCORE_PURE"):
        return "python"
    return "compiled" if _search_c is not None else "python"


def _kernel_module(name):
    if name == "python":
        return _search_py
    if name == "compiled":
        if _search_c is None:
            raise EngineError("compiled kernel is not available")
        return _search_c
    if name == "auto":
        return _kernel_module(default_kernel())
    raise ValueError("unknown kernel %r" % name)


class Propagator:
    """Base class for constraint propagators.

    propagate(view) runs at Boolean fixpoints.  The view offers
    lit_value(lit) -> -1/0/1, enqueue(lit, reason_true_lits) and
    fail(reason_true_lits); inferences must be explained by true literals.
    lit_value raises LookupError for a literal outside +-nvars (IndexError
    on the compiled kernel, KeyError on the pure one).  The view offers
    nothing else: the bounds of an integer variable x are kernel state in
    x.cur, which the kernel keeps on its trail for every order literal
    registered with the engine (cp.IntVar), so a propagator reads x.cur
    instead of scanning x's ladder, and sees a bound that its own enqueue
    just moved.

    With wake_on None, propagate runs at every fixpoint.  A propagator may
    set wake_on to a collection of literals instead, if its output depends
    only on the values of those literals and a call infers nothing when none
    of them became true since its last call (list both l and -l to wake on
    either polarity).  It then runs at a fixpoint only if it has not run
    since the solve began, or if one of its wake_on literals became true
    since its last call began, by its own enqueue included.  A backjump
    wakes nothing, to the root as to any other level: the trail it keeps
    was a fixpoint of every propagator, since the kernel closes level 0
    before it opens the assumptions level.  The kernel reads wake_on when
    it is built and again, for every propagator, before a solve that
    follows a change of the store (a new variable, clause or propagator),
    so a wake_on may grow with the variables it watches.

    The kernel keeps the clauses it learnt from one solve to the next, so
    between solves a propagator may only strengthen its constraint (as
    PbUpperBound.tighten does), never relax it.
    """

    wake_on = None

    def propagate(self, view):
        raise NotImplementedError


@dataclass
class ClauseRec:
    ref: int
    lits: tuple


@dataclass
class SolveOutcome:
    """One solve's answer and counters; the counters count this solve only.

    conflicts leaves out a conflict at level 0, which answers unsat with an
    empty core before the assumptions level opens.

    learnts lists the learnt clauses of this solve that are still live at
    its end; clauses learnt by earlier solves on the same kernel are kept
    but not listed.  explanations lists, in creation order, the clause that
    each propagator inference of the solve stands for: an enqueue's implied
    literal followed by its negated reason, or a fail's negated reason.  The
    kernel keeps inferences as reason records, not clauses, and hands them
    over as records, the pair (heads, negs): heads[k] is record k's implied
    literal (0 for a fail) and negs[k] its negated reason.  The pair holds
    nothing else of the kernel, and len(records[0]) is the solve's record
    count.  The tuples are built the first time explanations is read, so
    explanations is not a dataclass field, and == and repr leave it out.
    """

    status: str                      # 'sat' | 'unsat' | 'unknown'
    model: dict | None = None        # var -> bool, total over current vars
    core: tuple = ()                 # subset of the assumption literals
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    learnts: list = field(default_factory=list)
    records: tuple = field(default=((), ()), repr=False, compare=False)

    @cached_property
    def explanations(self):
        return _search_py.explanations(*self.records)


class Engine:
    def __init__(self, kernel="auto"):
        """kernel is "python", "compiled" or "auto" (see default_kernel)."""
        self._kernel_name = kernel
        self.nvars = 0
        self.clauses = []            # ClauseRec in ref order
        self._next_ref = 0
        self._root_conflict = False
        self.propagators = []
        self.order_literals = []     # (literal, IntVar, value) of [x >= v]
        self._kernel = None          # the live SearchCore, None until a solve
        # nvars, next clause ref, propagators, order literals
        self._synced = (0, 0, 0, 0)
        self._in_search = False
        self.stats = {"solves": 0, "conflicts": 0, "decisions": 0,
                      "propagations": 0, "restarts": 0}

    # ------------------------------------------------------------------

    def new_bool_var(self):
        if self._in_search:
            raise MidSearchMutationError("variable created during search")
        self.nvars += 1
        return self.nvars

    def attach_propagator(self, prop):
        if self._in_search:
            raise MidSearchMutationError("propagator attached during search")
        self.propagators.append(prop)
        return prop

    def register_order_literal(self, lit, x, v):
        """Register the positive literal lit as [x >= v] of the IntVar x
        (anything with lb0, ub0 and a writable cur), so that the kernel
        keeps x.cur."""
        if self._in_search:
            raise MidSearchMutationError("order literal registered during search")
        lit = index(lit)
        if not 0 < lit <= self.nvars:
            raise ValueError("order literal %d is not a positive variable" % lit)
        self.order_literals.append((lit, x, v))

    # ------------------------------------------------------------------
    # clause store

    @property
    def root_conflict(self):
        """True once the empty clause was added: every solve then answers
        unsat with an empty core without the kernel, which cannot hold it.
        A refutation by propagation is the kernel's, at its level 0."""
        return self._root_conflict

    def add_clause(self, lits):
        """Store a clause and return its ref; None when nothing was stored
        (tautology, or the empty clause, which makes root_conflict True for
        good).  Each literal is read with operator.index, so one that is no
        integer raises TypeError, as one out of range raises ValueError, and
        nothing is stored."""
        if self._in_search:
            raise MidSearchMutationError("clause added during search")
        seen = set()
        norm = []
        for l in lits:
            l = index(l)
            if l == 0 or abs(l) > self.nvars:
                raise ValueError("literal %d out of range" % l)
            if -l in seen:
                return None                      # tautology imposes nothing
            if l not in seen:
                seen.add(l)
                norm.append(l)
        if not norm:
            self._root_conflict = True
            return None
        rec = ClauseRec(self._next_ref, tuple(norm))
        self._next_ref += 1
        self.clauses.append(rec)
        return rec.ref

    def retract(self, refs):
        """Forget stored clauses that stored unit clauses imply; return how
        many were removed.

        Each clause removed must hold a literal l such that a unit clause
        (l) is still stored after the call: the call reads the units from
        the clauses it keeps, so a second copy of a unit counts and a unit
        removed in the same call does not.  The store left then implies the
        removed clauses, so its models and the live kernel with its learnt
        clauses stay as they are: the kernel keeps its copies of the removed
        clauses, which the units satisfy at level 0 on every solve.  If any clause breaks the
        rule, ValueError, and nothing changes.  Refs that are not stored are
        ignored."""
        if self._in_search:
            raise MidSearchMutationError("clause retracted during search")
        refs = set(refs)
        keep = []
        removed = []
        units = set()                # the literals of the kept unit clauses
        for rec in self.clauses:
            if rec.ref in refs:
                removed.append(rec)
            else:
                keep.append(rec)
                if len(rec.lits) == 1:
                    units.add(rec.lits[0])
        for rec in removed:
            if units.isdisjoint(rec.lits):
                raise ValueError("clause %d holds no literal that a stored"
                                 " unit clause fixes" % rec.ref)
        self.clauses = keep
        return len(removed)

    # ------------------------------------------------------------------

    def _sync_kernel(self):
        """The live kernel, built from the store or given what the store
        gained since the last solve."""
        _, next_ref, nprops, norder = synced = self._synced
        self._synced = (self.nvars, self._next_ref, len(self.propagators),
                        len(self.order_literals))
        if self._kernel is None:
            self._kernel = _kernel_module(self._kernel_name).SearchCore(
                self.nvars,
                [rec.lits for rec in self.clauses],
                self.propagators,
                self.order_literals,
            )
        elif synced != self._synced:
            # a retract may have shortened the list, so the new clauses
            # are found by ref, not by the list's old length
            new = bisect_left(self.clauses, next_ref, key=lambda rec: rec.ref)
            self._kernel.extend(
                self.nvars,
                [rec.lits for rec in self.clauses[new:]],
                self.propagators[nprops:],
                self.order_literals[norder:],
            )
        return self._kernel

    def solve(self, assumptions=(), conflict_budget=None, time_budget_s=None):
        if self._in_search:
            raise MidSearchMutationError("solve called during search")
        assumptions = list(map(index, assumptions))
        for a in assumptions:
            if a == 0 or abs(a) > self.nvars:
                raise ValueError("assumption literal %d out of range" % a)
        self.stats["solves"] += 1
        if self._root_conflict:
            return SolveOutcome(status="unsat", core=())
        self._in_search = True
        try:
            res = self._sync_kernel().solve(
                assumptions, conflict_budget, time_budget_s)
        except BaseException:
            # a kernel left mid-search is not reused
            self._kernel = None
            raise
        finally:
            self._in_search = False
        for k in ("conflicts", "decisions", "propagations", "restarts"):
            self.stats[k] += res[k]
        out = SolveOutcome(
            status=res["status"],
            conflicts=res["conflicts"],
            decisions=res["decisions"],
            propagations=res["propagations"],
            restarts=res["restarts"],
            learnts=res["learnts"],
            records=res["records"],
        )
        if res["status"] == "sat":
            values = res["model"]
            out.model = {v: values[v] > 0 for v in range(1, self.nvars + 1)}
        elif res["status"] == "unsat":
            out.core = tuple(res["core"])
        return out
