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

The compiled kernel, the extension maxcore.engine._search, records the
SHA-256 of the _search.cpp it was built from, and the engine finds it on
first need, in this order:
1. an importable build beside this module, as an install or an in-place
   build (python3 setup.py build_ext --inplace) leaves it, if it was built
   from the _search.cpp beside this module; a build of another version of
   the file is refused with a warning;
2. otherwise, in a source checkout (setup.py in the directory that holds
   src/), the cached build build/kernel/<SHA-256 of _search.cpp>/, which
   setup.py build_ext makes in a child process the first time it is needed
   (a few seconds) and which later processes load as it is; a build that
   fails leaves build/kernel/<SHA-256>.failed with its reason, and later
   processes give that reason without building again until the file is
   deleted or the source changes;
3. otherwise none, and the pure kernel stands in for it.
compiled_status then says which build was loaded, or why none was.  With
MAXCORE_PURE set, default_kernel() answers "python" without looking.
"""

import importlib.machinery
import importlib.util
import os
import sys
import warnings
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cache, cached_property
from operator import index

from .errors import EngineError, MidSearchMutationError
from . import _search_py

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "_search.cpp")
_MODULE = __package__ + "._search"
_BUILDING = "building-"
_FAILED = ".failed"

# which compiled kernel _compiled() loaded, or why it loaded none
compiled_status = "compiled kernel not looked for yet"


def _sha256(data):
    """Hex SHA-256 of data.  As random.py does for SHA-512, CPython's own
    module comes first (_sha256 up to 3.11, _sha2 from 3.12): hashlib loads
    OpenSSL, about 3.6 MB of resident memory."""
    for name in ("_sha256", "_sha2", "hashlib"):
        try:
            return importlib.import_module(name).sha256(data).hexdigest()
        except ImportError:
            continue


def _digest(source):
    """Hex SHA-256 of the file source; None if it cannot be read."""
    try:
        with open(source, "rb") as f:
            return _sha256(f.read())
    except OSError:
        return None


def _built_from(module, source):
    """module, or None with a warning when its SOURCE_SHA256 is not the
    SHA-256 of source.  Without a readable source, as in an install that
    ships only the extension, there is nothing to compare and module is
    kept."""
    digest = _digest(source)
    if digest is None or getattr(module, "SOURCE_SHA256", None) == digest:
        return module
    warnings.warn(
        "%s was not built from %s; not using it (rebuild with python3 "
        "setup.py build_ext --inplace, or delete it)"
        % (getattr(module, "__file__", module), source), RuntimeWarning)
    return None


def _load(spec):
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cached_build(root, digest):
    """Path of the kernel that setup.py in the checkout root built from the
    source of this digest, building it first if needed; None with the
    reason when the build fails.  A build runs in a fresh building-*
    directory and is renamed into place whole, so a process that finds the
    directory of a digest finds a finished build; builds of other digests,
    and their failure markers, are then deleted as stale, but not a build
    still in progress.  When setup.py fails, the marker <digest>.failed
    keeps the reason line, and later processes answer it without building
    again until the marker is deleted or the source, and so the digest,
    changes; an OSError leaves no marker, since it may not recur."""
    cache_dir = os.path.join(root, "build", "kernel")
    done = os.path.join(cache_dir, digest)
    rel = os.path.join("maxcore", "engine",
                       "_search" + importlib.machinery.EXTENSION_SUFFIXES[0])
    path = os.path.join(done, rel)
    if os.path.isfile(path):
        return path, None
    marker = done + _FAILED
    retry = "; delete %s to build again" % os.path.relpath(marker, root)
    try:
        with open(marker) as f:
            return None, (f.read().strip() or "build failed") + retry
    except OSError:
        pass
    import shutil
    import subprocess
    import tempfile
    tmp = None
    try:
        os.makedirs(cache_dir, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix=_BUILDING, dir=cache_dir)
        proc = subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--build-lib", tmp,
             "--build-temp", os.path.join(tmp, "obj")],
            cwd=root, capture_output=True, text=True)
        if proc.returncode or not os.path.isfile(os.path.join(tmp, rel)):
            lines = (proc.stderr or proc.stdout).strip().splitlines()
            why = lines[-1] if lines else "build failed"
            try:
                with open(marker, "w") as f:
                    f.write(why + "\n")
            except OSError:
                return None, why
            return None, why + retry
        shutil.rmtree(os.path.join(tmp, "obj"), ignore_errors=True)
        for name in os.listdir(cache_dir):
            stale = os.path.join(cache_dir, name)
            if name.endswith(_FAILED):
                try:
                    os.remove(stale)
                except OSError:
                    pass         # another process pruned it first
            elif name != digest and not name.startswith(_BUILDING):
                shutil.rmtree(stale, ignore_errors=True)
        os.replace(tmp, done)
        tmp = None
        return path, None
    except OSError as e:
        # another process may have finished the same build first
        if os.path.isfile(path):
            return path, None
        return None, str(e)
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)


def _find_compiled(engine_dir):
    """(module, status): the compiled kernel for the _search.cpp in
    engine_dir, found as the module docstring says, or None; and a line
    that says which build was loaded or why none was."""
    source = os.path.join(engine_dir, "_search.cpp")
    why = "no %s in %s" % (_MODULE, engine_dir)
    spec = importlib.machinery.PathFinder.find_spec(_MODULE, [engine_dir])
    if spec is not None:
        try:
            module = _built_from(_load(spec), source)
        except ImportError as e:
            module, why = None, str(e)
        else:
            why = "%s was not built from %s" % (spec.origin, source)
        if module is not None:
            return module, "compiled kernel: %s" % spec.origin
    src = os.path.dirname(os.path.dirname(engine_dir))
    root = os.path.dirname(src)
    if (os.path.basename(src) != "src"
            or not os.path.isfile(os.path.join(root, "setup.py"))):
        return None, "no compiled kernel (%s); pure kernel only" % why
    digest = _digest(source)
    if digest is None:
        return None, "cannot read %s; pure kernel only" % source
    path, why = _cached_build(root, digest)
    if path is None:
        return None, "compiled kernel not built (%s); pure kernel only" % why
    try:
        module = _load(importlib.util.spec_from_file_location(_MODULE, path))
    except ImportError as e:
        return None, "compiled kernel not loaded (%s); pure kernel only" % e
    return module, "compiled kernel: %s" % os.path.relpath(path, root)


@cache
def _compiled():
    """The compiled kernel module or None, found on the first call."""
    global compiled_status
    module, compiled_status = _find_compiled(_HERE)
    return module


def available_kernels():
    names = ["python"]
    if _compiled() is not None:
        names.append("compiled")
    return names


def default_kernel():
    if os.environ.get("MAXCORE_PURE"):
        return "python"
    return "compiled" if _compiled() is not None else "python"


def _kernel_module(name):
    if name == "python":
        return _search_py
    if name == "compiled":
        module = _compiled()
        if module is None:
            raise EngineError("compiled kernel is not available")
        return module
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

    def check_literal(self, lit):
        """lit read with operator.index: TypeError if it is no integer,
        ValueError unless 0 < abs(lit) <= nvars.  add_clause and solve run
        the same check inline, since they read every literal of the hot
        path."""
        lit = index(lit)
        if lit == 0 or abs(lit) > self.nvars:
            raise ValueError("literal %d out of range" % lit)
        return lit

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
