"""Command line interface: solve, benchmark, and verify instances."""

import argparse
import math
import os
import sys

from . import maxsat, rcpsp
from .maxsat import ALGORITHMS, WcnfParseError, parse_wcnf
from .oracle import (
    OracleGuardError,
    brute_force_maxsat,
    brute_force_schedule,
    verify_core,
)
from .rcpsp import MODES, RcpspParseError, parse_instance

EXIT_OK = 0          # optimum found, unsatisfiability proven, or claims verified
EXIT_INCOMPLETE = 1  # search gave up (budget) or a claim failed
EXIT_USAGE = 2       # bad arguments, unreadable or malformed input
EXIT_GUARD = 3       # oracle refused: instance too large to enumerate


def _fail(msg):
    print("error: %s" % msg, file=sys.stderr)
    return EXIT_USAGE


def _number(what, ok, kind=float):
    """An argparse type: the kind (float or int) of the text, if ok holds
    for it; it never holds for NaN, which stands in for a text that is not
    of that kind."""
    def parse(text):
        try:
            x = kind(text)
        except ValueError:
            x = math.nan
        if not ok(x):
            raise argparse.ArgumentTypeError("%r is not %s" % (text, what))
        return x
    return parse


_alpha = _number("a number in (0, 1]", lambda a: 0 < a <= 1)
_seconds = _number("a number >= 0", lambda s: s >= 0)  # 0: unknown at once
_jobs = _number("an integer >= 1", lambda n: n >= 1, int)
_count = _number("an integer >= 0", lambda n: n >= 0, int)


def _read(path):
    with open(path) as fh:
        return fh.read()


class _OLines:
    """Deduplicating printer for 'o <value>' objective lines, passed to the
    drivers as on_bound so that each bound is printed as it is found."""

    def __init__(self):
        self.last = None

    def emit(self, z):
        if z != self.last:
            print("o %d" % z)
            self.last = z

    def answer(self, status, cost, values):
        """Print the 's' line, after the optimum's last 'o' line and before
        the 'v' line of values when status is 'optimal'; values is read
        only then.  Return the exit code."""
        if status == "optimal":
            self.emit(cost)
            print("s OPTIMUM FOUND")
            print("v " + " ".join(str(x) for x in values))
            return EXIT_OK
        if status in ("unsatisfiable", "infeasible"):
            print("s UNSATISFIABLE")
            return EXIT_OK
        print("s UNKNOWN")
        return EXIT_INCOMPLETE


# ---------------------------------------------------------------------------
# solve-wcnf

def cmd_solve_wcnf(args):
    try:
        text = _read(args.instance)
    except OSError as e:
        return _fail("cannot read %s: %s" % (args.instance, e.strerror))
    try:
        inst = parse_wcnf(text)
    except WcnfParseError as e:
        return _fail("%s: %s" % (args.instance, e))
    print("c maxcore %s on %s" % (args.algorithm, args.instance))
    print("c %d vars, %d clauses (%d hard)"
          % (inst.var_count, len(inst.clauses),
             sum(1 for wc in inst.clauses if wc.is_hard())))
    o = _OLines()
    res = maxsat.solve(inst, args.algorithm, time_budget_s=args.timeout_s,
                       on_bound=o.emit)
    return o.answer(res.status, res.z_opt,
                    (v if res.model[v] else -v
                     for v in range(1, inst.var_count + 1)))


# ---------------------------------------------------------------------------
# solve-rcpsp

def cmd_solve_rcpsp(args):
    try:
        text = _read(args.instance)
    except OSError as e:
        return _fail("cannot read %s: %s" % (args.instance, e.strerror))
    try:
        inst = parse_instance(text)
    except RcpspParseError as e:
        return _fail("%s: %s" % (args.instance, e))
    print("c maxcore %s on %s" % (args.algorithm, args.instance))
    print("c %d tasks, %d resources, %d precedences"
          % (len(inst.tasks), len(inst.resources), len(inst.precedences)))
    try:
        p = rcpsp.soften(inst, args.alpha, mode=args.mode, seed=args.seed)
    except ValueError as e:
        # no finite schedule can exist (positive-lag cycle, or the cut-down
        # horizon cannot even hold the longest task)
        print("c %s" % e)
        print("s UNSATISFIABLE")
        return EXIT_OK
    print("c alpha %s mode %s lower-bound %d horizon %d"
          % (args.alpha, p.mode, p.lower_bound, p.horizon))
    o = _OLines()
    r = rcpsp.solve_schedule(p, algorithm=args.algorithm,
                             time_budget_s=args.timeout_s, on_bound=o.emit)
    return o.answer(r.status, r.cost, r.starts)


# ---------------------------------------------------------------------------
# bench

def _algorithm(name):
    if name not in ALGORITHMS:
        raise argparse.ArgumentTypeError("unknown algorithm %r" % name)
    return name


def _entries(text, parse):
    """The comma-separated entries of text, each read by parse; an empty or
    repeated entry raises argparse.ArgumentTypeError, as parse does for an
    entry it refuses."""
    out = []
    for entry in text.split(","):
        if not entry:
            raise argparse.ArgumentTypeError("empty entry")
        value = parse(entry)
        if value in out:
            raise argparse.ArgumentTypeError("%r is repeated" % entry)
        out.append(value)
    return out


def cmd_bench(args):
    try:
        alphas = _entries(args.alpha, _alpha)
    except argparse.ArgumentTypeError as e:
        return _fail("bad --alpha list %r: %s" % (args.alpha, e))
    try:
        algorithms = _entries(args.algorithms, _algorithm)
    except argparse.ArgumentTypeError as e:
        return _fail("bad --algorithms list %r: %s" % (args.algorithms, e))
    modes = list(MODES) if args.mode == "both" else [args.mode]
    if args.generate:
        os.makedirs(args.directory, exist_ok=True)
        for name, inst in rcpsp.generate_micro_set(args.generate, args.seed):
            path = os.path.join(args.directory, name + ".rcpsp")
            with open(path, "w") as fh:
                fh.write(rcpsp.serialize_instance(inst))
    try:
        files = sorted(f for f in os.listdir(args.directory)
                       if f.endswith(".rcpsp"))
    except OSError as e:
        return _fail("cannot list %s: %s" % (args.directory, e.strerror))
    if not files:
        return _fail("no .rcpsp instances in %s (try --generate N)"
                     % args.directory)
    set_name = os.path.basename(os.path.normpath(args.directory))
    instances = []
    for fname in files:
        path = os.path.join(args.directory, fname)
        try:
            inst = parse_instance(_read(path))
        except OSError as e:
            return _fail("cannot read %s: %s" % (path, e.strerror))
        except RcpspParseError as e:
            return _fail("%s: %s" % (path, e))
        instances.append((set_name, fname[:-len(".rcpsp")], inst))
    rows, csv_text, table = rcpsp.run_benchmark(
        instances, alphas, modes, algorithms, budget_s=args.timeout_s,
        seed=args.seed, jobs=args.jobs, stable_timing=args.stable_timing)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(csv_text)
        print("c wrote %d rows to %s" % (len(rows), args.csv))
    print(table, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

def _sniff_format(text):
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("c"):
            continue
        return "wcnf" if line.startswith("p wcnf") else "rcpsp"
    return "wcnf"


def _parse_claims(text, n_clauses):
    """The claims of a claim file, each checked against the instance:
    n_clauses is the clause count of a WCNF instance, None for a scheduling
    instance, which takes no core claim.  ValueError names the first bad
    line."""
    claims = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind, rest = parts[0], parts[1:]
        if kind == "core":
            try:
                ids = [int(t) for t in rest]
            except ValueError:
                raise ValueError("line %d: non-integer clause id" % line_no)
            if not ids:
                raise ValueError("line %d: empty core claim" % line_no)
            if n_clauses is None:
                raise ValueError("line %d: core claims need a wcnf instance"
                                 % line_no)
            for cid in ids:
                if not 1 <= cid <= n_clauses:
                    raise ValueError("line %d: clause id %d is not in 1..%d"
                                     % (line_no, cid, n_clauses))
            claims.append(("core", ids))
        elif kind == "optimum":
            if len(rest) != 1:
                raise ValueError("line %d: optimum takes one value" % line_no)
            try:
                claims.append(("optimum", int(rest[0])))
            except ValueError:
                raise ValueError("line %d: non-integer optimum" % line_no)
        elif kind == "infeasible":
            if rest:
                raise ValueError("line %d: infeasible takes no value" % line_no)
            claims.append(("infeasible", None))
        else:
            raise ValueError("line %d: unknown claim %r" % (line_no, kind))
    if not claims:
        raise ValueError("no claims found")
    return claims


def cmd_verify(args):
    texts = []
    for path in (args.instance, args.claims):
        try:
            texts.append(_read(path))
        except OSError as e:
            return _fail("cannot read %s: %s" % (path, e.strerror))
    inst_text, claim_text = texts
    try:
        if _sniff_format(inst_text) == "wcnf":
            inst = parse_wcnf(inst_text)
            n_clauses = len(inst.clauses)
        else:
            inst = parse_instance(inst_text)
            n_clauses = None
    except (WcnfParseError, RcpspParseError) as e:
        return _fail("%s: %s" % (args.instance, e))
    try:
        claims = _parse_claims(claim_text, n_clauses)
    except ValueError as e:
        return _fail("%s: %s" % (args.claims, e))
    optimum = None
    try:
        if n_clauses is None:
            try:
                p = rcpsp.soften(inst, args.alpha, mode=args.mode,
                                 seed=args.seed)
                optimum = brute_force_schedule(p).optimum
            except ValueError:
                pass              # no finite schedule at this alpha
        elif any(k != "core" for k, _ in claims):
            optimum = brute_force_maxsat(inst).optimum
    except OracleGuardError as e:
        print("error: oracle refused: %s" % e, file=sys.stderr)
        return EXIT_GUARD

    failures = 0
    for kind, value in claims:
        if kind == "core":
            try:
                ok = verify_core(inst, value)
            except OracleGuardError as e:
                print("error: oracle refused: %s" % e, file=sys.stderr)
                return EXIT_GUARD
            label = "core %s" % " ".join(str(i) for i in value)
            extra = "" if ok else ": clauses are jointly satisfiable"
        elif kind == "optimum":
            ok = optimum == value
            label = "optimum %d" % value
            extra = "" if ok else ": oracle optimum is %s" % optimum
        else:
            ok = optimum is None
            label = "infeasible"
            extra = "" if ok else ": oracle optimum is %s" % optimum
        print("%s %s%s" % ("PASS" if ok else "FAIL", label, extra))
        failures += 0 if ok else 1
    print("verify: %d claims, %d failed" % (len(claims), failures))
    return EXIT_OK if failures == 0 else EXIT_INCOMPLETE


# ---------------------------------------------------------------------------

def _add_common_solver_args(sp):
    sp.add_argument("--algorithm", choices=ALGORITHMS, default="wpm1",
                    help="optimization driver (default: wpm1)")
    sp.add_argument("--timeout-s", type=_seconds, default=600.0,
                    help="wall-clock budget in seconds (default: 600)")


def _add_soften_args(sp):
    sp.add_argument("--alpha", type=_alpha, default=0.8,
                    help="horizon factor in (0, 1] (default: 0.8)")
    sp.add_argument("--mode", choices=MODES, default="cardinality",
                    help="precedence weights (default: cardinality)")
    sp.add_argument("--seed", type=int, default=0,
                    help="weight stream seed (default: 0)")


def build_parser():
    p = argparse.ArgumentParser(
        prog="maxcore",
        description="Core-guided soft-constraint optimization toolkit.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve-wcnf", help="optimize a weighted partial CNF file")
    sp.add_argument("instance", help="WCNF file")
    _add_common_solver_args(sp)
    sp.set_defaults(func=cmd_solve_wcnf)

    sp = sub.add_parser("solve-rcpsp",
                        help="optimize soft precedences of a scheduling instance")
    sp.add_argument("instance", help="scheduling instance file")
    _add_common_solver_args(sp)
    _add_soften_args(sp)
    sp.set_defaults(func=cmd_solve_rcpsp)

    sp = sub.add_parser("bench", help="run the benchmark grid over a directory")
    sp.add_argument("directory", help="directory of .rcpsp instance files")
    sp.add_argument("--generate", type=_count, metavar="N", default=0,
                    help="first write N seeded micro-instances into the directory")
    sp.add_argument("--alpha", default="0.7,0.8,0.9",
                    help="comma-separated horizon factors (default: 0.7,0.8,0.9)")
    sp.add_argument("--mode", choices=MODES + ("both",), default="cardinality",
                    help="weight mode, or 'both' (default: cardinality)")
    sp.add_argument("--algorithms", default=",".join(ALGORITHMS),
                    help="comma-separated drivers (default: all three)")
    sp.add_argument("--timeout-s", type=_seconds, default=600.0,
                    help="per-cell budget in seconds (default: 600)")
    sp.add_argument("--seed", type=int, default=0,
                    help="weight stream seed (default: 0)")
    sp.add_argument("--csv", metavar="PATH", help="also write rows as CSV")
    sp.add_argument("--jobs", type=_jobs, default=1,
                    help="parallel worker processes (default: 1)")
    sp.add_argument("--stable-timing", action="store_true",
                    help="write wall_ms as 0.000 so reruns are byte-identical")
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("verify",
                        help="check core/optimum claims against the oracle")
    sp.add_argument("instance", help="WCNF or scheduling instance file")
    sp.add_argument("claims", help="claim file: 'core <ids>', 'optimum <z>', "
                                   "'infeasible' lines")
    _add_soften_args(sp)
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
