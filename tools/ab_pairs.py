"""Alternating parent/change pairs of perfbench runs, and the evidence a
speed claim needs from them.

Runs perfbench/run.py --workload W --seed S+i in PARENT_DIR and in
CHANGE_DIR for pair i = 0..N-1, each run in its own process, with the
parent first in even pairs and the change first in odd ones, and parses
the last line of each run's standard output, the benchmark's JSON result.
For every end-to-end metric that BENCHMARK.json (next to this script's
tools/ directory) declares, it prints each side's median and quartiles,
the change's median over the parent's, and how many pairs the change won
(ties count for neither side).  A gain holds when there are at least
MIN_GAIN_PAIRS pairs, the change wins at least nine tenths of them and the
medians differ by more than the parent's interquartile range.  A metric is
slower under the mirror rule, when the change loses at least nine tenths of
at least MIN_GAIN_PAIRS pairs and its median is worse by more than that
range, and worse than bound when the change's median is worse than the
parent's by more than its bound; a change can be both.  Each pair line
names the kernel each run used, as perfbench's "kernel X (available: ...)"
line reports it, and a note above the table says when the two sides ran
different kernels.  Run from anywhere:

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload wcnf-small \\
        --pairs 10 --seed 801

It exits 1 if any run failed or reported a wrong answer, whatever the
verdicts.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
# fewer pairs cannot tell a gain from noise: an A/A run of one tree against
# a copy of itself won 3 of 3 pairs by more than the parent's spread
MIN_GAIN_PAIRS = 10


def end_to_end_spec():
    """BENCHMARK.json's end-to-end metrics: [(name, better, bound)]."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [(m["name"], m["better"], m["bound"]) for m in bench["end_to_end"]]


def last_json(stdout):
    """The benchmark result: the last non-empty line of a run's output, a
    JSON object; ValueError if it is none."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    result = json.loads(lines[-1])
    if not isinstance(result, dict):
        raise ValueError("the last line is no JSON object")
    return result


def kernel_of(stdout):
    """The kernel a run used, from perfbench's "kernel X (available: ...)"
    line; "?" if it printed none."""
    for line in stdout.splitlines():
        if line.startswith("kernel ") and "(available:" in line:
            return line.split()[1]
    return "?"


def pair_count(text):
    """An argparse type: an integer >= 1."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError("%r is not an integer >= 1" % text)
    return n


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, spec):
    """One row per metric of spec over pairs, a list of (parent result,
    change result) dicts as perfbench prints them.  A row holds the name,
    each side's quartiles, the ratio of the medians, the change's wins and
    losses, whether the gain holds, whether the change is slower beyond
    noise and whether it is worse than the bound."""
    rows = []
    for name, better, bound in spec:
        got = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
               for p, c in pairs if name in p["metrics"]
               and name in c["metrics"]]
        if not got:
            continue
        sign = 1.0 if better == "lower" else -1.0
        parent = quartiles([p for p, _ in got])
        change = quartiles([c for _, c in got])
        wins = sum(sign * (p - c) > 0 for p, c in got)
        losses = sum(sign * (p - c) < 0 for p, c in got)
        gap = sign * (parent[1] - change[1])
        spread = parent[2] - parent[0]
        enough = len(got) >= MIN_GAIN_PAIRS
        rows.append({
            "name": name,
            "pairs": len(got),
            "parent": parent,
            "change": change,
            "ratio": change[1] / parent[1] if parent[1] else float("nan"),
            "wins": wins,
            "losses": losses,
            "gain": enough and 10 * wins >= 9 * len(got) and gap > spread,
            "slower": (enough and 10 * losses >= 9 * len(got)
                       and -gap > spread),
            "worse": -gap > bound * abs(parent[1]),
        })
    return rows


def format_rows(rows):
    out = ["%-13s %5s  %-28s %-28s %6s %5s  %s" % (
        "metric", "pairs", "parent median [q1, q3]", "change median [q1, q3]",
        "ratio", "wins", "verdict")]
    for r in rows:
        losing = [word for word, holds in (("worse than bound", r["worse"]),
                                           ("slower", r["slower"])) if holds]
        verdict = ("gain" if r["gain"] else
                   ", ".join(losing) or "within bound")
        out.append("%-13s %5d  %-28s %-28s %6.3f %2d/%-2d  %s" % (
            r["name"], r["pairs"],
            "%.4g [%.4g, %.4g]" % (r["parent"][1], r["parent"][0],
                                   r["parent"][2]),
            "%.4g [%.4g, %.4g]" % (r["change"][1], r["change"][0],
                                   r["change"][2]),
            r["ratio"], r["wins"], r["pairs"], verdict))
    return "\n".join(out)


def run_once(checkout, workload, seed):
    """The JSON result of one benchmark run in checkout, with the kernel it
    used under "kernel", or None if the run failed: it exited non-zero, its
    last line was no JSON object, or it reported a wrong answer.  For a
    failed run, the exit code, the correct
    flag and the last 2,000 characters of its standard error go to
    standard error."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed)],
        cwd=checkout, capture_output=True, text=True)
    try:
        result = last_json(proc.stdout)
    except ValueError:
        result = None
    correct = None if result is None else result.get("correct")
    if proc.returncode == 0 and correct:
        result["kernel"] = kernel_of(proc.stdout)
        return result
    sys.stderr.write("%s seed %d failed: exit code %d, correct %s\n%s\n" % (
        checkout, seed, proc.returncode, correct, proc.stderr[-2000:]))
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", metavar="PARENT_DIR")
    ap.add_argument("change", metavar="CHANGE_DIR")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=pair_count, default=10)
    ap.add_argument("--seed", type=int, default=0,
                    help="pair i runs both sides with seed SEED + i")
    args = ap.parse_args(argv)
    spec = end_to_end_spec()
    dirs = {"parent": args.parent, "change": args.change}
    pairs = []
    failed = 0
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        results = {}
        for side in order:
            results[side] = run_once(dirs[side], args.workload, seed)
        line = ", ".join(
            "%s %s" % (side, "failed" if results[side] is None else
                       "total_s %.4f (%s)" % (
                           results[side]["metrics"]["total_s"]["value"],
                           results[side].get("kernel", "?")))
            for side in order)
        print("pair %d seed %d: %s" % (i, seed, line), flush=True)
        if None in results.values():
            failed += 1
            continue
        pairs.append((results["parent"], results["change"]))
    if pairs:
        kernels = [sorted({pair[k].get("kernel", "?") for pair in pairs})
                   for k in (0, 1)]
        if kernels[0] != kernels[1]:
            print("note: the sides ran different kernels: parent %s, "
                  "change %s" % tuple(", ".join(k) for k in kernels))
        print(format_rows(summarize(pairs, spec)))
    if failed:
        print("%d of %d pairs had a failed run" % (failed, args.pairs))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
