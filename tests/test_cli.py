"""Command line behavior: output contracts and exit codes."""

import pytest

from maxcore.cli import main
from maxcore.maxsat import evaluate_cost, parse_wcnf
from maxcore.oracle import brute_force_schedule
from maxcore.rcpsp import audit_schedule, parse_instance, soften

EX1 = """\
c five soft unit-weight clauses
p wcnf 3 5 6
1 1 0
1 2 0
1 3 0
1 -1 -2 0
1 -1 -3 0
"""

HARD_CONTRADICTION = """\
p wcnf 1 3 4
4 1 0
4 -1 0
1 1 0
"""

TWO_TASK = """\
# two tasks, one machine, chain lag 3
2 1
3 1
3 1
1
1 2 3
"""


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out.splitlines(), out.err


def olines(lines):
    return [int(l.split()[1]) for l in lines if l.startswith("o ")]


def status(lines):
    return [l for l in lines if l.startswith("s ")][-1]


@pytest.fixture
def ex1(tmp_path):
    path = tmp_path / "ex1.wcnf"
    path.write_text(EX1)
    return str(path)


# --- solve-wcnf -----------------------------------------------------------


@pytest.mark.parametrize("algo", ["bnb", "wpm1", "msu3"])
def test_solve_wcnf_finds_optimum(capsys, ex1, algo):
    code, lines, _ = run(capsys, ["solve-wcnf", ex1, "--algorithm", algo])
    assert code == 0
    assert status(lines) == "s OPTIMUM FOUND"
    assert olines(lines)[-1] == 1
    vline = [l for l in lines if l.startswith("v ")][-1]
    model = {abs(int(t)): int(t) > 0 for t in vline.split()[1:]}
    assert evaluate_cost(parse_wcnf(EX1), model) == 1


def test_solve_wcnf_objective_line_direction(capsys, ex1):
    code, lines, _ = run(capsys, ["solve-wcnf", ex1, "--algorithm", "bnb"])
    assert olines(lines) == [3, 2, 1]     # incumbents descend
    code, lines, _ = run(capsys, ["solve-wcnf", ex1, "--algorithm", "wpm1"])
    assert olines(lines) == [1]           # lower bound reaches the optimum


def test_solve_wcnf_unsatisfiable(capsys, tmp_path):
    path = tmp_path / "hard.wcnf"
    path.write_text(HARD_CONTRADICTION)
    code, lines, _ = run(capsys, ["solve-wcnf", str(path)])
    assert code == 0
    assert status(lines) == "s UNSATISFIABLE"


def test_solve_wcnf_budget_zero_is_unknown(capsys, ex1):
    code, lines, _ = run(
        capsys, ["solve-wcnf", ex1, "--algorithm", "bnb", "--timeout-s", "0"])
    assert code == 1
    assert status(lines) == "s UNKNOWN"


def test_solve_wcnf_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.wcnf"
    path.write_text("p wcnf 2 1 3\n1 1\n")
    code, _, err = run(capsys, ["solve-wcnf", str(path)])
    assert code == 2
    assert "line 2" in err


def test_solve_wcnf_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, ["solve-wcnf", str(tmp_path / "nope.wcnf")])
    assert code == 2 and "cannot read" in err


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["solve-rcpsp", "{two}", "--alpha", "1.5"],
    ["solve-rcpsp", "{two}", "--alpha", "0"],
    ["solve-rcpsp", "{two}", "--alpha", "nan"],
    ["solve-rcpsp", "{two}", "--timeout-s", "-1"],
    ["solve-rcpsp", "{two}", "--timeout-s", "nan"],
    ["solve-wcnf", "{ex1}", "--timeout-s", "-0.5"],
    ["verify", "{two}", "{claims}", "--alpha", "1.5"],
    ["bench", "{dir}", "--alpha", "1.5,-1"],
    ["bench", "{dir}", "--alpha", "0.8,nan"],
    ["bench", "{dir}", "--timeout-s", "-1"],
    ["bench", "{dir}", "--jobs", "0"],
    ["bench", "{dir}", "--jobs", "-1"],
    ["bench", "{dir}", "--generate", "-3"],
])
def test_out_of_range_numbers_are_usage_errors(capsys, tmp_path, ex1, argv):
    """An alpha outside (0, 1], a budget below 0 or NaN, a job count below
    1 or a negative instance count is refused before any work, with exit 2
    and a message naming the option."""
    two = tmp_path / "two.rcpsp"
    two.write_text(TWO_TASK)
    claims = tmp_path / "claims.txt"
    claims.write_text("infeasible\n")
    (tmp_path / "micro").mkdir()
    paths = {"two": two, "ex1": ex1, "claims": claims,
             "dir": tmp_path / "micro"}
    try:
        code = main([a.format(**paths) for a in argv])
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert code == 2
    assert not out.out
    assert argv[-2] in out.err


# --- solve-rcpsp ----------------------------------------------------------


@pytest.fixture
def two_task(tmp_path):
    path = tmp_path / "two.rcpsp"
    path.write_text(TWO_TASK)
    return str(path)


def test_solve_rcpsp_generous_horizon(capsys, two_task):
    code, lines, _ = run(
        capsys, ["solve-rcpsp", two_task, "--alpha", "1.0"])
    assert code == 0
    assert status(lines) == "s OPTIMUM FOUND"
    assert olines(lines)[-1] == 0
    vline = [l for l in lines if l.startswith("v ")][-1]
    starts = [int(t) for t in vline.split()[1:]]
    assert starts[1] - starts[0] >= 3


def test_solve_rcpsp_resource_infeasible(capsys, two_task):
    # horizon 4 cannot hold 6 machine-slots of work
    code, lines, _ = run(
        capsys, ["solve-rcpsp", two_task, "--alpha", "0.8"])
    assert code == 0
    assert status(lines) == "s UNSATISFIABLE"


def test_solve_rcpsp_horizon_below_duration(capsys, two_task):
    code, lines, _ = run(
        capsys, ["solve-rcpsp", two_task, "--alpha", "0.4"])
    assert code == 0
    assert status(lines) == "s UNSATISFIABLE"
    assert any("trivially infeasible" in l for l in lines if l.startswith("c "))


def test_solve_rcpsp_tight_chain_drops_precedence(capsys, tmp_path):
    path = tmp_path / "chain.rcpsp"
    path.write_text("2 0\n3\n3\n1 2 3\n")    # no resources, horizon 5 < 6
    for algo in ("bnb", "wpm1", "msu3"):
        code, lines, _ = run(
            capsys, ["solve-rcpsp", str(path), "--alpha", "0.9",
                     "--algorithm", algo])
        assert code == 0
        assert status(lines) == "s OPTIMUM FOUND"
        assert olines(lines)[-1] == 1


def test_solve_rcpsp_zero_durations_is_optimal(capsys, tmp_path):
    path = tmp_path / "zero.rcpsp"
    path.write_text("2 0\n0\n0\n1 2 0\n")  # lower bound 0, horizon 0
    code, lines, _ = run(capsys, ["solve-rcpsp", str(path)])
    assert code == 0
    assert status(lines) == "s OPTIMUM FOUND"
    assert olines(lines)[-1] == 0


def test_solve_rcpsp_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.rcpsp"
    path.write_text("2 1\n3 1\n3\n1\n")
    code, _, err = run(capsys, ["solve-rcpsp", str(path)])
    assert code == 2 and "line 3" in err


# --- golden stdout --------------------------------------------------------

# Inputs of the golden runs, written into the working directory so that the
# "c maxcore ... on <file>" line does not depend on where the test runs.
GOLDEN_FILES = {
    "sample7.wcnf": """\
p wcnf 4 7 8
1 1 0
1 2 0
1 3 0
1 -1 -2 0
1 -1 -3 0
1 4 0
1 -3 -4 0
""",
    "hard.wcnf": HARD_CONTRADICTION,
    # rcpsp.generate_instance(6)
    "m.rcpsp": """\
5 1
4 1
4 0
4 1
3 2
4 0
2
3 4 1
1 5 1
3 4 4
4 5 4
4 5 3
""",
    "free.rcpsp": "2 1\n3 1\n3 1\n1\n",
    "two.rcpsp": TWO_TASK,
}

GOLDEN_ARGS = {
    "sample7": ["solve-wcnf", "sample7.wcnf"],
    "hard": ["solve-wcnf", "hard.wcnf"],
    "micro": ["solve-rcpsp", "m.rcpsp", "--alpha", "0.9", "--mode",
              "weighted", "--seed", "1"],
    "micro-budget0": ["solve-rcpsp", "m.rcpsp", "--timeout-s", "0"],
    "free": ["solve-rcpsp", "free.rcpsp", "--alpha", "1.0"],
    "two-tight": ["solve-rcpsp", "two.rcpsp", "--alpha", "0.5"],
}

# (case, algorithm) -> (exit code, stdout), as recorded; a change to the
# CLI or to how the drivers report their bounds must keep them byte for byte.
GOLDEN = {
    ("sample7", "bnb"): (0, """\
c maxcore bnb on sample7.wcnf
c 4 vars, 7 clauses (0 hard)
o 4
o 3
o 2
s OPTIMUM FOUND
v -1 2 3 4
"""),
    ("sample7", "wpm1"): (0, """\
c maxcore wpm1 on sample7.wcnf
c 4 vars, 7 clauses (0 hard)
o 1
o 2
s OPTIMUM FOUND
v -1 2 -3 4
"""),
    ("sample7", "msu3"): (0, """\
c maxcore msu3 on sample7.wcnf
c 4 vars, 7 clauses (0 hard)
o 2
s OPTIMUM FOUND
v -1 2 3 4
"""),
    ("hard", "bnb"): (0, """\
c maxcore bnb on hard.wcnf
c 1 vars, 3 clauses (2 hard)
s UNSATISFIABLE
"""),
    ("hard", "wpm1"): (0, """\
c maxcore wpm1 on hard.wcnf
c 1 vars, 3 clauses (2 hard)
s UNSATISFIABLE
"""),
    ("hard", "msu3"): (0, """\
c maxcore msu3 on hard.wcnf
c 1 vars, 3 clauses (2 hard)
s UNSATISFIABLE
"""),
    ("micro", "bnb"): (0, """\
c maxcore bnb on m.rcpsp
c 5 tasks, 1 resources, 5 precedences
c alpha 0.9 mode weighted lower-bound 12 horizon 10
o 25
o 24
o 18
o 17
o 8
o 7
s OPTIMUM FOUND
v 5 0 5 2 6
"""),
    ("micro", "wpm1"): (0, """\
c maxcore wpm1 on m.rcpsp
c 5 tasks, 1 resources, 5 precedences
c alpha 0.9 mode weighted lower-bound 12 horizon 10
o 1
o 6
o 7
s OPTIMUM FOUND
v 3 0 3 0 5
"""),
    ("micro", "msu3"): (0, """\
c maxcore msu3 on m.rcpsp
c 5 tasks, 1 resources, 5 precedences
c alpha 0.9 mode weighted lower-bound 12 horizon 10
o 8
o 7
s OPTIMUM FOUND
v 4 0 4 1 5
"""),
    ("micro-budget0", "bnb"): (1, """\
c maxcore bnb on m.rcpsp
c 5 tasks, 1 resources, 5 precedences
c alpha 0.8 mode cardinality lower-bound 12 horizon 9
s UNKNOWN
"""),
    ("micro-budget0", "wpm1"): (1, """\
c maxcore wpm1 on m.rcpsp
c 5 tasks, 1 resources, 5 precedences
c alpha 0.8 mode cardinality lower-bound 12 horizon 9
s UNKNOWN
"""),
    ("micro-budget0", "msu3"): (1, """\
c maxcore msu3 on m.rcpsp
c 5 tasks, 1 resources, 5 precedences
c alpha 0.8 mode cardinality lower-bound 12 horizon 9
s UNKNOWN
"""),
    ("free", "bnb"): (0, """\
c maxcore bnb on free.rcpsp
c 2 tasks, 1 resources, 0 precedences
c alpha 1.0 mode cardinality lower-bound 6 horizon 6
o 0
s OPTIMUM FOUND
v 0 3
"""),
    ("free", "wpm1"): (0, """\
c maxcore wpm1 on free.rcpsp
c 2 tasks, 1 resources, 0 precedences
c alpha 1.0 mode cardinality lower-bound 6 horizon 6
o 0
s OPTIMUM FOUND
v 0 3
"""),
    ("free", "msu3"): (0, """\
c maxcore msu3 on free.rcpsp
c 2 tasks, 1 resources, 0 precedences
c alpha 1.0 mode cardinality lower-bound 6 horizon 6
o 0
s OPTIMUM FOUND
v 0 3
"""),
    ("two-tight", "bnb"): (0, """\
c maxcore bnb on two.rcpsp
c 2 tasks, 1 resources, 1 precedences
c alpha 0.5 mode cardinality lower-bound 6 horizon 3
s UNSATISFIABLE
"""),
    ("two-tight", "wpm1"): (0, """\
c maxcore wpm1 on two.rcpsp
c 2 tasks, 1 resources, 1 precedences
c alpha 0.5 mode cardinality lower-bound 6 horizon 3
s UNSATISFIABLE
"""),
    ("two-tight", "msu3"): (0, """\
c maxcore msu3 on two.rcpsp
c 2 tasks, 1 resources, 1 precedences
c alpha 0.5 mode cardinality lower-bound 6 horizon 3
s UNSATISFIABLE
"""),
}


@pytest.mark.parametrize("case,algo", sorted(GOLDEN))
def test_solve_stdout_matches_golden(capsys, tmp_path, monkeypatch, case,
                                     algo):
    monkeypatch.chdir(tmp_path)
    for name, text in GOLDEN_FILES.items():
        (tmp_path / name).write_text(text)
    code = main(GOLDEN_ARGS[case] + ["--algorithm", algo])
    assert (code, capsys.readouterr().out) == GOLDEN[case, algo]


# The drivers' bounds move in these directions: bnb's and msu3's incumbents
# fall, wpm1's lower bounds rise.
DESCENDING = {"bnb": True, "msu3": True, "wpm1": False}


@pytest.mark.parametrize("algo", sorted(DESCENDING))
def test_micro_schedule_is_an_audited_optimum(capsys, tmp_path, algo):
    """The golden micro case checked without its recorded search: the 'v'
    schedule audits to the last 'o' value, which is the oracle's optimum,
    and the 'o' lines move in the driver's direction."""
    path = tmp_path / "m.rcpsp"
    path.write_text(GOLDEN_FILES["m.rcpsp"])
    code, lines, _ = run(capsys, ["solve-rcpsp", str(path)]
                         + GOLDEN_ARGS["micro"][2:] + ["--algorithm", algo])
    assert code == 0 and status(lines) == "s OPTIMUM FOUND"
    p = soften(parse_instance(GOLDEN_FILES["m.rcpsp"]), 0.9,
               mode="weighted", seed=1)
    starts = [int(t) for t in
              [l for l in lines if l.startswith("v ")][-1].split()[1:]]
    bounds = olines(lines)
    assert audit_schedule(p, starts) == bounds[-1]
    assert bounds[-1] == brute_force_schedule(p).optimum
    assert bounds == sorted(bounds, reverse=DESCENDING[algo])


# --- bench ----------------------------------------------------------------


def test_bench_grid_and_byte_identical_rerun(capsys, tmp_path):
    d = str(tmp_path / "micro")
    csv1 = tmp_path / "a.csv"
    csv2 = tmp_path / "b.csv"
    base = ["bench", d, "--alpha", "0.8", "--algorithms", "bnb,wpm1,msu3",
            "--stable-timing"]
    code, lines, _ = run(capsys, base + ["--generate", "3",
                                         "--csv", str(csv1)])
    assert code == 0
    rows = csv1.read_text().strip().split("\n")
    assert rows[0] == ("set,alpha,mode,algorithm,instance,status,"
                       "z_opt,wall_ms,conflicts,cores,incumbents")
    assert len(rows) == 1 + 9     # 3 instances x 3 algorithms x 1 alpha
    assert any("gm(s)/timeouts" in l for l in lines)
    code, _, _ = run(capsys, base + ["--csv", str(csv2)])
    assert code == 0
    assert csv1.read_bytes() == csv2.read_bytes()


def test_bench_empty_directory_is_usage_error(capsys, tmp_path):
    d = tmp_path / "empty"
    d.mkdir()
    code, _, err = run(capsys, ["bench", str(d)])
    assert code == 2 and "no .rcpsp instances" in err


def test_bench_rejects_unknown_algorithm(capsys, tmp_path):
    code, _, err = run(capsys, ["bench", str(tmp_path), "--algorithms", "dpll"])
    assert code == 2 and "unknown algorithm" in err


@pytest.mark.parametrize("option, value, why", [
    ("--algorithms", ",", "empty entry"),
    ("--algorithms", "wpm1,", "empty entry"),
    ("--algorithms", "wpm1,wpm1", "'wpm1' is repeated"),
    ("--alpha", "", "empty entry"),
    ("--alpha", "0.8,,0.9", "empty entry"),
    ("--alpha", "0.8,0.80", "'0.80' is repeated"),
])
def test_bench_rejects_empty_and_repeated_entries(capsys, tmp_path, option,
                                                  value, why):
    # refused before any instance is generated or solved
    d = tmp_path / "micro"
    code, lines, err = run(capsys, ["bench", str(d), "--generate", "1",
                                    option, value])
    assert code == 2 and not lines
    assert option in err and why in err
    assert not d.exists()


# --- verify ---------------------------------------------------------------


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_verify_passing_claims(capsys, tmp_path, ex1):
    claims = write(tmp_path, "good.txt", "# both hold\ncore 1 2 4\noptimum 1\n")
    code, lines, _ = run(capsys, ["verify", ex1, claims])
    assert code == 0
    assert sum(1 for l in lines if l.startswith("PASS ")) == 2


def test_verify_failing_claims(capsys, tmp_path, ex1):
    claims = write(tmp_path, "bad.txt", "optimum 0\ncore 1 2\n")
    code, lines, _ = run(capsys, ["verify", ex1, claims])
    assert code == 1
    fails = [l for l in lines if l.startswith("FAIL ")]
    assert len(fails) == 2
    assert any("oracle optimum is 1" in l for l in fails)


@pytest.mark.parametrize("instance, claims", [
    ("{two}", "optimum 0\ncore 1 2\n"),
    ("{ex1}", "optimum 1\ncore 1 6\n"),
    ("{ex1}", "infeasible\ncore 0\n"),
    ("{big}", "optimum 0\ncore 24\n"),
], ids=["core-on-schedule", "id-above-range", "id-zero", "oversize"])
def test_verify_checks_every_claim_before_any_verdict(capsys, tmp_path, ex1,
                                                      instance, claims):
    # a core claim on a scheduling instance, or with a clause id outside
    # 1..clauses, is a usage error even after a good claim, and even where
    # the oracle would refuse the instance
    big = ["p wcnf 23 23 100"] + ["1 %d 0" % v for v in range(1, 24)]
    paths = {"two": write(tmp_path, "two.rcpsp", TWO_TASK), "ex1": ex1,
             "big": write(tmp_path, "big.wcnf", "\n".join(big) + "\n")}
    code, lines, err = run(capsys, [
        "verify", instance.format(**paths),
        write(tmp_path, "c.txt", claims), "--alpha", "1.0"])
    assert code == 2
    assert not [l for l in lines if l.startswith(("PASS", "FAIL"))]
    assert "c.txt: line 2" in err


def test_verify_names_the_file_it_cannot_read(capsys, tmp_path, ex1):
    claims = write(tmp_path, "c.txt", "optimum 1\n")
    missing = str(tmp_path / "nope.wcnf")
    for argv in ([missing, claims], [ex1, missing]):
        code, lines, err = run(capsys, ["verify", *argv])
        assert code == 2 and not lines
        assert "cannot read %s" % missing in err


def test_verify_oversize_instance_is_refused(capsys, tmp_path):
    big = ["p wcnf 23 23 100"] + ["1 %d 0" % v for v in range(1, 24)]
    inst = write(tmp_path, "big.wcnf", "\n".join(big) + "\n")
    claims = write(tmp_path, "c.txt", "optimum 0\n")
    code, _, err = run(capsys, ["verify", inst, claims])
    assert code == 3 and "oracle refused" in err
    claims = write(tmp_path, "c2.txt", "core 1 2\n")
    code, _, err = run(capsys, ["verify", inst, claims])
    assert code == 3 and "oracle refused" in err


def test_verify_bad_claim_lines(capsys, tmp_path, ex1):
    for body in ("maximum 3\n", "", "core 9\n"):
        claims = write(tmp_path, "c.txt", body)
        code, _, err = run(capsys, ["verify", ex1, claims])
        assert code == 2, body


def test_verify_rcpsp_claims(capsys, tmp_path, two_task):
    claims = write(tmp_path, "r0.txt", "optimum 0\n")
    code, _, _ = run(capsys, ["verify", two_task, claims, "--alpha", "1.0"])
    assert code == 0
    claims = write(tmp_path, "ri.txt", "infeasible\n")
    code, _, _ = run(capsys, ["verify", two_task, claims, "--alpha", "0.8"])
    assert code == 0
    claims = write(tmp_path, "rc.txt", "core 1\n")
    code, _, err = run(capsys, ["verify", two_task, claims])
    assert code == 2 and "wcnf" in err
