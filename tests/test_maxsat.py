"""WCNF handling and the three optimization drivers."""

import random

import pytest

from maxcore import maxsat, rcpsp
from maxcore.cp import PbUpperBound
from maxcore.engine import Engine
from maxcore.maxsat import (
    ALGORITHMS,
    HARD,
    IndicatorProblem,
    SoftInstance,
    WcnfParseError,
    WeightedClause,
    evaluate_cost,
    parse_wcnf,
    serialize_wcnf,
    solve,
    solve_bnb,
    solve_msu3,
    solve_wpm1,
)
from maxcore.oracle import brute_force_maxsat, verify_core
from maxcore.rcpsp import build_model, generate_micro_set, soften
from conftest import count_builds, engine_with
from test_acceptance import WCNF_SEED, random_wcnf

SAMPLE5_WCNF = """\
c five soft unit-weight clauses
p wcnf 3 5 6
1 1 0
1 2 0
1 3 0
1 -1 -2 0
1 -1 -3 0
"""


# --- WCNF parsing and serialization -------------------------------------


def test_parse_sample5():
    inst = parse_wcnf(SAMPLE5_WCNF)
    assert inst.var_count == 3
    assert len(inst.clauses) == 5
    assert all(not wc.is_hard() and wc.weight == 1 for wc in inst.clauses)
    assert inst.clauses[3].lits == (-1, -2)


def test_parse_hard_weight():
    inst = parse_wcnf("p wcnf 2 2 10\n10 1 2 0\n3 -1 0\n")
    assert inst.clauses[0].is_hard()
    assert inst.clauses[1].weight == 3


@pytest.mark.parametrize("text,line_no", [
    ("1 1 0\n", 1),                          # clause before header
    ("p wcnf 2 1 5\np wcnf 2 1 5\n1 1 0\n", 2),   # duplicate header
    ("p wcnf two 1 5\n1 1 0\n", 1),          # malformed header
    ("p wcnf 2 1 5\n1 x 0\n", 2),            # non-integer token
    ("p wcnf 2 1 5\n0 1 0\n", 2),            # weight below 1
    ("p wcnf 2 1 5\n6 1 0\n", 2),            # weight above top
    ("p wcnf 2 1 5\n1 1 0 2 0\n", 2),        # interior terminator
    ("p wcnf 2 1 5\n1 3 0\n", 2),            # literal out of range
    ("p wcnf 2 1 5\n1 1\n", 2),              # missing terminator
    ("c only a comment\n", 0),               # missing header
])
def test_parse_errors_carry_line_numbers(text, line_no):
    with pytest.raises(WcnfParseError) as exc:
        parse_wcnf(text)
    assert exc.value.line_no == line_no


def test_round_trip(sample7):
    text = serialize_wcnf(sample7)
    back = parse_wcnf(text)
    assert back.var_count == sample7.var_count
    assert [(wc.lits, wc.weight) for wc in back.clauses] == \
           [(wc.lits, wc.weight) for wc in sample7.clauses]


def test_round_trip_with_hard():
    inst = SoftInstance(3, [
        WeightedClause((1, -2), HARD),
        WeightedClause((3,), 4),
    ])
    back = parse_wcnf(serialize_wcnf(inst))
    assert back.clauses[0].is_hard()
    assert back.clauses[1].weight == 4


def test_evaluate_cost(sample5):
    assert evaluate_cost(sample5, {1: False, 2: True, 3: True}) == 1
    assert evaluate_cost(sample5, {1: True, 2: True, 3: True}) == 2
    assert evaluate_cost(sample5, {1: False, 2: False, 3: False}) == 3
    inst = SoftInstance(1, [WeightedClause((1,), HARD), WeightedClause((-1,), 2)])
    assert evaluate_cost(inst, {1: False}) is None
    assert evaluate_cost(inst, {1: True}) == 2


# --- golden traces --------------------------------------------------------


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_sample5_optimum_all_drivers(sample5, algorithm):
    res = solve(sample5, algorithm=algorithm)
    assert res.status == "optimal"
    assert res.z_opt == 1
    assert evaluate_cost(sample5, res.model) == 1


def test_bnb_incumbents_descend(sample5):
    res = solve_bnb(sample5)
    assert res.incumbents == [3, 2, 1]
    assert all(a > b for a, b in zip(res.incumbents, res.incumbents[1:]))


def test_bnb_trace_sample5(sample5):
    # bnb is the msu3 loop started with no temporaries
    res = solve_bnb(sample5)
    assert res.status == "optimal" and res.z_opt == 1
    events = res.meta["events"]
    assert [e["z"] for e in events if e["kind"] == "incumbent"] == [3, 2, 1]
    assert events[-1] == {"kind": "core", "temporaries": (), "bounded": True}
    assert [e["kind"] for e in events].count("core") == 1
    assert res.cores == [] and res.stats["cores"] == 0


def test_wpm1_core_trace_sample5(sample5):
    res = solve_wpm1(sample5)
    assert res.status == "optimal"
    assert res.z_opt == 1
    assert [set(c) for c in res.cores] == [{1, 3, 5}]
    assert res.meta["rounds"] == [{"core": (1, 3, 5), "w_min": 1}]


def test_wpm1_core_trace_sample7(sample7):
    res = solve_wpm1(sample7)
    assert res.status == "optimal"
    assert res.z_opt == 2
    assert [set(c) for c in res.cores] == [{1, 3, 5}, {1, 2, 3, 4, 6, 7}]
    assert evaluate_cost(sample7, res.model) == 2
    for core in res.cores:
        assert verify_core(sample7, core)


def test_wpm1_bound_converges_from_below(sample7):
    res = solve_wpm1(sample7)
    opt = brute_force_maxsat(sample7).optimum
    running = 0
    for rnd in res.meta["rounds"]:
        running += rnd["w_min"]
        assert running <= opt
    assert running == opt == res.z_opt


def test_wpm1_retracts_once_per_core_round(sample7, monkeypatch):
    calls = []
    retract = Engine.retract

    def counted(eng, refs):
        calls.append(len(refs))
        return retract(eng, refs)

    monkeypatch.setattr(Engine, "retract", counted)
    res = solve_wpm1(sample7)
    assert calls == [len(core) for core in res.cores] == [3, 6]


def test_wpm1_posts_one_at_most_one_per_core(sample7, monkeypatch):
    posted = []
    added = []
    attach = Engine.attach_propagator
    add = Engine.add_clause

    def attached(eng, prop):
        posted.append(prop)
        return attach(eng, prop)

    def stored(eng, lits):
        added.append(tuple(lits))
        return add(eng, lits)

    monkeypatch.setattr(Engine, "attach_propagator", attached)
    monkeypatch.setattr(Engine, "add_clause", stored)
    # a relaxation that relaxes nothing finds the same core for ever, at no
    # conflict; the time budget ends it as unknown
    res = solve_wpm1(sample7, time_budget_s=10)
    assert res.status == "optimal"
    assert [len(core) for core in res.cores] == [3, 6]
    assert all(isinstance(prop, PbUpperBound) for prop in posted)
    assert [len(prop.terms) for prop in posted] == [3, 6]
    for prop in posted:
        assert prop.bound == 2 and {w for w, _ in prop.terms} == {1}
        fresh = {lit for _, lit in prop.terms}
        assert len(fresh) == len(prop.terms)
        assert not any(len(c) == 2 and {-l for l in c} <= fresh
                       for c in added)
        # each fresh violator relaxes a stored clause
        assert all(any(v in c for c in added) for v in fresh)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_wcnf_clauses_are_posted_in_input_order(algorithm, monkeypatch):
    # both kernels watch clauses in store order, so posting order is search:
    # hard and soft clauses go in interleaved, as the input lists them, and
    # each soft clause carries one fresh literal beside its own
    added = []
    add = Engine.add_clause

    def stored(eng, lits):
        added.append(tuple(lits))
        return add(eng, lits)

    monkeypatch.setattr(Engine, "add_clause", stored)
    inst = SoftInstance(3, [
        WeightedClause((1, 2), 2), WeightedClause((-1,), HARD),
        WeightedClause((2, 3), 1), WeightedClause((-2, -3), HARD),
        WeightedClause((3,), 4),
    ])
    solve(inst, algorithm)
    assert len(added) >= len(inst.clauses)
    for wc, lits in zip(inst.clauses, added):
        assert [l for l in lits if abs(l) <= 3] == list(wc.lits)
        assert sum(abs(l) > 3 for l in lits) == (0 if wc.is_hard() else 1)


def test_wpm1_builds_one_kernel(sample7, monkeypatch):
    # each core fixes its old selectors false before it retracts their
    # clauses, so every retract keeps the kernel
    builds = count_builds("auto", monkeypatch)
    res = solve_wpm1(sample7)
    assert res.status == "optimal" and len(res.cores) == 2
    assert len(builds) == 1


def test_wpm1_on_indicators_builds_one_kernel(monkeypatch):
    (_, inst), = generate_micro_set(1, seed=6)
    p = soften(inst, 0.9, mode="weighted", seed=1)
    eng = Engine()
    _, indicators = build_model(p, eng)
    builds = count_builds("auto", monkeypatch)
    res = IndicatorProblem(eng, indicators).solve(algorithm="wpm1")
    assert (res.status, res.z_opt, len(res.cores)) == ("optimal", 7, 3)
    assert len(builds) == 1


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_root_refutation_ends_every_driver_at_once(algorithm):
    # unit propagation refutes these hard clauses (x3 false, and x3 or x1
    # with x1 -> x3).  The kernel closes level 0 before it opens the
    # assumptions level, so the one solve finds the refutation there and
    # returns unsat with no core, before any soft selector is assumed
    res = solve(random_wcnf(WCNF_SEED + 6), algorithm)
    assert (res.status, res.cores) == ("unsatisfiable", [])
    assert (res.stats["solves"], res.stats["conflicts"]) == (1, 0)


def test_msu3_trace_sample5(sample5):
    res = solve_msu3(sample5)
    assert res.status == "optimal"
    assert res.z_opt == 1
    events = res.meta["events"]
    first_core = next(e for e in events if e["kind"] == "core")
    assert set(first_core["temporaries"]) == {1, 2, 4}
    assert not first_core["bounded"]
    assert 1 in res.incumbents
    last_core = [e for e in events if e["kind"] == "core"][-1]
    assert last_core["temporaries"] == ()
    # reported cores are the sound, bound-free ones
    assert [set(c) for c in res.cores] == [{1, 2, 4}]
    for core in res.cores:
        assert verify_core(sample5, core)


def test_unsatisfiable_hard_part():
    inst = SoftInstance(1, [
        WeightedClause((1,), HARD),
        WeightedClause((-1,), HARD),
        WeightedClause((1,), 1),
    ])
    for algorithm in ALGORITHMS:
        assert solve(inst, algorithm=algorithm).status == "unsatisfiable"


def test_all_soft_satisfiable():
    inst = SoftInstance(2, [WeightedClause((1,), 2), WeightedClause((2,), 3)])
    for algorithm in ALGORITHMS:
        res = solve(inst, algorithm=algorithm)
        assert res.status == "optimal" and res.z_opt == 0


def test_unknown_algorithm_rejected(sample5):
    with pytest.raises(ValueError):
        solve(sample5, algorithm="magic")


# --- randomized agreement -------------------------------------------------


def random_instance(rng, max_vars=9, max_clauses=18, max_weight=5, hard_frac=0.2):
    n = rng.randint(2, max_vars)
    m = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(m):
        k = rng.randint(1, min(3, n))
        vs = rng.sample(range(1, n + 1), k)
        lits = tuple(v if rng.random() < 0.5 else -v for v in vs)
        w = HARD if rng.random() < hard_frac else rng.randint(1, max_weight)
        clauses.append(WeightedClause(lits, w))
    return SoftInstance(n, clauses)


def test_drivers_agree_with_oracle():
    rng = random.Random(20210)
    for _ in range(60):
        inst = random_instance(rng)
        oracle = brute_force_maxsat(inst)
        for algorithm in ALGORITHMS:
            res = solve(inst, algorithm=algorithm)
            if oracle.optimum is None:
                assert res.status == "unsatisfiable"
                continue
            assert res.status == "optimal"
            assert res.z_opt == oracle.optimum
            assert evaluate_cost(inst, res.model) == res.z_opt
            for core in res.cores:
                assert verify_core(inst, core)


def test_incumbents_strictly_improve_random():
    rng = random.Random(31)
    for _ in range(25):
        inst = random_instance(rng)
        for fn in (solve_bnb, solve_msu3):
            res = fn(inst)
            seq = res.incumbents
            assert all(a > b for a, b in zip(seq, seq[1:]))
            if res.status == "optimal":
                assert not seq or seq[-1] == res.z_opt


# random_wcnf(0, 4, 8) of benchmarks/bench_kernels.py
RANDOM_0_4_8_WCNF = """\
p wcnf 4 8 25
8 -4 1 -2 0
3 2 -3 -1 0
25 -1 -3 4 0
1 -3 4 -1 0
25 -4 -3 0
25 -3 1 -2 0
8 4 1 0
4 3 4 0
"""


def sat_costs(inst, solves):
    """The cost on inst of the model of every satisfiable solve recorded."""
    return [evaluate_cost(inst, model)
            for status, model, *_ in solves if status == "sat"]


def test_bnb_incumbent_is_the_model_cost(solves):
    # the second model sets a violator true over a satisfied soft clause:
    # its violator sum is 8, its cost 0, and 0 proves optimal at once
    inst = parse_wcnf(RANDOM_0_4_8_WCNF)
    res = solve_bnb(inst)
    assert (res.status, res.z_opt) == ("optimal", 0)
    assert res.incumbents == [12, 0]
    assert sat_costs(inst, solves) == [12, 0]
    assert len(solves) == 3


@pytest.mark.parametrize("fn", [solve_bnb, solve_msu3])
def test_incumbents_are_model_costs_on_acceptance_batch(fn, solves):
    """Every incumbent is the cost of the model its solve returned, the
    incumbents strictly descend, and the last one is the optimum."""
    optimal = 0
    for i in range(500):
        inst = random_wcnf(WCNF_SEED + i)
        del solves[:]
        res = fn(inst)
        seq = res.incumbents
        assert seq == sat_costs(inst, solves)
        assert all(a > b for a, b in zip(seq, seq[1:]))
        if res.status == "optimal":
            assert seq[-1] == res.z_opt == res.meta["audit"]
            optimal += 1
        else:
            assert res.status == "unsatisfiable" and not seq
    assert optimal > 400


def test_budget_exhaustion_reports_unknown():
    rng = random.Random(9)
    inst = random_instance(rng, max_vars=9, max_clauses=18)
    for algorithm in ALGORITHMS:
        res = solve(inst, algorithm=algorithm, conflict_budget=0)
        assert res.status in ("unknown", "optimal", "unsatisfiable")
    # a tight conflict budget on a contradiction must come back unknown
    hard = SoftInstance(2, [
        WeightedClause((1, 2), HARD), WeightedClause((1, -2), HARD),
        WeightedClause((-1, 2), HARD), WeightedClause((-1, -2), HARD),
        WeightedClause((1,), 1),
    ])
    res = solve(hard, algorithm="bnb", conflict_budget=0)
    assert res.status == "unknown"


# --- indicator-variable front end ----------------------------------------


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_indicators_all_satisfiable(algorithm):
    eng = engine_with("auto", 3, [])
    prob = IndicatorProblem(eng, [(1, 2), (2, 3), (3, 1)])
    res = prob.solve(algorithm=algorithm)
    assert res.status == "optimal" and res.z_opt == 0
    assert all(res.model[v] for v in (1, 2, 3))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_indicators_conflict_picks_cheaper(algorithm):
    # i1 and i2 cannot both hold; giving up i1 costs 2, i2 costs 3.
    eng = engine_with("auto", 2, [(-1, -2)])
    prob = IndicatorProblem(eng, [(1, 2), (2, 3)])
    res = prob.solve(algorithm=algorithm)
    assert res.status == "optimal" and res.z_opt == 2
    assert res.model[1] is False and res.model[2] is True


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_indicator_problem_solves_once(algorithm):
    # a second solve would run on the relaxed or bounded engine of the first
    eng = engine_with("auto", 2, [(-1, -2)])
    prob = IndicatorProblem(eng, [(1, 2), (2, 3)])
    res = prob.solve(algorithm)
    assert (res.status, res.z_opt) == ("optimal", 2)
    for again in ALGORITHMS:
        with pytest.raises(ValueError, match="solved already"):
            prob.solve(again)


def test_indicator_core_ids_are_positions():
    eng = engine_with("auto", 2, [(-1, -2)])
    prob = IndicatorProblem(eng, [(1, 1), (2, 1)])
    res = prob.solve(algorithm="wpm1")
    assert res.z_opt == 1
    assert [set(c) for c in res.cores] == [{1, 2}]


def test_indicator_bnb_trace():
    eng = engine_with("auto", 2, [(-1, -2)])
    res = IndicatorProblem(eng, [(1, 2), (2, 3)]).solve(algorithm="bnb")
    assert res.z_opt == 2 and res.incumbents[-1] == 2
    events = res.meta["events"]
    assert [e["z"] for e in events if e["kind"] == "incumbent"] == \
        res.incumbents
    assert events[-1] == {"kind": "core", "temporaries": (), "bounded": True}


def test_duplicate_indicator_rejected():
    eng = engine_with("auto", 2, [])
    with pytest.raises(ValueError):
        IndicatorProblem(eng, [(1, 2), (1, 3)])


def test_nonpositive_indicator_weight_rejected():
    eng = engine_with("auto", 1, [])
    with pytest.raises(ValueError):
        IndicatorProblem(eng, [(1, 0)])


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("lit", [0, 3, -3, 1.5, "2", None])
def test_out_of_range_indicator_rejected(lit, algorithm):
    # a literal that is no integer raises TypeError before anything is
    # posted; before, 1.5 was kept, and solve() raised only after it had
    # used the engine, which consumed the problem
    eng = engine_with("auto", 2, [])
    if isinstance(lit, int):
        refused = pytest.raises(ValueError, match="indicator literal")
    else:
        refused = pytest.raises(TypeError)
    with refused:
        IndicatorProblem(eng, [(1, 1), (lit, 2)]).solve(algorithm)
    assert (eng.nvars, eng.clauses, eng.stats["solves"]) == (2, [], 0)


def test_each_front_end_reaches_one_traced_driver(sample5, monkeypatch):
    """perfbench/layers.py wraps maxsat.solve_bnb, solve_wpm1, solve_msu3
    and IndicatorProblem.solve by attribute name; each run of maxsat.solve
    or rcpsp.solve_schedule must call exactly one of them, once."""
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("solve_bnb", "solve_wpm1", "solve_msu3"):
        monkeypatch.setattr(maxsat, name, counted(name, getattr(maxsat, name)))
    monkeypatch.setattr(maxsat.IndicatorProblem, "solve",
                        counted("IndicatorProblem.solve",
                                maxsat.IndicatorProblem.solve))
    (_, inst), = generate_micro_set(1, seed=6)
    p = soften(inst, 0.9, mode="weighted", seed=1)
    for algorithm in ALGORITHMS:
        del calls[:]
        assert maxsat.solve(sample5, algorithm).status == "optimal"
        assert calls == ["solve_" + algorithm]
        del calls[:]
        assert rcpsp.solve_schedule(p, algorithm).status == "optimal"
        assert calls == ["IndicatorProblem.solve"]


def test_instance_check_rejects_bad_clauses():
    with pytest.raises(ValueError):
        SoftInstance(2, [WeightedClause((3,), 1)]).check()
    with pytest.raises(ValueError):
        SoftInstance(2, [WeightedClause((1,), 0)]).check()
    with pytest.raises(ValueError):
        SoftInstance(2, [WeightedClause((0,), 1)]).check()
