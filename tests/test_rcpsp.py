"""Scheduling instances: parsing, bounds, softening, solving, benchmarking."""

import os
import subprocess
import sys

import pytest

from maxcore.engine import available_kernels
from maxcore.oracle import OracleGuardError, brute_force_schedule
from maxcore.rcpsp import (
    RcpspMax,
    RcpspParseError,
    SoftPrecedenceProblem,
    audit_schedule,
    build_model,
    generate_instance,
    generate_micro_set,
    makespan_lower_bound,
    parse_instance,
    run_benchmark,
    serialize_instance,
    soften,
    solve_schedule,
    splitmix64,
)

SAMPLE_TEXT = """\
# two tasks, one machine, one precedence
2 1
3 1
3 1
1
1 2 3
"""


def test_parse_sample():
    inst = parse_instance(SAMPLE_TEXT)
    assert inst.tasks == [(3, (1,)), (3, (1,))]
    assert inst.resources == [1]
    assert inst.precedences == [(0, 1, 3)]


@pytest.mark.parametrize("text,line_no", [
    ("", 0),
    ("2\n", 1),                                  # header arity
    ("2 1\n3 1\n3\n1\n", 3),                     # demand row wrong arity
    ("2 1\n3 1\n3 1\n1 1\n", 4),                 # capacity arity
    ("2 1\n3 1\n-3 1\n1\n", 3),                  # negative duration
    ("2 1\n3 1\n3 -1\n1\n", 3),                  # negative demand
    ("2 1\n3 1\n3 1\n-1\n", 4),                  # negative capacity
    ("2 1\n3 1\n3 1\n1\n1 3 0\n", 5),            # index out of range
    ("2 1\n3 1\n3 1\n1\n1 2\n", 5),              # precedence arity
    ("2 x\n", 1),                                # non-integer
    ("2 1\n3 1\n", 2),                           # truncated
])
def test_parse_errors_carry_line_numbers(text, line_no):
    with pytest.raises(RcpspParseError) as exc:
        parse_instance(text)
    assert exc.value.line_no == line_no


def test_round_trip_generated():
    for seed in range(6):
        inst = generate_instance(seed)
        assert parse_instance(serialize_instance(inst)) == inst


def test_round_trip_without_resources():
    inst = RcpspMax([(3, ()), (3, ())], [], [(0, 1, 3)])
    assert parse_instance(serialize_instance(inst)) == inst


# --- lower bounds -------------------------------------------------------


def test_path_bound_two_task_chain():
    inst = RcpspMax([(3, ()), (3, ())], [], [(0, 1, 3)])
    assert makespan_lower_bound(inst) >= 6


def test_energy_bound_three_unit_tasks():
    inst = RcpspMax([(1, (1,)), (1, (1,)), (1, (1,))], [1], [])
    assert makespan_lower_bound(inst) >= 3


def test_positive_lag_cycle_rejected():
    inst = RcpspMax([(1, ()), (1, ())], [], [(0, 1, 2), (1, 0, -1)])
    with pytest.raises(ValueError):
        makespan_lower_bound(inst)
    # zero-total cycles are fine: the two tasks just start in lockstep
    ok = RcpspMax([(1, ()), (1, ())], [], [(0, 1, 2), (1, 0, -2)])
    assert makespan_lower_bound(ok) >= 3


# --- softening ----------------------------------------------------------


def test_horizon_is_floor_of_alpha_l():
    inst = RcpspMax([(3, ()), (3, ())], [], [(0, 1, 3)])
    assert soften(inst, 0.7, l=10).horizon == 7
    assert soften(inst, 0.9, l=10).horizon == 9
    assert soften(inst, 1.0, l=10).horizon == 10
    assert soften(inst, 0.7, l=5).horizon == 3


def test_cardinality_weights_are_all_one():
    inst = generate_instance(2)
    p = soften(inst, 0.9, mode="cardinality")
    assert p.weights == [1] * len(inst.precedences)


def test_weighted_mode_is_reproducible():
    inst = generate_instance(2)
    a = soften(inst, 0.9, mode="weighted", seed=123)
    b = soften(inst, 0.9, mode="weighted", seed=123)
    c = soften(inst, 0.9, mode="weighted", seed=124)
    assert a.weights == b.weights
    assert all(1 <= w <= 10 for w in a.weights)
    if len(inst.precedences) >= 3:
        assert a.weights != c.weights


def test_weight_stream_golden_values():
    # the stream finalizer pinned bit-exactly
    assert splitmix64(0, 0) == 0xE220A8397B1DCDAF
    assert splitmix64(0, 1) == 0x6E789E6AA1B965F4
    assert splitmix64(0, 2) == 0x06C45D188009454F
    assert [1 + splitmix64(42, j) % 10 for j in range(5)] == \
        [1 + splitmix64(42, j) % 10 for j in range(5)]


def test_soften_rejections():
    inst = RcpspMax([(5, ()), (1, ())], [], [(0, 1, 5)])
    with pytest.raises(ValueError):
        soften(inst, 0.7, l=5)        # horizon 3 below longest duration 5
    with pytest.raises(ValueError):
        soften(inst, 0.0, l=5)
    with pytest.raises(ValueError):
        soften(inst, 1.5, l=5)
    with pytest.raises(ValueError):
        soften(inst, 0.9, l=10, mode="nonsense")
    with pytest.raises(ValueError):
        soften(inst, 1.0, l=-1)


def test_zero_lower_bound_has_a_schedule():
    """Tasks of duration 0 give lower bound 0 and horizon 0, and every task
    starts at 0: every driver answers optimal with cost 0, as the oracle
    does."""
    inst = parse_instance("2 0\n0\n0\n1 2 0\n")
    assert makespan_lower_bound(inst) == 0
    p = soften(inst, 0.8)
    assert (p.lower_bound, p.horizon) == (0, 0)
    assert brute_force_schedule(p).optimum == 0
    for algo in ("bnb", "wpm1", "msu3"):
        r = solve_schedule(p, algorithm=algo)
        assert (r.status, r.cost, r.starts) == ("optimal", 0, [0, 0])


# --- model building and solving ------------------------------------------


def test_generous_horizon_costs_nothing():
    inst = RcpspMax([(3, (1,)), (3, (1,))], [1], [(0, 1, 3)])
    p = soften(inst, 1.0, l=makespan_lower_bound(inst) + 4)
    for algo in ("bnb", "wpm1", "msu3"):
        r = solve_schedule(p, algorithm=algo, kernel="python")
        assert r.status == "optimal" and r.cost == 0
        assert r.audit_cost == 0
        a, b, lag = inst.precedences[0]
        assert r.starts[b] - r.starts[a] >= lag


def test_tight_horizon_drops_the_precedence():
    inst = RcpspMax([(3, ()), (3, ())], [], [(0, 1, 3)])
    p = soften(inst, 1.0, l=5)     # both fit alone, the chain needs 6
    for algo in ("bnb", "wpm1", "msu3"):
        r = solve_schedule(p, algorithm=algo, kernel="python")
        assert r.status == "optimal" and r.cost == p.weights[0]


@pytest.mark.parametrize("algo", ["bnb", "wpm1", "msu3"])
def test_precedence_free_schedule_runs_the_driver(algo):
    # no indicator at all: the driver still runs, under the run's budget
    inst = RcpspMax([(3, (1,)), (3, (1,))], [1], [])
    p = soften(inst, 1.0)
    r = solve_schedule(p, algorithm=algo, kernel="python", conflict_budget=0)
    assert (r.status, r.cost) == ("unknown", None)
    r = solve_schedule(p, algorithm=algo, kernel="python")
    assert (r.status, r.cost, r.audit_cost) == ("optimal", 0, 0)
    assert r.opt is not None and r.opt.z_opt == 0
    assert sorted(r.starts) == [0, 3]


def test_capacity_zero_with_demand_is_infeasible():
    inst = RcpspMax([(2, (1,)), (1, (0,))], [0], [])
    p = soften(inst, 1.0, l=4)
    assert solve_schedule(p, kernel="python").status == "infeasible"


@pytest.mark.parametrize("kernel", available_kernels())
@pytest.mark.parametrize("algo", ["bnb", "wpm1", "msu3"])
def test_energy_overloads_end_before_any_driver_runs(kernel, algo):
    # at alpha 0.9 these seeds' horizons are below their energy bound
    # ceil(sum(dur * demand) / capacity); at alpha 1.0, seeds 3, 6 and 9
    # fit that bound, but their horizons are below the summed durations of
    # the tasks above half the capacity, no two of which can overlap.
    # Either bound refutes a cumulative at the root, so no driver runs and
    # no result carries one
    groups = ([(k, 0.9) for k in (0, 3, 4, 6, 8, 9)]
              + [(k, 1.0) for k in (3, 6, 9)])
    for k, alpha in groups:
        p = soften(generate_instance(k, 10, 12), alpha, mode="weighted",
                   seed=k)
        r = solve_schedule(p, algorithm=algo, kernel=kernel)
        assert (r.status, r.opt) == ("infeasible", None), (k, alpha)


def test_three_way_clash_matches_oracle():
    inst = RcpspMax(
        [(2, (1,)), (2, (1,)), (2, (1,))], [2],
        [(0, 1, 2), (0, 2, 2), (1, 2, 2)])
    p = soften(inst, 1.0, l=4)     # the chain needs 6; horizon 4 forces a drop
    oracle = brute_force_schedule(p)
    for algo in ("bnb", "wpm1", "msu3"):
        r = solve_schedule(p, algorithm=algo, kernel="python")
        assert r.status == "optimal"
        assert r.cost == oracle.optimum == r.audit_cost


def test_micro_instances_agree_with_oracle():
    for name, inst in generate_micro_set(3, seed=5):
        for mode in ("cardinality", "weighted"):
            try:
                p = soften(inst, 0.8, mode=mode, seed=11)
            except ValueError:
                continue
            oracle = brute_force_schedule(p)
            for algo in ("bnb", "wpm1", "msu3"):
                r = solve_schedule(p, algorithm=algo, kernel="python")
                if oracle.optimum is None:
                    assert r.status == "infeasible"
                else:
                    assert r.status == "optimal"
                    assert r.cost == oracle.optimum == r.audit_cost


def test_cost_nonincreasing_in_alpha():
    kept = 0
    for seed in range(12):
        inst = generate_instance(seed)
        costs = []
        for alpha in (0.7, 0.8, 0.9):
            try:
                p = soften(inst, alpha)
            except ValueError:
                costs.append(None)
                continue
            r = solve_schedule(p, algorithm="msu3", kernel="python")
            costs.append(r.cost if r.status == "optimal" else None)
            if r.status == "optimal":
                assert r.cost <= len(inst.precedences)
        present = [c for c in costs if c is not None]
        if len(present) >= 2:
            kept += 1
            assert all(x >= y for x, y in zip(present, present[1:]))
    assert kept >= 3


def test_audit_rejects_bad_schedules():
    inst = RcpspMax([(3, (1,)), (3, (1,))], [1], [(0, 1, 3)])
    p = soften(inst, 1.0, l=8)
    with pytest.raises(ValueError):
        audit_schedule(p, [0, 7])      # second task leaves the horizon
    with pytest.raises(ValueError):
        audit_schedule(p, [0, 1])      # both on the machine at t=1,2
    assert audit_schedule(p, [0, 3]) == 0
    assert audit_schedule(p, [3, 0]) == 1


def test_schedule_oracle_guard():
    inst = RcpspMax([(1, ())] * 9, [], [])
    p = soften(inst, 1.0, l=10)
    with pytest.raises(OracleGuardError):
        brute_force_schedule(p)        # 10^9 start grids


def test_build_model_returns_weighted_indicators():
    from maxcore.engine import Engine
    inst = RcpspMax([(2, ()), (2, ())], [], [(0, 1, 2)])
    p = soften(inst, 1.0, l=6, mode="weighted", seed=3)
    eng = Engine(kernel="python")
    starts, indicators = build_model(p, eng)
    assert len(starts) == 2 and len(indicators) == 1
    assert indicators[0][1] == p.weights[0]
    assert not eng.root_conflict


def test_build_model_posts_every_precedence_before_any_cumulative():
    """The kernels call propagators in attachment order, so the cheap
    precedence linears must come first to reach their fixpoint before a
    timetable runs."""
    from maxcore.cp import Cumulative, HalfReifiedLinear
    from maxcore.engine import Engine
    inst = RcpspMax([(2, (1, 1)), (3, (1, 0)), (2, (0, 1))], [1, 1],
                    [(0, 1, 2), (1, 2, 1), (2, 0, -5)])
    eng = Engine(kernel="python")
    _, indicators = build_model(soften(inst, 1.0, l=8), eng)
    kinds = [type(prop) for prop in eng.propagators]
    assert kinds == [HalfReifiedLinear] * 3 + [Cumulative] * 2
    assert len(indicators) == 3 and not eng.root_conflict


# --- benchmark harness ----------------------------------------------------


def micro_instances(k=2, seed=8):
    return [("micro", name, inst) for name, inst in generate_micro_set(k, seed)]


def test_benchmark_grid_shape_and_order():
    rows, csv_text, table = run_benchmark(
        micro_instances(2), [0.8], ["cardinality"], ["bnb", "msu3"],
        budget_s=60, stable_timing=True)
    assert len(rows) == 4
    lines = csv_text.strip().split("\n")
    assert lines[0] == ("set,alpha,mode,algorithm,instance,status,"
                        "z_opt,wall_ms,conflicts,cores,incumbents")
    assert len(lines) == 5
    keys = [(r["set"], r["alpha"], r["mode"], r["algorithm"], r["instance"])
            for r in rows]
    assert keys == sorted(keys)
    assert "bnb" in table and "msu3" in table


def test_benchmark_stable_timing_is_byte_identical():
    args = (micro_instances(2), [0.7, 0.9], ["cardinality", "weighted"],
            ["wpm1"])
    a = run_benchmark(*args, budget_s=60, seed=4, stable_timing=True)[1]
    b = run_benchmark(*args, budget_s=60, seed=4, stable_timing=True)[1]
    assert a == b
    for line in a.strip().split("\n")[1:]:
        assert line.split(",")[7] == "0.000"


def test_benchmark_in_two_processes_matches_one():
    args = (micro_instances(3), [0.9], ["cardinality"], ["bnb", "wpm1"])
    serial = run_benchmark(*args, budget_s=60, stable_timing=True)[1]
    pooled = run_benchmark(*args, budget_s=60, jobs=2, stable_timing=True)[1]
    assert pooled == serial


def test_import_loads_no_process_pool():
    # run_benchmark imports ProcessPoolExecutor only for jobs > 1
    code = ("import sys, maxcore, maxcore.cli; print(sorted(m for m in"
            " sys.modules if m.startswith(('multiprocessing',"
            " 'concurrent'))))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_benchmark_counts_timeouts_at_budget():
    rows, _, table = run_benchmark(
        micro_instances(1), [0.9], ["cardinality"], ["bnb"],
        budget_s=0, stable_timing=True)
    row = rows[0]
    if row["status"] == "infeasible":
        pytest.skip("seeded instance infeasible at this alpha")
    assert row["status"] == "unknown"
    assert "0.000 / 1" in table      # geometric mean of one budget-0 timeout


def test_benchmark_flags_infeasible_rows():
    inst = RcpspMax([(2, (1,)), (2, (1,))], [0], [])
    rows, csv_text, table = run_benchmark(
        [("bad", "b1", inst)], [1.0], ["cardinality"], ["bnb", "wpm1"],
        budget_s=60, stable_timing=True)
    assert all(r["status"] == "infeasible" for r in rows)
    assert "infeasible" in csv_text
    # every row excluded from the aggregate table: header only remains
    assert table.strip().count("\n") == 0
