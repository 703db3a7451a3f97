"""Every exit of every driver, on both front ends, against recorded answers.

Each case is solved by bnb, wpm1 and msu3 through the WCNF front end
(maxsat.solve) and through the indicator front end (IndicatorProblem.solve
over one indicator i per soft clause, with the hard clause (-i or clause)).
The whole OptimizeResult except stats["wall_ms"] must equal the answer
recorded for it, so that a change to the drivers' set-up or exit code keeps
z_opt, z_lower, model, cores, incumbents, stats and meta as they were.
Every run also streams its bounds through on_bound: bnb's and msu3's
incumbents, and wpm1's running lower bound after each core.  Every case runs
on each kernel that available_kernels() names, against the same answers.
"""

import dataclasses
from itertools import accumulate, product

import pytest

from conftest import build_sample5
from maxcore.engine import Engine, available_kernels
from maxcore.maxsat import (
    ALGORITHMS,
    HARD,
    IndicatorProblem,
    OptimizeResult,
    SoftInstance,
    WeightedClause,
    parse_wcnf,
    solve,
)

# Every driver makes progress before 3 conflicts run out, on either front
# end: bnb and msu3 hold an incumbent and wpm1 has paid for four cores
# (test_unknown_later_runs_out_after_progress checks it).
BUDGET3_WCNF = """\
p wcnf 4 12 39
2 2 -4 -3 0
39 3 1 -2 0
3 4 0
4 -3 0
4 3 2 0
3 -2 4 3 0
2 -4 0
1 1 0
4 1 -4 0
4 -4 0
39 -1 0
3 1 2 3 0
"""

# case -> (instance builder, conflict budget)
CASES = {
    "optimal": (build_sample5, None),
    "unsatisfiable": (lambda: SoftInstance(2, [
        WeightedClause((1, 2), HARD), WeightedClause((1, -2), HARD),
        WeightedClause((-1, 2), HARD), WeightedClause((-1, -2), HARD),
        WeightedClause((1,), 1),
    ]), None),
    "unknown-first": (build_sample5, 0),
    "unknown-later": (lambda: parse_wcnf(BUDGET3_WCNF), 3),
    # a 0-variable model is {}, which is falsy, and still an answer
    "no-vars": (lambda: SoftInstance(0, []), None),
    "empty-soft": (lambda: SoftInstance(0, [WeightedClause((), 2)]), None),
}


def indicator_problem(inst, kernel):
    eng = Engine(kernel=kernel)
    for _ in range(inst.var_count):
        eng.new_bool_var()
    indicators = []
    for wc in inst.clauses:
        if wc.is_hard():
            eng.add_clause(wc.lits)
            continue
        i = eng.new_bool_var()
        eng.add_clause((-i,) + wc.lits)
        indicators.append((i, wc.weight))
    return IndicatorProblem(eng, indicators)


def run(front, case, algorithm, kernel, on_bound=None):
    build, budget = CASES[case]
    if front == "wcnf":
        return solve(build(), algorithm=algorithm, kernel=kernel,
                     conflict_budget=budget, on_bound=on_bound)
    return indicator_problem(build(), kernel).solve(
        algorithm, conflict_budget=budget, on_bound=on_bound)


def on_each_kernel(argnames, grid):
    """Parametrize argnames and kernel over grid on every available kernel.
    A pure-kernel run keeps the id it had before the kernel was a parameter,
    such as wcnf-optimal-bnb; a compiled one is compiled-wcnf-optimal-bnb."""
    grid = list(grid)
    return pytest.mark.parametrize(argnames + ",kernel", [
        pytest.param(*values, kernel, id="-".join(
            values if kernel == "python" else (kernel,) + values))
        for kernel in available_kernels() for values in grid])


def answer(res):
    """The OptimizeResult's fields in declaration order, wall time left out."""
    out = []
    for f in dataclasses.fields(OptimizeResult):
        value = getattr(res, f.name)
        if f.name == "stats":
            value = {k: v for k, v in value.items() if k != "wall_ms"}
        out.append(value)
    return tuple(out)


@on_each_kernel("front,case,algorithm",
                product(["wcnf", "indicators"], CASES, ALGORITHMS))
def test_driver_exit(front, case, algorithm, kernel):
    assert answer(run(front, case, algorithm, kernel)) == \
        EXPECTED[front, case, algorithm]


@on_each_kernel("front,algorithm", product(["wcnf", "indicators"], ALGORITHMS))
def test_unknown_later_runs_out_after_progress(front, algorithm, kernel):
    """The premise of the unknown-later case: the budget runs out after the
    driver made progress, an incumbent for bnb and msu3, a core for wpm1."""
    res = run(front, "unknown-later", algorithm, kernel)
    assert res.status == "unknown"
    assert res.cores if algorithm == "wpm1" else res.incumbents


@on_each_kernel("front,case,algorithm",
                product(["wcnf", "indicators"], CASES, ALGORITHMS))
def test_on_bound_streams_the_bounds(front, case, algorithm, kernel):
    """on_bound gets each incumbent of bnb and msu3, and wpm1's running sum
    of w_min after each core round, and changes nothing in the answer."""
    bounds = []
    res = run(front, case, algorithm, kernel, on_bound=bounds.append)
    assert answer(res) == EXPECTED[front, case, algorithm]
    if algorithm == "wpm1":
        assert bounds == list(accumulate(r["w_min"]
                                         for r in res.meta["rounds"]))
    else:
        assert bounds == res.incumbents


# (front, case, algorithm) -> answer(res)
EXPECTED = {
    ('wcnf', 'optimal', 'bnb'):
        ('optimal', 1, {1: False, 2: True, 3: True}, 1, [], [3, 2, 1],
         {'solves': 4, 'conflicts': 0, 'decisions': 8, 'propagations': 24,
         'restarts': 0, 'cores': 0, 'incumbents': 3}, {'events': [{'kind':
         'incumbent', 'z': 3}, {'kind': 'incumbent', 'z': 2}, {'kind':
         'incumbent', 'z': 1}, {'kind': 'core', 'temporaries': (), 'bounded':
         True}], 'audit': 1}),
    ('wcnf', 'optimal', 'wpm1'):
        ('optimal', 1, {1: False, 2: True, 3: True}, 1, [(1, 3, 5)], [],
         {'solves': 2, 'conflicts': 1, 'decisions': 0, 'propagations': 12,
         'restarts': 0, 'cores': 1, 'incumbents': 0}, {'rounds': [{'core': (1,
         3, 5), 'w_min': 1}], 'audit': 1}),
    ('wcnf', 'optimal', 'msu3'):
        ('optimal', 1, {1: False, 2: True, 3: True}, 1, [(1, 2, 4)], [1],
         {'solves': 3, 'conflicts': 1, 'decisions': 3, 'propagations': 14,
         'restarts': 0, 'cores': 1, 'incumbents': 1}, {'events': [{'kind':
         'core', 'temporaries': (1, 2, 4), 'bounded': False}, {'kind':
         'incumbent', 'z': 1}, {'kind': 'core', 'temporaries': (), 'bounded':
         True}], 'audit': 1}),
    ('wcnf', 'unsatisfiable', 'bnb'):
        ('unsatisfiable', None, None, 0, [], [], {'solves': 1, 'conflicts': 1,
         'decisions': 1, 'propagations': 4, 'restarts': 0, 'cores': 0,
         'incumbents': 0}, {'events': [{'kind': 'core', 'temporaries': (),
         'bounded': False}]}),
    ('wcnf', 'unsatisfiable', 'wpm1'):
        ('unsatisfiable', None, None, 0, [(5,)], [], {'solves': 2, 'conflicts':
         2, 'decisions': 1, 'propagations': 6, 'restarts': 0, 'cores': 1,
         'incumbents': 0}, {'rounds': [{'core': (5,), 'w_min': 1}]}),
    ('wcnf', 'unsatisfiable', 'msu3'):
        ('unsatisfiable', None, None, 0, [(5,)], [], {'solves': 2, 'conflicts':
         2, 'decisions': 1, 'propagations': 6, 'restarts': 0, 'cores': 1,
         'incumbents': 0}, {'events': [{'kind': 'core', 'temporaries': (5,),
         'bounded': False}, {'kind': 'core', 'temporaries': (), 'bounded':
         False}]}),
    ('wcnf', 'unknown-first', 'bnb'):
        ('unknown', None, None, 0, [], [], {'solves': 0, 'conflicts': 0,
         'decisions': 0, 'propagations': 0, 'restarts': 0, 'cores': 0,
         'incumbents': 0}, {'events': []}),
    ('wcnf', 'unknown-first', 'wpm1'):
        ('unknown', None, None, 0, [], [], {'solves': 0, 'conflicts': 0,
         'decisions': 0, 'propagations': 0, 'restarts': 0, 'cores': 0,
         'incumbents': 0}, {'rounds': []}),
    ('wcnf', 'unknown-first', 'msu3'):
        ('unknown', None, None, 0, [], [], {'solves': 0, 'conflicts': 0,
         'decisions': 0, 'propagations': 0, 'restarts': 0, 'cores': 0,
         'incumbents': 0}, {'events': []}),
    ('wcnf', 'unknown-later', 'bnb'):
        ('unknown', 8, {1: False, 2: False, 3: True, 4: False}, 0, [], [11, 8],
         {'solves': 3, 'conflicts': 3, 'decisions': 14, 'propagations': 36,
         'restarts': 0, 'cores': 0, 'incumbents': 2}, {'events': [{'kind':
         'incumbent', 'z': 11}, {'kind': 'incumbent', 'z': 8}], 'audit': 8}),
    ('wcnf', 'unknown-later', 'wpm1'):
        ('unknown', None, None, 7, [(8,), (3, 7), (3, 9), (4, 12)], [],
         {'solves': 4, 'conflicts': 3, 'decisions': 0, 'propagations': 23,
         'restarts': 0, 'cores': 4, 'incumbents': 0}, {'rounds': [{'core':
         (8,), 'w_min': 1}, {'core': (3, 7), 'w_min': 2}, {'core': (3, 9),
         'w_min': 1}, {'core': (4, 12), 'w_min': 3}]}),
    ('wcnf', 'unknown-later', 'msu3'):
        ('unknown', 8, {1: False, 2: True, 3: True, 4: False}, 0, [(8,), (3,
         7), (4, 12)], [8], {'solves': 5, 'conflicts': 3, 'decisions': 3,
         'propagations': 24, 'restarts': 0, 'cores': 4, 'incumbents': 1},
         {'events': [{'kind': 'core', 'temporaries': (8,), 'bounded': False},
         {'kind': 'core', 'temporaries': (3, 7), 'bounded': False}, {'kind':
         'core', 'temporaries': (4, 12), 'bounded': False}, {'kind':
         'incumbent', 'z': 8}, {'kind': 'core', 'temporaries': (5, 6, 9),
         'bounded': True}], 'audit': 8}),
    ('wcnf', 'no-vars', 'bnb'):
        ('optimal', 0, {}, 0, [], [0], {'solves': 2, 'conflicts': 0,
         'decisions': 0, 'propagations': 0, 'restarts': 0, 'cores': 0,
         'incumbents': 1}, {'events': [{'kind': 'incumbent', 'z': 0}, {'kind':
         'core', 'temporaries': (), 'bounded': True}], 'audit': 0}),
    ('wcnf', 'no-vars', 'wpm1'):
        ('optimal', 0, {}, 0, [], [], {'solves': 1, 'conflicts': 0,
         'decisions': 0, 'propagations': 0, 'restarts': 0, 'cores': 0,
         'incumbents': 0}, {'rounds': [], 'audit': 0}),
    ('wcnf', 'no-vars', 'msu3'):
        ('optimal', 0, {}, 0, [], [0], {'solves': 2, 'conflicts': 0,
         'decisions': 0, 'propagations': 0, 'restarts': 0, 'cores': 0,
         'incumbents': 1}, {'events': [{'kind': 'incumbent', 'z': 0}, {'kind':
         'core', 'temporaries': (), 'bounded': True}], 'audit': 0}),
    ('wcnf', 'empty-soft', 'bnb'):
        ('optimal', 2, {}, 2, [], [2], {'solves': 2, 'conflicts': 0,
         'decisions': 0, 'propagations': 2, 'restarts': 0, 'cores': 0,
         'incumbents': 1}, {'events': [{'kind': 'incumbent', 'z': 2}, {'kind':
         'core', 'temporaries': (), 'bounded': True}], 'audit': 2}),
    ('wcnf', 'empty-soft', 'wpm1'):
        ('optimal', 2, {}, 2, [(1,)], [], {'solves': 2, 'conflicts': 0,
         'decisions': 0, 'propagations': 3, 'restarts': 0, 'cores': 1,
         'incumbents': 0}, {'rounds': [{'core': (1,), 'w_min': 2}], 'audit':
         2}),
    ('wcnf', 'empty-soft', 'msu3'):
        ('optimal', 2, {}, 2, [(1,)], [2], {'solves': 3, 'conflicts': 0,
         'decisions': 0, 'propagations': 3, 'restarts': 0, 'cores': 1,
         'incumbents': 1}, {'events': [{'kind': 'core', 'temporaries': (1,),
         'bounded': False}, {'kind': 'incumbent', 'z': 2}, {'kind': 'core',
         'temporaries': (), 'bounded': True}], 'audit': 2}),
    ('indicators', 'optimal', 'bnb'):
        ('optimal', 1, {1: False, 2: True, 3: True, 4: False, 5: True, 6: True,
         7: True, 8: True}, 1, [], [5, 4, 3, 2, 1], {'solves': 6, 'conflicts':
         0, 'decisions': 15, 'propagations': 33, 'restarts': 0, 'cores': 0,
         'incumbents': 5}, {'events': [{'kind': 'incumbent', 'z': 5}, {'kind':
         'incumbent', 'z': 4}, {'kind': 'incumbent', 'z': 3}, {'kind':
         'incumbent', 'z': 2}, {'kind': 'incumbent', 'z': 1}, {'kind': 'core',
         'temporaries': (), 'bounded': True}]}),
    ('indicators', 'optimal', 'wpm1'):
        ('optimal', 1, {1: False, 2: True, 3: True, 4: False, 5: True, 6: True,
         7: True, 8: True, 9: False, 10: False, 11: True, 12: False, 13: True,
         14: True, 15: True, 16: True, 17: False, 18: True, 19: False}, 1, [(1,
         2, 4)], [], {'solves': 2, 'conflicts': 1, 'decisions': 0,
         'propagations': 22, 'restarts': 0, 'cores': 1, 'incumbents': 0},
         {'rounds': [{'core': (1, 2, 4), 'w_min': 1}]}),
    ('indicators', 'optimal', 'msu3'):
        ('optimal', 1, {1: False, 2: True, 3: True, 4: False, 5: True, 6: True,
         7: True, 8: True}, 1, [(1, 2, 4)], [1], {'solves': 3, 'conflicts': 1,
         'decisions': 3, 'propagations': 14, 'restarts': 0, 'cores': 1,
         'incumbents': 1}, {'events': [{'kind': 'core', 'temporaries': (1, 2,
         4), 'bounded': False}, {'kind': 'incumbent', 'z': 1}, {'kind': 'core',
         'temporaries': (), 'bounded': True}]}),
    ('indicators', 'unsatisfiable', 'bnb'):
        ('unsatisfiable', None, None, 0, [], [], {'solves': 1, 'conflicts': 1,
         'decisions': 1, 'propagations': 4, 'restarts': 0, 'cores': 0,
         'incumbents': 0}, {'events': [{'kind': 'core', 'temporaries': (),
         'bounded': False}]}),
    ('indicators', 'unsatisfiable', 'wpm1'):
        ('unsatisfiable', None, None, 0, [(1,)], [], {'solves': 2, 'conflicts':
         2, 'decisions': 1, 'propagations': 8, 'restarts': 0, 'cores': 1,
         'incumbents': 0}, {'rounds': [{'core': (1,), 'w_min': 1}]}),
    ('indicators', 'unsatisfiable', 'msu3'):
        ('unsatisfiable', None, None, 0, [(1,)], [], {'solves': 2, 'conflicts':
         2, 'decisions': 1, 'propagations': 6, 'restarts': 0, 'cores': 1,
         'incumbents': 0}, {'events': [{'kind': 'core', 'temporaries': (1,),
         'bounded': False}, {'kind': 'core', 'temporaries': (), 'bounded':
         False}]}),
    ('indicators', 'unknown-first', 'bnb'):
        ('unknown', None, None, 0, [], [], {'solves': 0, 'conflicts': 0,
         'decisions': 0, 'propagations': 0, 'restarts': 0, 'cores': 0,
         'incumbents': 0}, {'events': []}),
    ('indicators', 'unknown-first', 'wpm1'):
        ('unknown', None, None, 0, [], [], {'solves': 0, 'conflicts': 0,
         'decisions': 0, 'propagations': 0, 'restarts': 0, 'cores': 0,
         'incumbents': 0}, {'rounds': []}),
    ('indicators', 'unknown-first', 'msu3'):
        ('unknown', None, None, 0, [], [], {'solves': 0, 'conflicts': 0,
         'decisions': 0, 'propagations': 0, 'restarts': 0, 'cores': 0,
         'incumbents': 0}, {'events': []}),
    ('indicators', 'unknown-later', 'bnb'):
        ('unknown', 8, {1: False, 2: False, 3: True, 4: False, 5: True, 6:
         False, 7: False, 8: True, 9: True, 10: True, 11: False, 12: True, 13:
         True, 14: True}, 0, [], [30, 26, 22, 20, 17, 13, 11, 10, 8],
         {'solves': 10, 'conflicts': 3, 'decisions': 51, 'propagations': 97,
         'restarts': 0, 'cores': 0, 'incumbents': 9}, {'events': [{'kind':
         'incumbent', 'z': 30}, {'kind': 'incumbent', 'z': 26}, {'kind':
         'incumbent', 'z': 22}, {'kind': 'incumbent', 'z': 20}, {'kind':
         'incumbent', 'z': 17}, {'kind': 'incumbent', 'z': 13}, {'kind':
         'incumbent', 'z': 11}, {'kind': 'incumbent', 'z': 10}, {'kind':
         'incumbent', 'z': 8}]}),
    ('indicators', 'unknown-later', 'wpm1'):
        ('unknown', None, None, 7, [(7,), (2, 6), (2, 8), (3, 10)], [],
         {'solves': 4, 'conflicts': 3, 'decisions': 0, 'propagations': 53,
         'restarts': 0, 'cores': 4, 'incumbents': 0}, {'rounds': [{'core':
         (7,), 'w_min': 1}, {'core': (2, 6), 'w_min': 2}, {'core': (2, 8),
         'w_min': 1}, {'core': (3, 10), 'w_min': 3}]}),
    ('indicators', 'unknown-later', 'msu3'):
        ('unknown', 8, {1: False, 2: True, 3: True, 4: False, 5: True, 6:
         False, 7: False, 8: True, 9: True, 10: True, 11: False, 12: True, 13:
         True, 14: True}, 0, [(7,), (2, 6), (3, 10)], [8], {'solves': 5,
         'conflicts': 3, 'decisions': 3, 'propagations': 24, 'restarts': 0,
         'cores': 4, 'incumbents': 1}, {'events': [{'kind': 'core',
         'temporaries': (7,), 'bounded': False}, {'kind': 'core',
         'temporaries': (2, 6), 'bounded': False}, {'kind': 'core',
         'temporaries': (3, 10), 'bounded': False}, {'kind': 'incumbent', 'z':
         8}, {'kind': 'core', 'temporaries': (4, 5, 8), 'bounded': True}]}),
    ('indicators', 'no-vars', 'bnb'):
        ('optimal', 0, {}, 0, [], [0], {'solves': 2, 'conflicts': 0,
         'decisions': 0, 'propagations': 0, 'restarts': 0, 'cores': 0,
         'incumbents': 1}, {'events': [{'kind': 'incumbent', 'z': 0}, {'kind':
         'core', 'temporaries': (), 'bounded': True}]}),
    ('indicators', 'no-vars', 'wpm1'):
        ('optimal', 0, {}, 0, [], [], {'solves': 1, 'conflicts': 0,
         'decisions': 0, 'propagations': 0, 'restarts': 0, 'cores': 0,
         'incumbents': 0}, {'rounds': []}),
    ('indicators', 'no-vars', 'msu3'):
        ('optimal', 0, {}, 0, [], [0], {'solves': 2, 'conflicts': 0,
         'decisions': 0, 'propagations': 0, 'restarts': 0, 'cores': 0,
         'incumbents': 1}, {'events': [{'kind': 'incumbent', 'z': 0}, {'kind':
         'core', 'temporaries': (), 'bounded': True}]}),
    ('indicators', 'empty-soft', 'bnb'):
        ('optimal', 2, {1: False}, 2, [], [2], {'solves': 2, 'conflicts': 0,
         'decisions': 0, 'propagations': 2, 'restarts': 0, 'cores': 0,
         'incumbents': 1}, {'events': [{'kind': 'incumbent', 'z': 2}, {'kind':
         'core', 'temporaries': (), 'bounded': True}]}),
    ('indicators', 'empty-soft', 'wpm1'):
        ('optimal', 2, {1: False, 2: False, 3: True, 4: True}, 2, [(1,)], [],
         {'solves': 2, 'conflicts': 0, 'decisions': 0, 'propagations': 5,
         'restarts': 0, 'cores': 1, 'incumbents': 0}, {'rounds': [{'core':
         (1,), 'w_min': 2}]}),
    ('indicators', 'empty-soft', 'msu3'):
        ('optimal', 2, {1: False}, 2, [(1,)], [2], {'solves': 3, 'conflicts':
         0, 'decisions': 0, 'propagations': 3, 'restarts': 0, 'cores': 1,
         'incumbents': 1}, {'events': [{'kind': 'core', 'temporaries': (1,),
         'bounded': False}, {'kind': 'incumbent', 'z': 2}, {'kind': 'core',
         'temporaries': (), 'bounded': True}]}),
}
