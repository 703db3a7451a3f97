"""Every exit of every driver, on both front ends, against recorded answers.

Each case is solved by bnb, wpm1 and msu3 through the WCNF front end
(maxsat.solve) and through the indicator front end (IndicatorProblem.solve
over one indicator i per soft clause, with the hard clause (-i or clause)).
The whole OptimizeResult except stats["wall_ms"] must equal the answer
recorded for it, so that a change to the drivers' set-up or exit code keeps
z_opt, z_lower, model, cores, incumbents, stats and meta as they were.
Every run also streams its bounds through on_bound: bnb's and msu3's
incumbents, and wpm1's running lower bound after each core.
"""

import dataclasses
from itertools import accumulate

import pytest

from conftest import build_sample5
from maxcore.engine import Engine
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

# Every driver makes progress before 3 conflicts run out: bnb and msu3
# hold an incumbent and wpm1 has paid for two cores, on either front end.
BUDGET3_WCNF = """\
p wcnf 4 10 24
2 1 3 2 0
3 4 3 0
1 -1 3 0
2 1 -3 0
1 3 -4 0
3 3 -2 1 0
1 3 0
3 3 2 0
4 2 -3 0
3 -2 0
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


def indicator_problem(inst):
    eng = Engine()
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


def run(front, case, algorithm, on_bound=None):
    build, budget = CASES[case]
    if front == "wcnf":
        return solve(build(), algorithm=algorithm, conflict_budget=budget,
                     on_bound=on_bound)
    return indicator_problem(build()).solve(algorithm, conflict_budget=budget,
                                            on_bound=on_bound)


def answer(res):
    """The OptimizeResult's fields in declaration order, wall time left out."""
    out = []
    for f in dataclasses.fields(OptimizeResult):
        value = getattr(res, f.name)
        if f.name == "stats":
            value = {k: v for k, v in value.items() if k != "wall_ms"}
        out.append(value)
    return tuple(out)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("front", ["wcnf", "indicators"])
def test_driver_exit(front, case, algorithm):
    assert answer(run(front, case, algorithm)) == \
        EXPECTED[front, case, algorithm]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("front", ["wcnf", "indicators"])
def test_on_bound_streams_the_bounds(front, case, algorithm):
    """on_bound gets each incumbent of bnb and msu3, and wpm1's running sum
    of w_min after each core round, and changes nothing in the answer."""
    bounds = []
    res = run(front, case, algorithm, on_bound=bounds.append)
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
         {'solves': 4, 'conflicts': 1, 'decisions': 8, 'propagations': 24,
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
         {'solves': 4, 'conflicts': 3, 'decisions': 3, 'propagations': 17,
         'restarts': 0, 'cores': 2, 'incumbents': 1}, {'events': [{'kind':
         'core', 'temporaries': (1, 2, 4), 'bounded': False}, {'kind':
         'incumbent', 'z': 1}, {'kind': 'core', 'temporaries': (3, 5),
         'bounded': True}, {'kind': 'core', 'temporaries': (), 'bounded':
         True}], 'audit': 1}),
    ('wcnf', 'unsatisfiable', 'bnb'):
        ('unsatisfiable', None, None, 0, [], [], {'solves': 1, 'conflicts': 2,
         'decisions': 1, 'propagations': 4, 'restarts': 0, 'cores': 0,
         'incumbents': 0}, {'events': [{'kind': 'core', 'temporaries': (),
         'bounded': False}]}),
    ('wcnf', 'unsatisfiable', 'wpm1'):
        ('unsatisfiable', None, None, 0, [(5,)], [], {'solves': 2, 'conflicts':
         3, 'decisions': 1, 'propagations': 7, 'restarts': 0, 'cores': 1,
         'incumbents': 0}, {'rounds': [{'core': (5,), 'w_min': 1}]}),
    ('wcnf', 'unsatisfiable', 'msu3'):
        ('unsatisfiable', None, None, 0, [(5,)], [], {'solves': 2, 'conflicts':
         3, 'decisions': 1, 'propagations': 6, 'restarts': 0, 'cores': 1,
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
        ('unknown', 5, {1: False, 2: True, 3: True, 4: True}, 0, [], [9, 7, 6,
         5], {'solves': 5, 'conflicts': 3, 'decisions': 22, 'propagations': 61,
         'restarts': 0, 'cores': 0, 'incumbents': 4}, {'events': [{'kind':
         'incumbent', 'z': 9}, {'kind': 'incumbent', 'z': 7}, {'kind':
         'incumbent', 'z': 6}, {'kind': 'incumbent', 'z': 5}], 'audit': 5}),
    ('wcnf', 'unknown-later', 'wpm1'):
        ('unknown', None, None, 3, [(7, 9, 10), (8, 9, 10)], [], {'solves': 3,
         'conflicts': 3, 'decisions': 1, 'propagations': 17, 'restarts': 0,
         'cores': 2, 'incumbents': 0}, {'rounds': [{'core': (7, 9, 10),
         'w_min': 1}, {'core': (8, 9, 10), 'w_min': 2}]}),
    ('wcnf', 'unknown-later', 'msu3'):
        ('unknown', 3, {1: True, 2: True, 3: True, 4: True}, 0, [(7, 9, 10)],
         [3], {'solves': 3, 'conflicts': 3, 'decisions': 5, 'propagations': 14,
         'restarts': 0, 'cores': 2, 'incumbents': 1}, {'events': [{'kind':
         'core', 'temporaries': (7, 9, 10), 'bounded': False}, {'kind':
         'incumbent', 'z': 3}, {'kind': 'core', 'temporaries': (1, 3, 4, 6),
         'bounded': True}], 'audit': 3}),
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
        ('optimal', 2, {}, 2, [], [2], {'solves': 2, 'conflicts': 1,
         'decisions': 0, 'propagations': 2, 'restarts': 0, 'cores': 0,
         'incumbents': 1}, {'events': [{'kind': 'incumbent', 'z': 2}, {'kind':
         'core', 'temporaries': (), 'bounded': True}], 'audit': 2}),
    ('wcnf', 'empty-soft', 'wpm1'):
        ('optimal', 2, {}, 2, [(1,)], [], {'solves': 2, 'conflicts': 0,
         'decisions': 0, 'propagations': 3, 'restarts': 0, 'cores': 1,
         'incumbents': 0}, {'rounds': [{'core': (1,), 'w_min': 2}], 'audit':
         2}),
    ('wcnf', 'empty-soft', 'msu3'):
        ('optimal', 2, {}, 2, [(1,)], [2], {'solves': 3, 'conflicts': 1,
         'decisions': 0, 'propagations': 3, 'restarts': 0, 'cores': 1,
         'incumbents': 1}, {'events': [{'kind': 'core', 'temporaries': (1,),
         'bounded': False}, {'kind': 'incumbent', 'z': 2}, {'kind': 'core',
         'temporaries': (), 'bounded': True}], 'audit': 2}),
    ('indicators', 'optimal', 'bnb'):
        ('optimal', 1, {1: False, 2: True, 3: True, 4: False, 5: True, 6: True,
         7: True, 8: True}, 1, [], [5, 4, 3, 2, 1], {'solves': 6, 'conflicts':
         1, 'decisions': 15, 'propagations': 33, 'restarts': 0, 'cores': 0,
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
         7: True, 8: True}, 1, [(1, 2, 4)], [1], {'solves': 4, 'conflicts': 3,
         'decisions': 3, 'propagations': 17, 'restarts': 0, 'cores': 2,
         'incumbents': 1}, {'events': [{'kind': 'core', 'temporaries': (1, 2,
         4), 'bounded': False}, {'kind': 'incumbent', 'z': 1}, {'kind': 'core',
         'temporaries': (3, 5), 'bounded': True}, {'kind': 'core',
         'temporaries': (), 'bounded': True}]}),
    ('indicators', 'unsatisfiable', 'bnb'):
        ('unsatisfiable', None, None, 0, [], [], {'solves': 1, 'conflicts': 2,
         'decisions': 1, 'propagations': 4, 'restarts': 0, 'cores': 0,
         'incumbents': 0}, {'events': [{'kind': 'core', 'temporaries': (),
         'bounded': False}]}),
    ('indicators', 'unsatisfiable', 'wpm1'):
        ('unsatisfiable', None, None, 0, [(1,)], [], {'solves': 2, 'conflicts':
         3, 'decisions': 1, 'propagations': 8, 'restarts': 0, 'cores': 1,
         'incumbents': 0}, {'rounds': [{'core': (1,), 'w_min': 1}]}),
    ('indicators', 'unsatisfiable', 'msu3'):
        ('unsatisfiable', None, None, 0, [(1,)], [], {'solves': 2, 'conflicts':
         3, 'decisions': 1, 'propagations': 6, 'restarts': 0, 'cores': 1,
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
        ('unknown', 5, {1: False, 2: True, 3: True, 4: True, 5: True, 6: True,
         7: True, 8: False, 9: True, 10: True, 11: True, 12: True, 13: True,
         14: False}, 0, [], [23, 20, 16, 13, 12, 10, 9, 7, 6, 5], {'solves':
         11, 'conflicts': 3, 'decisions': 63, 'propagations': 104, 'restarts':
         0, 'cores': 0, 'incumbents': 10}, {'events': [{'kind': 'incumbent',
         'z': 23}, {'kind': 'incumbent', 'z': 20}, {'kind': 'incumbent', 'z':
         16}, {'kind': 'incumbent', 'z': 13}, {'kind': 'incumbent', 'z': 12},
         {'kind': 'incumbent', 'z': 10}, {'kind': 'incumbent', 'z': 9},
         {'kind': 'incumbent', 'z': 7}, {'kind': 'incumbent', 'z': 6}, {'kind':
         'incumbent', 'z': 5}]}),
    ('indicators', 'unknown-later', 'wpm1'):
        ('unknown', None, None, 3, [(7, 9, 10), (8, 9, 10)], [], {'solves': 3,
         'conflicts': 3, 'decisions': 1, 'propagations': 45, 'restarts': 0,
         'cores': 2, 'incumbents': 0}, {'rounds': [{'core': (7, 9, 10),
         'w_min': 1}, {'core': (8, 9, 10), 'w_min': 2}]}),
    ('indicators', 'unknown-later', 'msu3'):
        ('unknown', 3, {1: True, 2: True, 3: True, 4: True, 5: True, 6: True,
         7: True, 8: True, 9: True, 10: True, 11: True, 12: True, 13: True, 14:
         False}, 0, [(7, 9, 10)], [4, 3], {'solves': 4, 'conflicts': 3,
         'decisions': 6, 'propagations': 20, 'restarts': 0, 'cores': 2,
         'incumbents': 2}, {'events': [{'kind': 'core', 'temporaries': (7, 9,
         10), 'bounded': False}, {'kind': 'incumbent', 'z': 4}, {'kind':
         'incumbent', 'z': 3}, {'kind': 'core', 'temporaries': (1, 3, 4, 6),
         'bounded': True}]}),
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
        ('optimal', 2, {1: False}, 2, [], [2], {'solves': 2, 'conflicts': 1,
         'decisions': 0, 'propagations': 2, 'restarts': 0, 'cores': 0,
         'incumbents': 1}, {'events': [{'kind': 'incumbent', 'z': 2}, {'kind':
         'core', 'temporaries': (), 'bounded': True}]}),
    ('indicators', 'empty-soft', 'wpm1'):
        ('optimal', 2, {1: False, 2: False, 3: True, 4: True}, 2, [(1,)], [],
         {'solves': 2, 'conflicts': 1, 'decisions': 0, 'propagations': 4,
         'restarts': 0, 'cores': 1, 'incumbents': 0}, {'rounds': [{'core':
         (1,), 'w_min': 2}]}),
    ('indicators', 'empty-soft', 'msu3'):
        ('optimal', 2, {1: False}, 2, [(1,)], [2], {'solves': 3, 'conflicts':
         1, 'decisions': 0, 'propagations': 3, 'restarts': 0, 'cores': 1,
         'incumbents': 1}, {'events': [{'kind': 'core', 'temporaries': (1,),
         'bounded': False}, {'kind': 'incumbent', 'z': 2}, {'kind': 'core',
         'temporaries': (), 'bounded': True}]}),
}
