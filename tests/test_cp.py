"""Integer views, channeling, and the explanation-producing propagators."""

import bisect
import itertools
import random

import pytest

from maxcore.cp import (
    CpModel,
    Cumulative,
    HalfReifiedLinear,
    PbUpperBound,
    decode_int,
    post_at_most_one,
    post_pb_upper_bound,
)
from maxcore.engine import Engine, EngineIntegrityError, Propagator
from maxcore.maxsat import IndicatorProblem
from maxcore.rcpsp import build_model, generate_micro_set, soften
from conftest import pigeonhole


def entails(mdl, assumptions, lit):
    """True iff the model plus assumptions force lit."""
    return mdl.eng.solve(assumptions=list(assumptions) + [-lit]).status == "unsat"


def root_true(mdl, lit):
    """True iff the kernel's level 0 makes lit true: assuming -lit fails
    before any search, with -lit alone as the core."""
    out = mdl.eng.solve(assumptions=[-lit])
    return (out.status, out.core, out.conflicts) == ("unsat", (-lit,), 0)


# --- integer variables and domain literals ---------------------------------


def test_domain_size_and_bounds(kernel):
    mdl = CpModel(kernel=kernel)
    x = mdl.new_int_var(0, 10)
    assert x.ub0 - x.lb0 + 1 == 11
    with pytest.raises(ValueError):
        mdl.new_int_var(3, 2)


def test_fixed_var_geq_is_root_true(kernel):
    mdl = CpModel(kernel=kernel)
    x = mdl.new_int_var(5, 5)
    lit = mdl.lit_geq(x, 5)
    assert root_true(mdl, lit)


def test_geq_clamps_to_constants(kernel):
    mdl = CpModel(kernel=kernel)
    x = mdl.new_int_var(0, 10)
    assert root_true(mdl, mdl.lit_geq(x, 0))
    assert root_true(mdl, mdl.lit_geq(x, -3))
    assert root_true(mdl, -mdl.lit_geq(x, 11))


def test_channeling_propagates_downward(kernel):
    mdl = CpModel(kernel=kernel)
    x = mdl.new_int_var(0, 10)
    l4 = mdl.lit_geq(x, 4)
    l7 = mdl.lit_geq(x, 7)
    assert not root_true(mdl, l4)
    mdl.eng.add_clause((l7,))
    assert root_true(mdl, l4)


def test_channeling_repair_between_existing(kernel):
    mdl = CpModel(kernel=kernel)
    x = mdl.new_int_var(0, 10)
    l4 = mdl.lit_geq(x, 4)
    l7 = mdl.lit_geq(x, 7)
    l5 = mdl.lit_geq(x, 5)   # created between two existing bound literals
    assert entails(mdl, [l7], l5)
    assert entails(mdl, [l5], l4)
    assert not entails(mdl, [l5], l7)


def test_decode_stays_in_domain(kernel):
    rng = random.Random(3)
    for _ in range(20):
        mdl = CpModel(kernel=kernel)
        lb = rng.randint(-3, 3)
        ub = lb + rng.randint(0, 6)
        x = mdl.new_int_var(lb, ub)
        mdl.materialize(x)
        pick = [mdl.lit_geq(x, rng.randint(lb, ub + 1))
                for _ in range(rng.randint(0, 2))]
        assume = [l if rng.random() < 0.5 else -l for l in pick]
        out = mdl.eng.solve(assumptions=assume)
        if out.status != "sat":
            continue
        val = decode_int(x, out.model)
        assert lb <= val <= ub
        for v, lit in zip(x.geq_vals, x.geq_lits):
            assert out.model[abs(lit)] == ((lit > 0) == (val >= v))


# --- half-reified linear ----------------------------------------------------


def build_precedence(kernel, lo1, hi1, lo2, hi2, gap, force=True):
    """i -> (s2 - s1 >= gap) with both ladders fully materialized."""
    mdl = CpModel(kernel=kernel)
    s1 = mdl.new_int_var(lo1, hi1)
    s2 = mdl.new_int_var(lo2, hi2)
    mdl.materialize(s1)
    mdl.materialize(s2)
    i = mdl.new_bool_var()
    if force:
        mdl.eng.add_clause((i,))
    mdl.post_half_reified_linear(i, [(1, s2), (-1, s1)], gap)
    return mdl, s1, s2, i


def test_precedence_pushes_lower_bound(kernel):
    mdl, s1, s2, i = build_precedence(kernel, 4, 9, 0, 12, 3)
    out = mdl.eng.solve()
    assert out.status == "sat"
    assert decode_int(s2, out.model) >= decode_int(s1, out.model) + 3
    assert decode_int(s2, out.model) >= 7
    assert entails(mdl, [], mdl.lit_geq(s2, 7))


def test_precedence_inference_carries_explanation(kernel):
    mdl, s1, s2, i = build_precedence(kernel, 0, 9, 0, 12, 3)
    a = mdl.lit_geq(s1, 4)
    target = mdl.lit_geq(s2, 7)
    out = mdl.eng.solve(assumptions=[a])
    assert out.status == "sat"
    want = {target, -i, -a}
    assert any(set(e) == want for e in out.explanations)


def test_half_reification_is_inert_when_unfixed(kernel):
    # body violated by the domains themselves, indicator free
    mdl, s1, s2, i = build_precedence(kernel, 4, 4, 0, 2, 3, force=False)
    out = mdl.eng.solve()
    assert out.status == "sat"
    assert out.model[i] is False
    assert mdl.eng.solve(assumptions=[i]).status == "unsat"
    assert mdl.eng.solve(assumptions=[i]).core == (i,)


def test_precedence_conflict_exactly_when_too_tight(kernel):
    tight = build_precedence(kernel, 4, 9, 0, 6, 3)[0]  # max(s2)-min(s1) = 2 < 3
    assert tight.eng.solve().status == "unsat"
    loose, s1, s2, _ = build_precedence(kernel, 4, 9, 0, 7, 3)
    out = loose.eng.solve()
    assert out.status == "sat"
    assert mdl_val(loose, s1, out) == 4 and mdl_val(loose, s2, out) == 7


def mdl_val(mdl, x, out):
    return decode_int(x, out.model)


def test_propagator_matches_eager_decomposition(kernel):
    """Precedence propagation reaches exactly the clauses' unit-propagation
    consequences across every single-literal assumption."""
    gap = 2
    lb, ub = 0, 4
    prop = CpModel(kernel=kernel)
    p1, p2 = prop.new_int_var(lb, ub), prop.new_int_var(lb, ub)
    prop.materialize(p1)
    prop.materialize(p2)
    ip = prop.new_bool_var()
    prop.eng.add_clause((ip,))
    prop.post_half_reified_linear(ip, [(1, p2), (-1, p1)], gap)

    dec = CpModel(kernel=kernel)
    d1, d2 = dec.new_int_var(lb, ub), dec.new_int_var(lb, ub)
    dec.materialize(d1)
    dec.materialize(d2)
    for v in range(lb, ub + 1):
        # a constant lo or hi is the unit true literal or its negation
        dec.eng.add_clause((-dec.lit_geq(d1, v), dec.lit_geq(d2, v + gap)))

    def ladder(x):
        return list(x.geq_lits)

    assumes = [[]]
    for lit in ladder(p1) + ladder(p2):
        assumes.append([lit])
        assumes.append([-lit])
    for assume in assumes:
        dec_assume = [_mirror_lit((p1, p2), (d1, d2), l) for l in assume]
        for t in ladder(p1) + ladder(p2):
            td = _mirror_lit((p1, p2), (d1, d2), t)
            for sign in (1, -1):
                a = entails(prop, assume, sign * t)
                b = entails(dec, dec_assume, sign * td)
                assert a == b, (assume, sign * t, a, b)


def _mirror_lit(src_vars, dst_vars, lit):
    v = abs(lit)
    for sx, dx in zip(src_vars, dst_vars):
        for val, l in zip(sx.geq_vals, sx.geq_lits):
            if abs(l) == v:
                out = dx.geq_lits[dx.geq_vals.index(val)]
                return out if (lit > 0) == (l > 0) else -out
    raise AssertionError("literal not found in ladder")


def test_precedence_arithmetic_strength(kernel):
    # assuming s1 >= v must entail s2 >= v + 2 and nothing stronger
    mdl, s1, s2, _ = build_precedence(kernel, 0, 4, 0, 6, 2)
    for v in range(1, 5):
        a = mdl.lit_geq(s1, v)
        assert entails(mdl, [a], mdl.lit_geq(s2, v + 2))
        assert not entails(mdl, [a], mdl.lit_geq(s2, v + 3))
    # and the upper bounds travel the other way
    for w in range(3, 7):
        na = -mdl.lit_geq(s2, w)            # s2 <= w - 1
        assert entails(mdl, [na], -mdl.lit_geq(s1, w - 2))


def test_retract_cannot_revive_a_half_reification_false_at_the_root(kernel):
    # i is false at the root when i -> (x - y >= 3) is posted; the
    # constraint is attached all the same, and the unit that fixes i cannot
    # be retracted, since it is the only clause that fixes i
    mdl = CpModel(kernel=kernel)
    x, y = mdl.new_int_var(0, 5), mdl.new_int_var(0, 5)
    i = mdl.new_bool_var()
    unit = mdl.eng.add_clause((-i,))
    prop = mdl.post_half_reified_linear(i, [(1, x), (-1, y)], 3)
    assert mdl.eng.propagators == [prop]
    with pytest.raises(ValueError):
        mdl.eng.retract(refs=[unit])
    assert mdl.eng.solve(assumptions=[i, -mdl.lit_geq(x, 1)]).status == "unsat"


def _random_linear_case(rng):
    """A tiny i -> sum(c * x) >= rhs over partly materialized ladders, a
    term's variable possibly shared with another term, and an arbitrary
    partial assignment of the indicator and the order literals (monotone or
    not)."""
    mdl = CpModel()
    xs = []
    for _ in range(rng.randint(1, 3)):
        lb0 = rng.randint(-2, 2)
        x = mdl.new_int_var(lb0, lb0 + rng.randint(0, 3))
        for v in range(x.lb0 + 1, x.ub0 + 1):
            if rng.random() < 0.8:
                mdl.lit_geq(x, v)
        xs.append(x)
    terms = [(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice(xs))
             for _ in range(rng.randint(1, 3))]
    i = mdl.new_bool_var()
    lo = sum(min(c * x.lb0, c * x.ub0) for c, x in terms)
    hi = sum(max(c * x.lb0, c * x.ub0) for c, x in terms)
    rhs = rng.randint(lo, hi)
    r = rng.random()
    values = {} if r < 0.1 else {i: r < 0.9}
    for x in xs:
        for lit in x.geq_lits:
            r = rng.random()
            if r < 0.2:
                values[lit] = True
            elif r < 0.35:
                values[lit] = False
    return mdl, xs, i, terms, rhs, values


def _linear_worlds(mdl, xs, i, terms, rhs):
    """(literal truth function, holds) for every value of the indicator and
    every point of the original domains."""
    owner = {}
    for k, x in enumerate(xs):
        for v, lit in zip(x.geq_vals, x.geq_lits):
            owner[lit] = (k, v)
    for ind in (False, True):
        for point in itertools.product(*[range(x.lb0, x.ub0 + 1)
                                         for x in xs]):
            def truth(lit, ind=ind, point=point):
                var = abs(lit)
                if var == mdl.true_lit:
                    val = True
                elif var == i:
                    val = ind
                else:
                    k, v = owner[var]
                    val = point[k] >= v
                return val == (lit > 0)

            holds = not ind or sum(c * point[xs.index(x)]
                                   for c, x in terms) >= rhs
            yield truth, holds


def test_linear_explanations_are_sound():
    """Every inference of random tiny half-reified linears at random partial
    assignments: its reason is true in the view, and no indicator value and
    point of the domains satisfies the constraint, the reason and the
    negated pushed literal together, nor the constraint and a failure's
    reason."""
    rng = random.Random(41)
    enqueues = fails = shared = uppers = 0
    for _ in range(1500):
        mdl, xs, i, terms, rhs, values = _random_linear_case(rng)
        shared += len({id(x) for _, x in terms}) < len(terms)
        view_cls = _RefusingView if rng.random() < 0.5 else _RecordingView
        view = view_cls({abs(l): b == (l > 0) for l, b in values.items()},
                        xs)
        HalfReifiedLinear(i, terms, rhs).propagate(view)
        worlds = list(_linear_worlds(mdl, xs, i, terms, rhs))
        for lit, reason in view.enqueued:
            assert all(view.lit_value(l) > 0 for l in reason)
            assert not any(holds and all(truth(l) for l in reason + (-lit,))
                           for truth, holds in worlds), (terms, rhs, lit)
            enqueues += 1
            uppers += lit < 0
        if view.failed is not None:
            assert all(view.lit_value(l) > 0 for l in view.failed)
            assert not any(holds and all(truth(l) for l in view.failed)
                           for truth, holds in worlds), (terms, rhs)
            fails += 1
    # pushes of lower and of upper bounds, failures and shared variables
    assert enqueues - uppers > 150 and uppers > 150
    assert fails > 100 and shared > 500


# --- at-most-one ------------------------------------------------------------


def test_at_most_one_posts_one_pb_constraint(kernel):
    mdl = CpModel(kernel=kernel)
    v1, v3, v5 = (mdl.new_bool_var() for _ in range(3))
    before = list(mdl.eng.clauses)
    pb = post_at_most_one(mdl.eng, [v1, v3, v5])
    assert isinstance(pb, PbUpperBound)
    assert mdl.eng.propagators == [pb]
    assert (pb.terms, pb.bound) == ([(1, v1), (1, v3), (1, v5)], 2)
    assert mdl.eng.clauses == before


def test_at_most_one_two_true_conflicts(kernel):
    mdl = CpModel(kernel=kernel)
    a, b, c = (mdl.new_bool_var() for _ in range(3))
    post_at_most_one(mdl.eng, [a, b, c])
    mdl.eng.add_clause((a,))
    mdl.eng.add_clause((b,))
    assert mdl.eng.solve().status == "unsat"
    assert mdl.eng.solve(assumptions=[c]).core == ()


def test_at_most_one_singleton_is_noop(kernel):
    mdl = CpModel(kernel=kernel)
    a = mdl.new_bool_var()
    before = list(mdl.eng.clauses)
    assert post_at_most_one(mdl.eng, [a]) is None
    assert post_at_most_one(mdl.eng, []) is None
    assert mdl.eng.propagators == [] and mdl.eng.clauses == before


# --- pseudo-Boolean upper bound ---------------------------------------------


def test_pb_unit_weights_bound_one(kernel):
    mdl = CpModel(kernel=kernel)
    vs = [mdl.new_bool_var() for _ in range(5)]
    post_pb_upper_bound(mdl.eng, [(1, v) for v in vs], 1)
    out = mdl.eng.solve()
    assert out.status == "sat"
    assert all(out.model[v] is False for v in vs)
    for v in vs:
        assert mdl.eng.solve(assumptions=[v]).status == "unsat"


def test_pb_weighted_pair(kernel):
    mdl = CpModel(kernel=kernel)
    a, b = mdl.new_bool_var(), mdl.new_bool_var()
    post_pb_upper_bound(mdl.eng, [(3, a), (2, b)], 4)
    out = mdl.eng.solve(assumptions=[a])
    assert out.status == "sat"
    assert out.model[b] is False
    assert mdl.eng.solve(assumptions=[a, b]).status == "unsat"


def test_pb_slack_leaves_literals_free(kernel):
    mdl = CpModel(kernel=kernel)
    vs = [mdl.new_bool_var() for _ in range(3)]
    post_pb_upper_bound(mdl.eng, [(2, v) for v in vs], 5)
    assert mdl.eng.solve(assumptions=vs[:2]).status == "sat"
    assert mdl.eng.solve(assumptions=vs).status == "unsat"


def test_pb_bound_zero_forces_all_false(kernel):
    mdl = CpModel(kernel=kernel)
    vs = [mdl.new_bool_var() for _ in range(3)]
    post_pb_upper_bound(mdl.eng, [(1, v) for v in vs], 0)
    out = mdl.eng.solve()
    assert out.status == "sat"
    assert all(out.model[v] is False for v in vs)


def test_pb_bound_zero_with_root_true_literal_conflicts(kernel):
    mdl = CpModel(kernel=kernel)
    w = mdl.new_bool_var()
    mdl.eng.add_clause((w,))
    post_pb_upper_bound(mdl.eng, [(1, w)], 0)
    assert mdl.eng.solve().status == "unsat"


def test_pb_rejects_bad_arguments(kernel):
    mdl = CpModel(kernel=kernel)
    v = mdl.new_bool_var()
    with pytest.raises(ValueError):
        post_pb_upper_bound(mdl.eng, [(1, v)], -1)
    with pytest.raises(ValueError):
        post_pb_upper_bound(mdl.eng, [(0, v)], 2)


def test_pb_and_indicator_literals_are_checked_when_posted(kernel):
    """A literal outside +-nvars, or no integer, is refused where the
    constraint enters the engine, as Engine.add_clause refuses it, and
    nothing is attached: before, literal 0 in a PB raised KeyError at
    solve() on the pure kernel and answered unsat on the compiled one, and
    indicator 0 never fired."""
    eng = Engine(kernel=kernel)
    a, b = eng.new_bool_var(), eng.new_bool_var()
    for lit, error in ((0, ValueError), (5, ValueError), (-3, ValueError),
                       (1.5, TypeError), ("1", TypeError)):
        with pytest.raises(error):
            post_pb_upper_bound(eng, [(1, a), (1, lit)], 2)
        with pytest.raises(error):
            post_at_most_one(eng, [lit, b])
    assert eng.propagators == []
    mdl = CpModel(kernel=kernel)
    x = mdl.new_int_var(0, 3)
    for i, error in ((0, ValueError), (mdl.eng.nvars + 1, ValueError),
                     (-mdl.eng.nvars - 1, ValueError), (1.0, TypeError)):
        with pytest.raises(error):
            mdl.post_half_reified_linear(i, [(1, x)], 5)
    assert mdl.eng.propagators == []
    assert mdl.eng.solve().status == "sat"
    assert eng.solve().status == "sat"


def test_pb_tighten(kernel):
    mdl = CpModel(kernel=kernel)
    vs = [mdl.new_bool_var() for _ in range(3)]
    pb = post_pb_upper_bound(mdl.eng, [(1, v) for v in vs], 3)
    assert mdl.eng.solve(assumptions=vs[:2]).status == "sat"
    pb.tighten(1)
    assert mdl.eng.solve(assumptions=vs[:1]).status == "unsat"
    assert mdl.eng.solve().status == "sat"


class _RecordingView:
    """Propagator view over a fixed partial assignment (var -> bool) that
    records the inferences instead of applying them.  It stands in for a
    kernel, so it sets cur of each IntVar in ints from the ladder."""

    def __init__(self, values, ints=()):
        self.values = values
        self.ints = list(ints)
        self.enqueued = []
        self.failed = None
        self._show()

    def _show(self):
        for x in self.ints:
            x.cur = x.bounds(self.lit_value)

    def lit_value(self, lit):
        v = self.values.get(abs(lit))
        if v is None:
            return 0
        return 1 if v == (lit > 0) else -1

    def enqueue(self, lit, reason):
        self.enqueued.append((lit, tuple(reason)))
        return True

    def fail(self, reason):
        self.failed = tuple(reason)


def test_pb_native_matches_arithmetic(kernel):
    """Every full and partial assignment of small random constraints over
    literals of either sign, along a random tighten sequence: satisfiable
    exactly when the weight already true stays below the bound (bound 0
    acts like bound 1), every model obeys the bound, and one propagate call
    forces exactly the literals arithmetic forces, each explained by true
    literals that imply it."""
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(1, 4)
        weights = [rng.randint(1, 4) for _ in range(n)]
        bounds = sorted((rng.randint(0, sum(weights) + 1) for _ in range(3)),
                        reverse=True)
        mdl = CpModel(kernel=kernel)
        lits = [rng.choice((1, -1)) * mdl.new_bool_var() for _ in range(n)]
        weight_of = dict(zip(lits, weights))
        pb = post_pb_upper_bound(mdl.eng, list(zip(weights, lits)), bounds[0])
        for bound in bounds:
            pb.tighten(bound)
            limit = max(bound, 1)
            for vals in itertools.product((None, False, True), repeat=n):
                assume = [l if b else -l for l, b in zip(lits, vals)
                          if b is not None]
                out = mdl.eng.solve(assumptions=assume)
                forced = sum(w for w, b in zip(weights, vals) if b)
                assert (out.status == "sat") == (forced < limit), \
                    (weights, bound, vals)
                if out.status == "sat":
                    total = sum(w for w, l in zip(weights, lits)
                                if out.model[abs(l)] == (l > 0))
                    assert total < limit
                view = _RecordingView({abs(l): l > 0 for l in assume})
                pb.propagate(view)
                if forced >= limit:
                    assert view.failed is not None and not view.enqueued
                    assert all(view.lit_value(l) > 0 for l in view.failed)
                    assert sum(weight_of[l] for l in view.failed) >= limit
                    continue
                assert view.failed is None
                assert [lit for lit, _ in view.enqueued] == [
                    -l for w, l, b in zip(weights, lits, vals)
                    if b is None and forced + w >= limit]
                for lit, reason in view.enqueued:
                    assert all(view.lit_value(l) > 0 for l in reason)
                    assert (sum(weight_of[l] for l in reason)
                            + weight_of[-lit] >= limit)
        with pytest.raises(ValueError):
            pb.tighten(bounds[-1] + 1)


def _satisfies(model, lits):
    return all(model[abs(l)] == (l > 0) for l in lits)


def test_pb_explanations_are_sound():
    """Every inference of random tiny constraints whose terms may share a
    variable (a literal twice, or l and -l), a third of them at-most-one
    (unit weights, strict bound 2), at every partial assignment: no full
    assignment satisfies the constraint, the reason and the negated pushed
    literal together, and none satisfies the constraint and a failure's
    reason.  The constraint checked is sum < max(bound, 1), which is what
    the propagator enforces for bound 0 too."""
    rng = random.Random(31)
    enqueues = fails = twice = opposite = 0
    for case in range(300):
        nv = rng.randint(1, 3)
        lits = [rng.choice((1, -1)) * rng.randint(1, nv)
                for _ in range(rng.randint(1, 5))]
        if case % 3 == 0:
            terms, bound = [(1, l) for l in lits], 2
        else:
            terms = [(rng.randint(1, 4), l) for l in lits]
            bound = rng.randint(0, sum(w for w, _ in terms) + 1)
        twice += len(set(lits)) < len(lits)
        opposite += any(-l in lits for l in lits)
        limit = max(bound, 1)
        models = [dict(enumerate(bits, 1))
                  for bits in itertools.product((False, True), repeat=nv)]
        holding = [m for m in models
                   if sum(w for w, l in terms if _satisfies(m, (l,))) < limit]
        pb = PbUpperBound(terms, bound)
        for vals in itertools.product((None, False, True), repeat=nv):
            view_cls = _RefusingView if rng.random() < 0.5 else _RecordingView
            view = view_cls({v: b for v, b in enumerate(vals, 1)
                             if b is not None})
            pb.propagate(view)
            for lit, reason in view.enqueued:
                assert not any(_satisfies(m, reason + (-lit,))
                               for m in holding), (terms, bound, vals, lit)
                enqueues += 1
            if view.failed is not None:
                assert not any(_satisfies(m, view.failed)
                               for m in holding), (terms, bound, vals)
                fails += 1
    assert enqueues > 500 and fails > 500 and twice > 50 and opposite > 50


# --- cumulative --------------------------------------------------------------


def test_cumulative_two_tasks_capacity_one(kernel):
    # duration 3 each, starts in [0,2]: every placement pair overlaps
    mdl = CpModel(kernel=kernel)
    s1, s2 = mdl.new_int_var(0, 2), mdl.new_int_var(0, 2)
    mdl.materialize(s1)
    mdl.materialize(s2)
    mdl.post_cumulative([(s1, 3, 1), (s2, 3, 1)], 1)
    assert mdl.eng.solve().status == "unsat"
    for a in range(3):
        for b in range(3):
            assert not (a + 3 <= b or b + 3 <= a)   # the 9-case double check


def test_cumulative_two_tasks_capacity_two(kernel):
    mdl = CpModel(kernel=kernel)
    s1, s2 = mdl.new_int_var(0, 2), mdl.new_int_var(0, 2)
    mdl.materialize(s1)
    mdl.materialize(s2)
    mdl.post_cumulative([(s1, 3, 1), (s2, 3, 1)], 2)
    assert mdl.eng.solve().status == "sat"


def test_cumulative_demand_over_capacity_is_root_conflict(kernel):
    for cap in (2, 0):
        mdl = CpModel(kernel=kernel)
        s = mdl.new_int_var(0, 2)
        mdl.post_cumulative([(s, 1, 3)], cap)
        assert mdl.eng.root_conflict


def test_cumulative_zero_pieces_are_dropped(kernel):
    mdl = CpModel(kernel=kernel)
    s1, s2 = mdl.new_int_var(0, 2), mdl.new_int_var(0, 2)
    assert mdl.post_cumulative([(s1, 0, 5), (s2, 2, 0)], 1) is None


def test_cumulative_pushes_start_bounds(kernel):
    # fixed task occupies [0,3); the second must start at 3
    mdl = CpModel(kernel=kernel)
    s1, s2 = mdl.new_int_var(0, 0), mdl.new_int_var(0, 3)
    mdl.materialize(s1)
    mdl.materialize(s2)
    mdl.post_cumulative([(s1, 3, 1), (s2, 2, 1)], 1)
    out = mdl.eng.solve()
    assert out.status == "sat"
    assert decode_int(s2, out.model) == 3
    assert entails(mdl, [], mdl.lit_geq(s2, 3))


def test_cumulative_pushes_upper_bounds(kernel):
    # fixed task occupies [3,6); the second (duration 2) must finish by 3
    mdl = CpModel(kernel=kernel)
    s1, s2 = mdl.new_int_var(3, 3), mdl.new_int_var(0, 4)
    mdl.materialize(s1)
    mdl.materialize(s2)
    mdl.post_cumulative([(s1, 3, 1), (s2, 2, 1)], 1)
    assert mdl.eng.solve(assumptions=[mdl.lit_geq(s2, 2)]).status == "unsat"
    assert mdl.eng.solve(assumptions=[mdl.lit_geq(s2, 1)]).status == "sat"


def test_cumulative_random_models_respect_profile(kernel):
    rng = random.Random(15)
    for _ in range(25):
        nt = rng.randint(2, 4)
        cap = rng.randint(1, 3)
        horizon = rng.randint(4, 7)
        mdl = CpModel(kernel=kernel)
        tasks = []
        for _ in range(nt):
            dur = rng.randint(1, 3)
            dem = rng.randint(1, cap)
            s = mdl.new_int_var(0, horizon - dur)
            mdl.materialize(s)
            tasks.append((s, dur, dem))
        mdl.post_cumulative(tasks, cap)
        out = mdl.eng.solve()
        if out.status != "sat":
            continue
        usage = [0] * horizon
        for s, dur, dem in tasks:
            v = decode_int(s, out.model)
            for t in range(v, v + dur):
                usage[t] += dem
        assert max(usage) <= cap


def test_cumulative_energy_equal_to_its_window_is_not_refuted(kernel):
    # energy 2 + 2 fills the window [0, 4) exactly: back to back fits
    mdl = CpModel(kernel=kernel)
    s1, s2 = mdl.new_int_var(0, 2), mdl.new_int_var(0, 2)
    mdl.materialize(s1)
    mdl.materialize(s2)
    prop = mdl.post_cumulative([(s1, 2, 1), (s2, 2, 1)], 1)
    assert prop is not None and prop.span == 4
    assert not mdl.eng.root_conflict
    out = mdl.eng.solve()
    assert out.status == "sat"
    assert {decode_int(s1, out.model), decode_int(s2, out.model)} == {0, 2}


def test_cumulative_energy_above_its_window_is_root_conflict(kernel):
    # energy 4 in the window [0, 3) of capacity 1: one unit too much
    mdl = CpModel(kernel=kernel)
    s1, s2 = mdl.new_int_var(0, 1), mdl.new_int_var(0, 1)
    assert mdl.post_cumulative([(s1, 2, 1), (s2, 2, 1)], 1) is None
    assert mdl.eng.root_conflict
    assert mdl.eng.propagators == []
    assert mdl.eng.solve().status == "unsat"


def test_cumulative_half_capacity_overload_is_root_conflict(kernel):
    # three tasks of demand 2 at capacity 3 in the window [0, 5): energy
    # 3 * 2 * 2 = 12 fits 3 * 5, but no two of them can overlap, and their
    # durations 3 * 2 = 6 exceed 5
    mdl = CpModel(kernel=kernel)
    starts = [mdl.new_int_var(0, 3) for _ in range(3)]
    for x in starts:
        mdl.materialize(x)
    assert mdl.post_cumulative([(x, 2, 2) for x in starts], 3) is None
    assert mdl.eng.root_conflict
    assert mdl.eng.propagators == []
    assert mdl.eng.solve().status == "unsat"


def test_cumulative_two_tasks_at_half_capacity_fill_their_window(kernel):
    # demand 2 at capacity 4 is exactly half: two such tasks may overlap,
    # so durations 3 + 3 fill the window [0, 3) twice over and still fit
    mdl = CpModel(kernel=kernel)
    s1, s2 = mdl.new_int_var(0, 0), mdl.new_int_var(0, 0)
    prop = mdl.post_cumulative([(s1, 3, 2), (s2, 3, 2)], 4)
    assert prop is not None and prop.span == 3
    assert not mdl.eng.root_conflict
    assert mdl.eng.solve().status == "sat"


def test_cumulative_energy_check_is_sound(kernel):
    """Random small cumulatives over fully materialized starts: whenever
    posting one refutes it at the root, no start assignment inside the
    domains respects capacity; otherwise the solve finds a schedule exactly
    when one exists.  The second batch's larger capacities leave room for
    demands at and above half the capacity, where the half-capacity bound
    refutes what the plain energy bound lets through."""
    fired = half_only = feasible = infeasible = 0
    for seed, cases, caps in ((23, 300, (1, 3)), (24, 1000, (3, 5))):
        rng = random.Random(seed)
        for _ in range(cases):
            cap = rng.randint(*caps)
            mdl = CpModel(kernel=kernel)
            tasks = []
            for _ in range(rng.randint(1, 4)):
                lb0 = rng.randint(0, 2)
                x = mdl.new_int_var(lb0, lb0 + rng.randint(0, 3))
                mdl.materialize(x)
                tasks.append((x, rng.randint(1, 3), rng.randint(1, cap)))
            fits = any(_holds_capacity(tasks, cap, starts)
                       for starts in _placements(tasks, ()))
            mdl.post_cumulative(tasks, cap)
            if mdl.eng.root_conflict:
                assert not fits, [(x, dur, dem) for x, dur, dem in tasks]
                span = (max(x.ub0 + dur for x, dur, _ in tasks)
                        - min(x.lb0 for x, _, _ in tasks))
                fired += 1
                half_only += (sum(dur * dem for _, dur, dem in tasks)
                              <= cap * span)
                continue
            assert (mdl.eng.solve().status == "sat") == fits
            feasible += fits
            infeasible += not fits
    # both bounds fire, and timetabling still proves some overloads alone
    assert fired - half_only > 30 and half_only >= 20
    assert feasible > 30 and infeasible > 10


def _count_pushes(monkeypatch):
    """Every result of Cumulative._push from now on, in call order."""
    results = []
    push = Cumulative._push

    def counted(self, *args):
        results.append(push(self, *args))
        return results[-1]

    monkeypatch.setattr(Cumulative, "_push", counted)
    return results


def test_cumulative_compulsory_parts_overload_in_search(kernel, monkeypatch):
    # energy 3 + 3 + 1 fits the window [0, 11), but the two long tasks
    # both hold [1, 3): the profile fails before any push
    pushes = _count_pushes(monkeypatch)
    mdl = CpModel(kernel=kernel)
    s1, s2, s3 = (mdl.new_int_var(0, 1), mdl.new_int_var(0, 1),
                  mdl.new_int_var(0, 10))
    for x in (s1, s2, s3):
        mdl.materialize(x)
    assert mdl.post_cumulative([(s1, 3, 1), (s2, 3, 1), (s3, 1, 1)], 1)
    assert not mdl.eng.root_conflict
    assert mdl.eng.solve().status == "unsat"
    assert pushes == []


def test_cumulative_push_fails_in_search(kernel, monkeypatch):
    # energy 3 + 2 + 1 fits the window [0, 11); no two compulsory parts
    # meet, but the task after the fixed one would have to start at 3 > 2
    pushes = _count_pushes(monkeypatch)
    mdl = CpModel(kernel=kernel)
    s1, s2, s3 = (mdl.new_int_var(0, 0), mdl.new_int_var(0, 2),
                  mdl.new_int_var(0, 10))
    for x in (s1, s2, s3):
        mdl.materialize(x)
    assert mdl.post_cumulative([(s1, 3, 1), (s2, 2, 1), (s3, 1, 1)], 1)
    assert not mdl.eng.root_conflict
    assert mdl.eng.solve().status == "unsat"
    assert False in pushes


# --- cumulative against the dict timetable ----------------------------------


def _reference_lb(x, view):
    for v, lit in zip(reversed(x.geq_vals), reversed(x.geq_lits)):
        if view.lit_value(lit) > 0:
            return v, lit
    return x.lb0, None


def _reference_ub(x, view):
    for v, lit in zip(x.geq_vals, x.geq_lits):
        if view.lit_value(lit) < 0:
            return v - 1, -lit
    return x.ub0, None


def _reference_geq(x, v):
    i = bisect.bisect_right(x.geq_vals, v)
    return None if i == 0 else (x.geq_vals[i - 1], x.geq_lits[i - 1])


def _reference_leq(x, v):
    i = bisect.bisect_right(x.geq_vals, v)
    if i == len(x.geq_vals):
        return None
    return x.geq_vals[i] - 1, -x.geq_lits[i]


def _reference_cumulative(tasks, cap, view):
    """The timetable Cumulative.propagate used before its list rewrite:
    per-value ladder scans, a dict profile with per-time owners."""
    bounds = [_reference_lb(x, view) + _reference_ub(x, view)
              for x, _, _ in tasks]

    def witnesses(idx):
        wits = []
        for i in idx:
            _, lwit, _, uwit = bounds[i]
            if lwit is not None:
                wits.append(lwit)
            if uwit is not None:
                wits.append(uwit)
        return wits

    profile = {}
    owners = {}
    for i, (x, dur, dem) in enumerate(tasks):
        lb, _, ub, _ = bounds[i]
        for t in range(ub, lb + dur):
            profile[t] = profile.get(t, 0) + dem
            owners.setdefault(t, []).append(i)
    for t in sorted(profile):
        if profile[t] > cap:
            view.fail(witnesses(owners[t]))
            return
    for i, (x, dur, dem) in enumerate(tasks):
        lb, _, ub, _ = bounds[i]

        def load(t):
            h = profile.get(t, 0)
            if ub <= t < lb + dur:
                h -= dem
            return h

        def blockers(lo, hi):
            return sorted({j for t in range(lo, hi)
                           for j in owners.get(t, ()) if j != i}) + [i]

        s = lb
        while True:
            clash = next((t for t in range(s, s + dur)
                          if load(t) + dem > cap), None)
            if clash is None:
                break
            s = clash + 1
            if s > ub:
                view.fail(witnesses(blockers(lb, ub + dur)))
                return
        if s > lb:
            got = _reference_geq(x, s)
            if got is not None and got[0] > lb:
                if not view.enqueue(got[1], witnesses(blockers(lb, s + dur))):
                    return
        e = ub
        while True:
            clash = next((t for t in range(e + dur - 1, e - 1, -1)
                          if load(t) + dem > cap), None)
            if clash is None:
                break
            e = clash - dur
            if e < lb:
                view.fail(witnesses(blockers(lb, ub + dur)))
                return
        if e < ub:
            got = _reference_leq(x, e)
            if got is not None and got[0] < ub:
                if not view.enqueue(got[1], witnesses(blockers(e, ub + dur))):
                    return


class _RefusingView(_RecordingView):
    """A recording view whose enqueue refuses a literal that is false, as
    a kernel does when the inference conflicts."""

    def enqueue(self, lit, reason):
        super().enqueue(lit, reason)
        return self.lit_value(lit) >= 0


def _random_cumulative_case(rng):
    """A tiny cumulative with partly materialized ladders and an arbitrary
    partial assignment of its order literals (monotone or not)."""
    mdl = CpModel()
    cap = rng.randint(1, 3)
    tasks = []
    for _ in range(rng.randint(1, 4)):
        lb0 = rng.randint(0, 3)
        x = mdl.new_int_var(lb0, lb0 + rng.randint(0, 4))
        for v in range(x.lb0 + 1, x.ub0 + 1):
            if rng.random() < 0.8:
                mdl.lit_geq(x, v)
        tasks.append((x, rng.randint(1, 3), rng.randint(1, cap)))
    values = {}
    for x, _, _ in tasks:
        if rng.random() < 0.5:       # a monotone ladder cut at lb and ub
            lb = rng.randint(x.lb0, x.ub0)
            ub = rng.randint(lb, x.ub0)
            for v, lit in zip(x.geq_vals, x.geq_lits):
                if v <= lb and rng.random() < 0.7:
                    values[lit] = True
                elif v > ub and rng.random() < 0.7:
                    values[lit] = False
        else:                        # any values, e.g. [x>=v] over unset [x>=v-1]
            for lit in x.geq_lits:
                r = rng.random()
                if r < 0.3:
                    values[lit] = True
                elif r < 0.5:
                    values[lit] = False
    return mdl, tasks, cap, values


def _cumulative_inferences(n_cases, seed):
    """(tasks, cap, values, enqueued, failed) of the list timetable on random
    cases, each checked against the dict timetable on the same view."""
    rng = random.Random(seed)
    out = []
    for _ in range(n_cases):
        mdl, tasks, cap, values = _random_cumulative_case(rng)
        view_cls = _RefusingView if rng.random() < 0.5 else _RecordingView
        xs = [x for x, _, _ in tasks]
        got, want = view_cls(values, xs), view_cls(values, xs)
        Cumulative(tasks, cap).propagate(got)
        _reference_cumulative(tasks, cap, want)
        assert (got.enqueued, got.failed) == (want.enqueued, want.failed)
        out.append((tasks, cap, values, got.enqueued, got.failed))
    return out


def test_cumulative_matches_dict_timetable():
    cases = _cumulative_inferences(600, seed=5)
    n_enq = sum(len(c[3]) for c in cases)
    n_fail = sum(c[4] is not None for c in cases)
    nonmono = 0
    for tasks, _, values, _, _ in cases:
        for x, _, _ in tasks:
            held = [values.get(lit) for lit in x.geq_lits]
            nonmono += any(a is not True and b is True
                           for a, b in zip(held, held[1:]))
    # the batch exercises pushes, failures and non-monotone ladders
    assert n_enq > 100 and n_fail > 100 and nonmono > 100


def _holds_capacity(tasks, cap, starts):
    usage = {}
    for (_, dur, dem), s in zip(tasks, starts):
        for t in range(s, s + dur):
            usage[t] = usage.get(t, 0) + dem
    return max(usage.values()) <= cap


def _placements(tasks, lits):
    """Start assignments inside the bounds that the order literals state."""
    bounds = {id(x): [x.lb0, x.ub0] for x, _, _ in tasks}
    owner = {}
    for x, _, _ in tasks:
        for v, lit in zip(x.geq_vals, x.geq_lits):
            owner[lit] = (x, v)
    for lit in lits:
        x, v = owner[abs(lit)]
        if lit > 0:
            bounds[id(x)][0] = max(bounds[id(x)][0], v)
        else:
            bounds[id(x)][1] = min(bounds[id(x)][1], v - 1)
    return itertools.product(*[range(bounds[id(x)][0], bounds[id(x)][1] + 1)
                               for x, _, _ in tasks])


def test_cumulative_explanations_are_sound():
    """No placement inside the bounds of a reason respects capacity once the
    pushed literal is negated; none at all inside a failure's reason."""
    checked = 0
    for tasks, cap, _, enqueued, failed in _cumulative_inferences(600, 5):
        for lit, reason in enqueued:
            assert not any(_holds_capacity(tasks, cap, starts)
                           for starts in _placements(tasks, reason + (-lit,)))
            checked += 1
        if failed is not None:
            assert not any(_holds_capacity(tasks, cap, starts)
                           for starts in _placements(tasks, failed))
            checked += 1
    assert checked > 200


# --- half-reified linear against the ladder readers ------------------------


class _ApplyingView(_RecordingView):
    """A recording view that applies each enqueue, so a later read sees the
    bound it moved, and refuses a false literal as a kernel does."""

    def enqueue(self, lit, reason):
        super().enqueue(lit, reason)
        if self.lit_value(lit) < 0:
            return False
        self.values[abs(lit)] = lit > 0
        self._show()
        return True


def _reference_linear(i, terms, rhs, view):
    """HalfReifiedLinear.propagate over per-term ladder scans: each push
    reads its term's bounds again, after the enqueues before it."""
    if view.lit_value(i) <= 0:
        return
    sides = []
    for c, x in terms:
        b, wit = _reference_ub(x, view) if c > 0 else _reference_lb(x, view)
        sides.append((c * b, wit))
    total = sum(side for side, _ in sides)
    if total < rhs:
        view.fail([i] + [w for _, w in sides if w is not None])
        return
    for j, (c, x) in enumerate(terms):
        need = rhs - (total - sides[j][0])
        if c > 0:
            target = -(-need // c)
            lb, _ = _reference_lb(x, view)
            if target <= lb:
                continue
            got = _reference_geq(x, target)
            if got is None or got[0] <= lb:
                continue
        else:
            target = need // c
            ub, _ = _reference_ub(x, view)
            if target >= ub:
                continue
            got = _reference_leq(x, target)
            if got is None or got[0] >= ub:
                continue
        reason = [i] + [w for k, (_, w) in enumerate(sides)
                        if k != j and w is not None]
        if not view.enqueue(got[1], reason):
            return


def test_linear_matches_ladder_readers():
    """On random tiny linears whose terms may share a variable, over views
    that apply each enqueue: the same enqueues, with the same reasons and in
    the same order, and the same failure as the reference."""
    rng = random.Random(43)
    enqueues = fails = moved = 0
    for _ in range(1500):
        _, xs, i, terms, rhs, values = _random_linear_case(rng)
        start = {abs(l): b == (l > 0) for l, b in values.items()}
        got = _ApplyingView(dict(start), xs)
        want = _ApplyingView(dict(start), xs)
        HalfReifiedLinear(i, terms, rhs).propagate(got)
        _reference_linear(i, terms, rhs, want)
        assert (got.enqueued, got.failed) == (want.enqueued, want.failed)
        stale = _RecordingView(dict(start), xs)
        HalfReifiedLinear(i, terms, rhs).propagate(stale)
        moved += stale.enqueued != got.enqueued
        enqueues += len(got.enqueued)
        fails += got.failed is not None
    # pushes, failures, and calls whose pushes a read made before an earlier
    # enqueue of the same call would change
    assert enqueues > 300 and fails > 100 and moved > 20


def test_bounds_match_brute_force():
    """IntVar.bounds on random partial ladders, monotone or not: the lower
    bound and its witness from the highest true literal, the upper bound
    and its witness from the lowest false one.  A repeated lit_geq returns
    the literal it returned first."""
    rng = random.Random(17)
    nonmono = 0
    for _ in range(500):
        mdl = CpModel()
        lb0 = rng.randint(-3, 3)
        x = mdl.new_int_var(lb0, lb0 + rng.randint(0, 6))
        made = {}
        for _ in range(rng.randint(0, 10)):
            v = rng.randint(x.lb0 - 1, x.ub0 + 1)
            lit = mdl.lit_geq(x, v)
            assert made.setdefault(v, lit) == lit
        view = _RecordingView({abs(lit): rng.random() < 0.5
                               for lit in x.geq_lits if rng.random() < 0.6})
        held = [v for v in x.geq_vals if view.lit_value(made[v]) > 0]
        freed = [v for v in x.geq_vals if view.lit_value(made[v]) < 0]
        lb = max(held, default=x.lb0)
        ub = min(freed, default=x.ub0 + 1) - 1
        want = (lb, made[lb] if held else None,
                ub, -made[ub + 1] if freed else None)
        assert x.bounds(view.lit_value) == want
        nonmono += any(v < lb for v in freed) or any(
            view.lit_value(made[v]) == 0 for v in x.geq_vals if v < lb)
    assert nonmono > 50


def test_ladder_insertions_keep_literals_parallel():
    mdl = CpModel()
    x = mdl.new_int_var(0, 20)
    made = {}
    for v in (10, 5, 15, 1, 20, 7, 12, 2, 19):   # middle and both ends
        made[v] = mdl.lit_geq(x, v)
        assert x.geq_vals == sorted(made)
        assert x.geq_lits == [made[v] for v in x.geq_vals]


def test_cumulative_sees_ladder_growth_between_solves(kernel):
    """A grown ladder is read by the next solve exactly as by a model that
    had the full ladder before the cumulative was posted.  The grown ladders
    are complete, so every model respects capacity."""
    spec = [((0, 6), 3, 1), ((1, 5), 2, 1), ((2, 2), 1, 1)]
    early, late = [3, 2], [4, 1, 6, 5]

    def build(grow_first):
        mdl = CpModel(kernel=kernel)
        xs = [mdl.new_int_var(lo, hi) for (lo, hi), _, _ in spec]
        for v in early:
            mdl.lit_geq(xs[0], v)
            mdl.lit_geq(xs[1], v)
        if grow_first:
            for v in late:
                mdl.lit_geq(xs[0], v)
                mdl.lit_geq(xs[1], v)
        mdl.post_cumulative([(x, dur, dem) for x, (_, dur, dem)
                             in zip(xs, spec)], 1)
        return mdl, xs

    grown, gx = build(False)
    grown.eng.solve()
    for v in late:
        grown.lit_geq(gx[0], v)
        grown.lit_geq(gx[1], v)
    fresh, fx = build(True)
    assert [x.geq_vals for x in gx] == [x.geq_vals for x in fx]
    for x in gx:
        assert x.geq_lits == [grown.lit_geq(x, v) for v in x.geq_vals]
    queries = [[], [grown.lit_geq(gx[0], 4)], [-grown.lit_geq(gx[1], 2)],
               [grown.lit_geq(gx[0], 6)],
               [grown.lit_geq(gx[0], 1), -grown.lit_geq(gx[0], 3),
                grown.lit_geq(gx[1], 5)]]
    for assume in queries:
        a = grown.eng.solve(assumptions=assume)
        b = fresh.eng.solve(assumptions=assume)
        assert (a.status, a.model) == (b.status, b.model)
        if a.status == "sat":
            starts = [decode_int(x, a.model) for x in gx]
            assert _holds_capacity([(x, d, m) for x, (_, d, m)
                                    in zip(gx, spec)], 1, starts)


# --- kernel bounds against the ladder ----------------------------------------


class _BoundsProbe(Propagator):
    """Runs at every fixpoint, infers nothing, and asserts that the kernel's
    cur of every IntVar in ints is what the ladder gives.  Counts its calls,
    and the calls that met a non-monotone ladder (an unassigned literal
    below a true one)."""

    wake_on = None

    def __init__(self, ints=()):
        self.ints = list(ints)
        self.calls = self.nonmono = 0

    def propagate(self, view):
        self.calls += 1
        for x in self.ints:
            assert x.cur == x.bounds(view.lit_value), x
            vals = list(map(view.lit_value, x.geq_lits))
            if 1 in vals and 0 in vals[:len(vals) - vals[::-1].index(1)]:
                self.nonmono += 1


@pytest.mark.parametrize("algo", ["bnb", "wpm1", "msu3"])
def test_kernel_bounds_follow_the_ladder_on_rcpsp(kernel, algo):
    calls = conflicts = 0
    for _, inst in generate_micro_set(6, seed=5):
        for alpha in (0.7, 0.9):
            p = soften(inst, alpha, mode="weighted", seed=1)
            eng = Engine(kernel=kernel)
            # attached first, it runs before every other propagator call
            probe = eng.attach_propagator(_BoundsProbe())
            probe.ints, indicators = build_model(p, eng)
            if eng.root_conflict:
                continue
            res = IndicatorProblem(eng, indicators).solve(algo)
            assert res.status in ("optimal", "unsatisfiable")
            calls += probe.calls
            conflicts += eng.stats["conflicts"]
    assert calls > 150 and conflicts > 20


def test_ladders_stay_monotone_after_backjumps_to_the_root(kernel):
    """The kernel closes level 0 before it opens the assumptions level, so
    the channelling clauses have made [x >= 2] and [x >= 1] true under a
    level-0 unit [x >= 3] before any propagator runs, after each backjump
    to the root (after a learnt unit or a restart) as at the start.  A
    pigeonhole beside x makes the backjumps."""
    mdl = CpModel(kernel=kernel)
    probe = mdl.eng.attach_propagator(_BoundsProbe())
    x = mdl.new_int_var(0, 5)
    mdl.materialize(x)
    probe.ints = [x]
    mdl.eng.add_clause((mdl.lit_geq(x, 3),))
    pigeonhole(mdl.eng, 6)
    out = mdl.eng.solve()
    assert out.status == "unsat"
    assert out.restarts > 0
    assert sum(len(c) == 1 for c in out.learnts) > 0
    assert probe.calls > 100 and probe.nonmono == 0


def test_kernel_bounds_follow_ladder_growth(kernel):
    mdl = CpModel(kernel=kernel)
    probe = mdl.eng.attach_propagator(_BoundsProbe())
    x, y = mdl.new_int_var(0, 6), mdl.new_int_var(-2, 4)
    probe.ints = [x, y]
    for v in (2, 5):
        mdl.lit_geq(x, v)
    mdl.post_half_reified_linear(mdl.true_lit, [(1, x), (-1, y)], 2)
    assert mdl.eng.solve(assumptions=[mdl.lit_geq(x, 5)]).status == "sat"
    mdl.materialize(x)
    mdl.materialize(y)
    for assume in ([mdl.lit_geq(y, 3)], [-mdl.lit_geq(x, 4)],
                   [mdl.lit_geq(y, 1), -mdl.lit_geq(x, 4)]):
        out = mdl.eng.solve(assumptions=assume)
        assert decode_int(x, out.model) >= decode_int(y, out.model) + 2
    assert probe.calls > 10


class _RaisesAtCall(Propagator):
    """At call number at, enqueues citing a literal that is not true, which
    the kernel refuses with EngineIntegrityError."""

    wake_on = None

    def __init__(self, at):
        self.at = at
        self.calls = 0

    def propagate(self, view):
        self.calls += 1
        if self.calls == self.at:
            view.enqueue(1, [1, -1])


def test_kernel_bounds_are_reset_after_a_raise(kernel):
    """A solve raises mid-search with bounds of x moved; the kernel that the
    next solve rebuilds starts from x's original bounds, not from the dead
    kernel's."""
    mdl = CpModel(kernel=kernel)
    probe = mdl.eng.attach_propagator(_BoundsProbe())
    x = mdl.new_int_var(0, 5)
    mdl.materialize(x)
    probe.ints = [x]
    pigeonhole(mdl.eng, 6)
    bad = mdl.eng.attach_propagator(_RaisesAtCall(40))
    with pytest.raises(EngineIntegrityError):
        mdl.eng.solve(assumptions=[mdl.lit_geq(x, 2), -mdl.lit_geq(x, 5)])
    assert bad.calls == 40
    assert x.cur[0] >= 2 and x.cur[2] <= 4      # the dead kernel's state
    calls = probe.calls
    out = mdl.eng.solve(assumptions=[-mdl.lit_geq(x, 3)])
    assert out.status == "unsat" and probe.calls > calls
