"""Shared instance builders for the test suite."""

import pytest

from maxcore.engine import Engine
from maxcore.maxsat import SoftInstance, WeightedClause

SOLVE_FIELDS = ("status", "model", "core", "conflicts", "decisions",
                "propagations", "restarts", "learnts", "explanations")


def build_sample5():
    """Five unit-weight soft clauses over x1..x3; optimum violates exactly one."""
    clauses = [
        WeightedClause((1,), 1),
        WeightedClause((2,), 1),
        WeightedClause((3,), 1),
        WeightedClause((-1, -2), 1),
        WeightedClause((-1, -3), 1),
    ]
    return SoftInstance(3, clauses)


def build_sample7():
    """Seven unit-weight soft clauses over x1..x4; optimum violates exactly two."""
    clauses = [
        WeightedClause((1,), 1),
        WeightedClause((2,), 1),
        WeightedClause((3,), 1),
        WeightedClause((-1, -2), 1),
        WeightedClause((-1, -3), 1),
        WeightedClause((4,), 1),
        WeightedClause((-3, -4), 1),
    ]
    return SoftInstance(4, clauses)


@pytest.fixture
def sample5():
    return build_sample5()


@pytest.fixture
def sample7():
    return build_sample7()


@pytest.fixture
def solves(monkeypatch):
    """Every Engine.solve() outcome in call order: a tuple of SOLVE_FIELDS
    followed by the propagator calls the solve made, each as (index of the
    propagator, number of assigned variables at the call)."""
    seen = []
    original = Engine.solve

    def recording(eng, *args, **kwargs):
        calls = []
        for idx, prop in enumerate(eng.propagators):
            prop.propagate = _recorded(prop.propagate, idx, eng.nvars, calls)
        try:
            out = original(eng, *args, **kwargs)
        finally:
            for prop in eng.propagators:
                del prop.propagate
        seen.append(tuple(getattr(out, f) for f in SOLVE_FIELDS)
                    + (tuple(calls),))
        return out

    monkeypatch.setattr(Engine, "solve", recording)
    return seen


def _recorded(propagate, idx, nvars, calls):
    def recorded(view):
        assigned = sum(1 for v in range(1, nvars + 1) if view.lit_value(v))
        calls.append((idx, assigned))
        return propagate(view)
    return recorded
