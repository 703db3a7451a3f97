"""Determinism of the benchmark: a claim may rest on a per-layer count only
if the count repeats exactly, and tracing must not change any answer.

Runs on a few cheap cells of every workload.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

GROUPS = {"wcnf-random": ("n35-s2",), "wcnf-small": ("n16-s0", "n16-s1"),
          "rcpsp-soft": ("s1-a1.0", "s1-a0.9")}


@pytest.fixture(scope="module")
def cells():
    out = []
    for workload, groups in GROUPS.items():
        out += [c for c in workloads.build(workload) if c.group in groups]
    return out


def traced_round(cells):
    tracer = layers.Tracer()
    with tracer:
        _, answers, _ = run.run_round(cells, range(len(cells)), tracer)
    return answers, tracer.counters()


def test_traced_rounds_repeat_counts_and_answers(cells):
    answers_a, counts_a = traced_round(cells)
    answers_b, counts_b = traced_round(cells)
    assert answers_a == answers_b
    assert counts_a == counts_b
    # every layer named by the benchmark is exercised by these cells
    for name in ("engine.retract.calls", "cp.pb.calls",
                 "cp.cumulative.calls", "cp.linear.calls"):
        assert counts_a[name] > 0, name


def test_tracing_leaves_answers_unchanged(cells):
    _, plain, _ = run.run_round(cells, reversed(range(len(cells))))
    traced, _ = traced_round(cells)
    assert plain == traced
    assert not workloads.check_round(cells, plain,
                                     workloads.oracle_answers(cells))


def test_tracer_restores_the_original_code():
    from maxcore import cp
    from maxcore.engine import Engine
    before = (Engine.solve, cp.Cumulative.propagate)
    with layers.Tracer():
        assert Engine.solve is not before[0]
    assert (Engine.solve, cp.Cumulative.propagate) == before
