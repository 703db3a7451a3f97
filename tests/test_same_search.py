"""tools/same_search.py, the search identity check: its digest repeats,
tells different searches apart and agrees between kernels, its per-driver
digests cover each driver's runs alone, and its answers digest covers each
run's status and optimum alone.  Both kernels run the same search over
every part of it."""

import importlib.util
import os

import pytest

from maxcore.engine import available_kernels
from maxcore.maxsat import ALGORITHMS

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools", "same_search.py")
_spec = importlib.util.spec_from_file_location("same_search", _PATH)
same_search = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_search)


def test_digest_repeats_on_sample5(sample5):
    runs = same_search.driver_runs([sample5], "python")
    hexdigest, solves = same_search.digest(runs)
    assert solves > 0
    assert same_search.digest(runs) == (hexdigest, solves)


def test_digest_separates_instances_and_matches_across_kernels(sample5, sample7):
    five = same_search.digest(same_search.driver_runs([sample5], "python"))
    seven = same_search.digest(same_search.driver_runs([sample7], "python"))
    assert five[0] != seven[0]
    for kernel in available_kernels():
        assert same_search.digest(
            same_search.driver_runs([sample5], kernel)) == five


def test_driver_digest_covers_that_driver_alone(sample5, sample7):
    runs = same_search.driver_runs([sample5, sample7], "python")
    hexdigest, solves, per_driver, _ = same_search.digests(runs)
    assert (hexdigest, solves) == same_search.digest(runs)
    assert list(per_driver) == list(ALGORITHMS)
    for driver in ALGORITHMS:
        alone = [(d, run) for d, run in runs if d == driver]
        assert same_search.digest(alone)[0] == per_driver[driver]
    assert len(set(per_driver.values())) == len(ALGORITHMS)


def test_answers_digest_covers_status_and_optimum_alone(sample5, sample7):
    # the three drivers search differently and answer alike on sample5
    runs = same_search.driver_runs([sample5], "python")
    _, _, per_driver, answers = same_search.digests(runs)
    assert len(set(per_driver.values())) == len(ALGORITHMS)
    alone = {same_search.digests([run])[3] for run in runs}
    assert len(alone) == 1
    seven = same_search.digests(same_search.driver_runs([sample7], "python"))
    assert seven[3] != answers


def test_each_part_prints_an_answers_line_before_the_all_line(
        capsys, monkeypatch):
    monkeypatch.setattr(same_search, "PARTS", ("acceptance",))
    monkeypatch.setattr(same_search, "ACCEPTANCE_INSTANCES", 2)
    assert same_search.main(["--kernel", "python"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == \
        ["acceptance", *ALGORITHMS, "answers", "all"]
    runs = same_search.part_runs("acceptance", "python")
    assert lines[-2].split()[-1] == same_search.digests(runs)[3]


@pytest.mark.parametrize("part", same_search.PARTS)
def test_both_kernels_run_the_same_search(compiled_kernel, part):
    # digest, solve count, per-driver digests and answers digest
    python, compiled = (same_search.digests(same_search.part_runs(
        part, kernel)) for kernel in ("python", "compiled"))
    assert compiled == python, "kernels differ on part %s" % part
