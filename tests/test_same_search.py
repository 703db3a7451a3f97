"""tools/same_search.py, the search identity check: its digest repeats,
tells different searches apart and agrees between kernels, and its
per-driver digests cover each driver's runs alone."""

import importlib.util
import os

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
    hexdigest, solves, per_driver = same_search.digests(runs)
    assert (hexdigest, solves) == same_search.digest(runs)
    assert list(per_driver) == list(ALGORITHMS)
    for driver in ALGORITHMS:
        alone = [(d, run) for d, run in runs if d == driver]
        assert same_search.digest(alone)[0] == per_driver[driver]
    assert len(set(per_driver.values())) == len(ALGORITHMS)
