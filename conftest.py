"""Test-session setup: the default kernel, the compiled kernel's status
line and a time limit per test.

Every kernel-parametrized test runs on both kernels wherever the compiled
one can be found or built, and tests/test_kernels.py and
tests/test_same_search.py compare them.  The engine finds the compiled
kernel itself (maxcore.engine.core): in this checkout it loads, or builds
on first need with setup.py build_ext, build/kernel/<SHA-256 of
_search.cpp>/, the same cache every other run from the checkout uses.
This file has it looked for before any test module is collected, and
reports the engine's compiled_status line.  The session's default kernel
stays the pure one, the specification: MAXCORE_PURE is set to 1 unless the
environment already sets it (set it empty to make the compiled kernel the
default of tests that name no kernel).  Without a C++17 compiler or the
Python headers the build fails, the report header says why, the tests
that take the compiled_kernel fixture skip with the same line, and the
other tests run on the pure kernel alone.

Every test has a time limit of TEST_TIME_LIMIT_S, so a loop that stops
making progress fails its test, named, instead of hanging the run.
"""

import os
import signal

import pytest

from maxcore.engine import available_kernels, core

TEST_TIME_LIMIT_S = 60   # the slowest test takes a few seconds

os.environ.setdefault("MAXCORE_PURE", "1")
available_kernels()          # finds, or builds, the compiled kernel
STATUS = core.compiled_status


def pytest_report_header(config):
    return STATUS


@pytest.fixture
def compiled_kernel():
    """Skips the test, with STATUS as its reason, unless the compiled
    kernel imports."""
    if "compiled" not in available_kernels():
        pytest.skip(STATUS)


@pytest.fixture(autouse=True)
def _time_limit(request):
    """Fails the test once it has run TEST_TIME_LIMIT_S, by SIGALRM from a
    real-time interval timer.  Where the platform has neither, tests run
    without a limit.  The handler runs between Python bytecodes, and a
    compiled search checks for signals at every conflict, so it stops a
    compiled kernel at its next conflict or call into a Python propagator.
    The failure names the test and the function it was in, and carries no
    traceback: the interrupted frame may have no line number (Python 3.11),
    and pytest then fails the whole session formatting one."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        code = frame.f_code
        pytest.fail("%s ran past its time limit of %d s, in %s (%s:%s)"
                    % (request.node.nodeid, TEST_TIME_LIMIT_S, code.co_name,
                       code.co_filename, frame.f_lineno), pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
