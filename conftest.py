"""Test-session setup: run the compiled kernel too, wherever it can be built.

Before any test module imports maxcore.engine, this builds
src/maxcore/engine/_search.cpp with setup.py's build_ext into
build/test-kernel/<SHA-256 of the source>/, unless that build already
exists, and installs an import finder that loads maxcore.engine._search
from it.  Every kernel-parametrized test then runs on both kernels and
tests/test_kernels.py compares them.  The session's default kernel stays
the pure one, the specification and the kernel perfbench runs: MAXCORE_PURE
is set to 1 unless the environment already sets it (set it empty to make
the compiled kernel the default of tests that name no kernel).  Without a
C++17 compiler or the Python headers the build fails, nothing is
installed, the report header says why, and the tests run on the pure
kernel alone.  Nothing is built in src/, so outside pytest every kernel
import is as it was.  tools/both_kernels.py loads this file to reuse the
same build.

The work runs when pytest imports this file, not in a hook: pytest imports
the conftest.py of every directory named on its command line before any
hook runs, and tests/conftest.py imports maxcore.engine.

Every test has a time limit of TEST_TIME_LIMIT_S, so a loop that stops
making progress fails its test, named, instead of hanging the run.
"""

import hashlib
import importlib.abc
import importlib.util
import os
import shutil
import signal
import subprocess
import sys
import sysconfig
import tempfile

import pytest

ROOT = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(ROOT, "src", "maxcore", "engine", "_search.cpp")
CACHE = os.path.join(ROOT, "build", "test-kernel")
MODULE = "maxcore.engine._search"
BUILDING = "building-"
TEST_TIME_LIMIT_S = 60   # the slowest test takes a few seconds

os.environ.setdefault("MAXCORE_PURE", "1")


class _CachedKernel(importlib.abc.MetaPathFinder):
    """Finds maxcore.engine._search at one built file."""

    def __init__(self, path):
        self.path = path

    def find_spec(self, fullname, path=None, target=None):
        if fullname != MODULE:
            return None
        return importlib.util.spec_from_file_location(fullname, self.path)


def _build(digest):
    """Path of the module built from the source of this digest, building it
    first if needed; None with the reason when the build fails."""
    rel = os.path.join("maxcore", "engine",
                       "_search" + sysconfig.get_config_var("EXT_SUFFIX"))
    done = os.path.join(CACHE, digest)
    if os.path.isfile(os.path.join(done, rel)):
        return os.path.join(done, rel), None
    tmp = None
    try:
        os.makedirs(CACHE, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix=BUILDING, dir=CACHE)
        proc = subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--build-lib", tmp,
             "--build-temp", os.path.join(tmp, "obj")],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode or not os.path.isfile(os.path.join(tmp, rel)):
            lines = (proc.stderr or proc.stdout).strip().splitlines()
            return None, lines[-1] if lines else "build failed"
        shutil.rmtree(os.path.join(tmp, "obj"), ignore_errors=True)
        # builds of other versions of the source are stale; a build still
        # in progress belongs to another session
        for name in os.listdir(CACHE):
            if not name.startswith(BUILDING):
                shutil.rmtree(os.path.join(CACHE, name), ignore_errors=True)
        os.replace(tmp, done)
        tmp = None
        return os.path.join(done, rel), None
    except OSError as e:
        # another session may have finished the same build first
        if os.path.isfile(os.path.join(done, rel)):
            return os.path.join(done, rel), None
        return None, str(e)
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)


def install():
    """Build (or reuse) the compiled kernel and install its finder; returns
    a line that says which build is loaded, or why none is."""
    try:
        with open(SOURCE, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
    except OSError as e:
        path, why = None, str(e)
    else:
        path, why = _build(digest)
    if path is None:
        return "compiled kernel not built (%s); pure kernel only" % why
    sys.meta_path.insert(0, _CachedKernel(path))
    return "compiled kernel: %s" % os.path.relpath(path, ROOT)


STATUS = install()


def pytest_report_header(config):
    return STATUS


@pytest.fixture(autouse=True)
def _time_limit(request):
    """Fails the test once it has run TEST_TIME_LIMIT_S, by SIGALRM from a
    real-time interval timer.  Where the platform has neither, tests run
    without a limit.  The handler runs between Python bytecodes, so it
    stops a compiled kernel at its next call into a Python propagator.
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
