"""Run the test suite and the search identity check on both kernels.

Copies the checkout's files (those git tracks, plus untracked ones it does
not ignore) to a temporary directory, builds the C++ kernel there with
`python3 setup.py build_ext --inplace`, runs `python -m pytest -q tests
perfbench` (every kernel-parametrized test then runs on both kernels, and
tests/test_kernels.py compares them), and runs tools/same_search.py with
--kernel python and --kernel compiled.  It prints the pass counts and both
digests, deletes the directory, and exits 0 only if the build and the tests
passed and the two digests are equal.  Nothing is built in the checkout.
The directory is made where tempfile puts it (TMPDIR).  Run from anywhere
in the repository:

    python3 tools/both_kernels.py
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def checkout_files():
    out = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True, text=True).stdout
    # a tracked file deleted from the working tree is left out
    return [f for f in out.split("\0")
            if f and os.path.isfile(os.path.join(ROOT, f))]


def copy_tree(dest):
    for rel in checkout_files():
        target = os.path.join(dest, rel)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(os.path.join(ROOT, rel), target)


def run(cmd, cwd):
    """(exit code, last line of output) of a command run in cwd with its
    src/ as PYTHONPATH; the output is echoed."""
    env = dict(os.environ, PYTHONPATH=os.path.join(cwd, "src"))
    # the compiled kernel is also the default one there
    env.pop("MAXCORE_PURE", None)
    print("$ " + " ".join(cmd), flush=True)
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    tmp = tempfile.mkdtemp(prefix="maxcore-both-")
    try:
        copy_tree(tmp)
        code, _ = run([sys.executable, "setup.py", "build_ext", "--inplace"],
                      tmp)
        if code:
            print("build failed")
            return 1
        test_code, counts = run(
            [sys.executable, "-m", "pytest", "-q", "tests", "perfbench"], tmp)
        digests = {}
        for kernel in ("python", "compiled"):
            code, last = run([sys.executable, "tools/same_search.py",
                              "--kernel", kernel], tmp)
            digests[kernel] = last.split()[-1] if code == 0 and last else None
        print()
        print("tests (both kernels): %s" % counts)
        for kernel, hexdigest in digests.items():
            print("search digest %-8s %s" % (kernel, hexdigest))
        same = None not in digests.values() and len(set(digests.values())) == 1
        print("digests %s" % ("match" if same else "DIFFER"))
        return 0 if test_code == 0 and same else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
