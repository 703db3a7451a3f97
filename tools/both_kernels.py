"""Check that both kernels run the same search.

Loads the root conftest.py, which builds the C++ kernel as the test session
does (into build/test-kernel/<SHA-256 of _search.cpp>/, reused while the
source is unchanged) and loads it from there, then runs tools/same_search.py
in this process with --kernel python and with --kernel compiled.  It prints
both passes and their digests, and exits 0 only if the compiled kernel
loaded and the two digests are equal.  The tests themselves run on both
kernels in the ordinary pytest session.  Nothing is built in src/.  Run
from anywhere in the repository:

    python3 tools/both_kernels.py
"""

import argparse
import contextlib
import importlib.util
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(name, rel):
    """The module at ROOT/rel, executed under name."""
    spec = importlib.util.spec_from_file_location(name,
                                                  os.path.join(ROOT, rel))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    print(load("root_conftest", "conftest.py").STATUS, flush=True)
    same_search = load("same_search", os.path.join("tools", "same_search.py"))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from maxcore.engine import available_kernels
    if "compiled" not in available_kernels():
        print("compiled kernel did not load")
        return 1
    digests = {}
    for kernel in ("python", "compiled"):
        print("$ tools/same_search.py --kernel %s" % kernel, flush=True)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            same_search.main(["--kernel", kernel])
        sys.stdout.write(out.getvalue())
        digests[kernel] = out.getvalue().split()[-1]
    print()
    for kernel, hexdigest in digests.items():
        print("search digest %-8s %s" % (kernel, hexdigest))
    same = len(set(digests.values())) == 1
    print("digests %s" % ("match" if same else "DIFFER"))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
