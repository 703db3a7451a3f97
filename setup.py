import hashlib

from setuptools import Extension, setup

SOURCE = "src/maxcore/engine/_search.cpp"

# The module records the hash of its source, so that maxcore.engine can
# refuse a build of an older _search.cpp.
with open(SOURCE, "rb") as f:
    SOURCE_SHA256 = hashlib.sha256(f.read()).hexdigest()

# -ffast-math stays off: activities must round as Python floats do, or the
# compiled kernel's search leaves the pure kernel's.
setup(ext_modules=[
    Extension(
        "maxcore.engine._search",
        [SOURCE],
        language="c++",
        extra_compile_args=["-O2", "-std=c++17"],
        define_macros=[("SOURCE_SHA256", '"%s"' % SOURCE_SHA256)],
    ),
])
