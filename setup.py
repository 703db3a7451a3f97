from setuptools import Extension, setup

# -ffast-math stays off: activities must round as Python floats do, or the
# compiled kernel's search leaves the pure kernel's.
setup(ext_modules=[
    Extension(
        "maxcore.engine._search",
        ["src/maxcore/engine/_search.cpp"],
        language="c++",
        extra_compile_args=["-O2", "-std=c++17"],
    ),
])
