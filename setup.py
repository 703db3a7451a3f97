import os

from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    cythonize = None

PYX = os.path.join("src", "maxcore", "engine", "_search.pyx")
CPP = os.path.join("src", "maxcore", "engine", "_search.cpp")


def search_extension(source):
    return Extension(
        "maxcore.engine._search",
        [source],
        language="c++",
        extra_compile_args=["-O2", "-std=c++17"],
    )


ext_modules = []
if cythonize is not None and os.path.exists(PYX):
    ext_modules = cythonize(
        [search_extension(PYX)],
        compiler_directives={
            "boundscheck": False,
            "wraparound": False,
            "cdivision": True,
            "language_level": "3",
        },
    )
elif os.path.exists(CPP):
    # without Cython, compile the C++ that Cython generated from PYX
    ext_modules = [search_extension(CPP)]

setup(ext_modules=ext_modules)
