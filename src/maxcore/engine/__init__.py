"""Assumption-based CDCL engine with pluggable propagators.

Two interchangeable search kernels run the identical search: a hand-written
C++ extension (maxcore.engine._search, built from _search.cpp by setup.py)
and the pure-Python kernel (_search_py), which is its specification.  The
compiled kernel is preferred wherever it is found: installed or built in
place, or, in a source checkout, built by the engine itself on first need
into build/kernel/ (see core).  Set MAXCORE_PURE=1 to force the Python one.
"""

from .core import (
    Engine,
    Propagator,
    SolveOutcome,
    available_kernels,
    default_kernel,
)
from .errors import EngineError, EngineIntegrityError, MidSearchMutationError

__all__ = [
    "Engine",
    "Propagator",
    "SolveOutcome",
    "available_kernels",
    "default_kernel",
    "EngineError",
    "EngineIntegrityError",
    "MidSearchMutationError",
]
