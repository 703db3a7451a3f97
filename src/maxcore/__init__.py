"""Core-guided soft-constraint optimization over a CDCL engine."""

__version__ = "0.1.0"

from .engine import (
    Engine,
    Propagator,
    SolveOutcome,
    available_kernels,
    default_kernel,
)
from .maxsat import (
    ALGORITHMS,
    HARD,
    SoftInstance,
    WeightedClause,
    evaluate_cost,
    parse_wcnf,
    serialize_wcnf,
    solve,
)
from .rcpsp import (
    RcpspMax,
    parse_instance,
    serialize_instance,
    soften,
    solve_schedule,
)

__all__ = [
    "ALGORITHMS",
    "Engine",
    "HARD",
    "Propagator",
    "RcpspMax",
    "SoftInstance",
    "SolveOutcome",
    "WeightedClause",
    "available_kernels",
    "default_kernel",
    "evaluate_cost",
    "parse_instance",
    "parse_wcnf",
    "serialize_instance",
    "serialize_wcnf",
    "soften",
    "solve",
    "solve_schedule",
    "__version__",
]
