"""Engine error types."""


class EngineError(Exception):
    """Base class for engine faults."""


class EngineIntegrityError(EngineError):
    """A propagator handed the engine an explanation whose antecedents are not all true."""


class MidSearchMutationError(EngineError):
    """Variables, clauses or a nested solve were requested while a search
    was running."""
