"""Planning knowledge toolkit: PDDL parsing, a planning knowledge graph,
planner selection, macro mining, and an instrumented forward-search planner."""

__version__ = "0.1.0"


class PlankbError(Exception):
    """Base class of the errors a bad input or argument raises: the CLI
    prints the message and exits 1."""
