"""Planning knowledge toolkit: PDDL parsing, a planning knowledge graph,
planner selection, macro mining, and an instrumented forward-search planner."""


class PlankbError(Exception):
    """Base class of the errors a bad input or argument raises: the CLI
    prints the message and exits 1."""
