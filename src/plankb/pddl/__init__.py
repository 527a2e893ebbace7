"""PDDL abstract syntax, parsing, printing, and validation."""
