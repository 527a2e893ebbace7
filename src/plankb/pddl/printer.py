"""Canonical PDDL printing.

Output is byte-deterministic: identifiers are already lowercase, requirement
keywords are sorted, set-valued fields (preconditions, effects, init, goal)
are printed in sorted order, and declaration order is preserved elsewhere.
"""

from __future__ import annotations

from .ast import DomainDef, OBJECT_TYPE, ProblemDef, literal_key


def _typed_list(pairs) -> str:
    pairs = list(pairs)
    # A bare name preceding a dashed entry would inherit that entry's type on
    # re-parse, so types are written explicitly unless the whole list is
    # untyped.
    all_object = all(typ == OBJECT_TYPE for _, typ in pairs)
    parts = []
    for name, typ in pairs:
        if all_object:
            parts.append(name)
        else:
            parts.append("{} - {}".format(name, typ))
    return " ".join(parts)


def _conjunction(literals: list[str], indent: str) -> str:
    if not literals:
        return "(and)"
    if len(literals) == 1:
        return literals[0]
    sep = "\n" + indent + "     "
    return "(and {})".format(sep.join(literals))


def print_domain(d: DomainDef) -> str:
    lines = ["(define (domain {})".format(d.name)]
    if d.requirements:
        lines.append("  (:requirements {})".format(" ".join(sorted(d.requirements))))
    if d.types:
        lines.append(
            "  (:types {})".format(
                _typed_list((t.name, t.parent) for t in d.types)
            )
        )
    if d.constants:
        lines.append("  (:constants {})".format(_typed_list(d.constants)))
    if d.predicates:
        preds = []
        for p in d.predicates:
            if p.params:
                preds.append("({} {})".format(p.name, _typed_list(p.params)))
            else:
                preds.append("({})".format(p.name))
        lines.append("  (:predicates {})".format("\n                ".join(preds)))
    for a in d.actions:
        pre = [str(l) for l in sorted(a.precondition, key=literal_key)]
        effects = [str(x) for x in sorted(a.add)]
        effects += ["(not {})".format(x) for x in sorted(a.delete)]
        lines.append("  (:action {}".format(a.name))
        lines.append("    :parameters ({})".format(_typed_list(a.params)))
        lines.append("    :precondition {}".format(_conjunction(pre, "    ")))
        lines.append("    :effect {})".format(_conjunction(effects, "    ")))
    lines.append(")")
    return "\n".join(lines) + "\n"


def print_problem(p: ProblemDef) -> str:
    lines = ["(define (problem {})".format(p.name)]
    lines.append("  (:domain {})".format(p.domain_name))
    if p.objects:
        lines.append("  (:objects {})".format(_typed_list(p.objects)))
    init = [str(a) for a in sorted(p.init)]
    lines.append("  (:init {})".format("\n         ".join(init)))
    goal = [str(l) for l in sorted(p.goal, key=literal_key)]
    lines.append("  (:goal {})".format(_conjunction(goal, "  ")))
    lines.append(")")
    return "\n".join(lines) + "\n"
