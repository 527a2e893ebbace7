"""Well-formedness checks for parsed domains.

Issues are returned as data rather than raised; an empty list means every
structural invariant holds.
"""

from __future__ import annotations

from .ast import (
    DomainDef,
    EQUALITY_PREDICATE,
    OBJECT_TYPE,
    SUPPORTED_REQUIREMENTS,
    WellFormednessIssue,
    literal_key,
)


def _issue(code: str, location: str, message: str) -> WellFormednessIssue:
    return WellFormednessIssue(code, location, message)


def validate_domain(d: DomainDef) -> list[WellFormednessIssue]:
    issues: list[WellFormednessIssue] = []
    loc = "domain " + d.name

    for req in sorted(d.requirements):
        if req not in SUPPORTED_REQUIREMENTS:
            issues.append(
                _issue("UnsupportedRequirement", loc, "requirement {}".format(req))
            )

    # Type declarations form a forest rooted at "object".
    declared = d.declared_types()
    seen_types: set[str] = set()
    for t in d.types:
        if t.name in seen_types:
            issues.append(_issue("DuplicateType", loc, "type '{}'".format(t.name)))
        seen_types.add(t.name)
        if t.parent not in declared:
            issues.append(
                _issue(
                    "UndeclaredType",
                    "type " + t.name,
                    "parent type '{}' is not declared".format(t.parent),
                )
            )
    parents = d.type_parents()
    for t in d.types:
        trail: set[str] = set()
        cur = t.name
        while cur in parents and cur != OBJECT_TYPE:
            if cur in trail:
                issues.append(_issue("TypeCycle", loc, "type '{}'".format(t.name)))
                break
            trail.add(cur)
            cur = parents[cur]

    for cname, ctype in d.constants:
        if ctype not in declared:
            issues.append(
                _issue(
                    "UndeclaredType",
                    "constant " + cname,
                    "type '{}' is not declared".format(ctype),
                )
            )

    seen_preds: set[str] = set()
    for p in d.predicates:
        ploc = "predicate " + p.name
        if p.name in seen_preds:
            issues.append(_issue("DuplicatePredicate", loc, "predicate '{}'".format(p.name)))
        seen_preds.add(p.name)
        seen_vars: set[str] = set()
        for v, vtype in p.params:
            if v in seen_vars:
                issues.append(_issue("DuplicateVariable", ploc, "variable '{}'".format(v)))
            seen_vars.add(v)
            if vtype not in declared:
                issues.append(
                    _issue("UndeclaredType", ploc, "type '{}' is not declared".format(vtype))
                )

    pred_map = d.predicate_map()
    seen_actions: set[str] = set()
    for a in d.actions:
        aloc = "action " + a.name
        if a.name in seen_actions:
            issues.append(_issue("DuplicateAction", loc, "action '{}'".format(a.name)))
        seen_actions.add(a.name)

        bound: set[str] = set()
        for v, vtype in a.params:
            if v in bound:
                issues.append(_issue("DuplicateVariable", aloc, "parameter '{}'".format(v)))
            bound.add(v)
            if vtype not in declared:
                issues.append(
                    _issue("UndeclaredType", aloc, "type '{}' is not declared".format(vtype))
                )

        constants = {c for c, _ in d.constants}

        def check_atom(atom, where: str, equality_ok: bool) -> None:
            if atom.predicate == EQUALITY_PREDICATE:
                if not equality_ok:
                    issues.append(
                        _issue("EqualityOutsidePrecondition", aloc, "in " + where)
                    )
                if len(atom.args) != 2:
                    issues.append(_issue("ArityMismatch", aloc, "'=' in " + where))
            else:
                schema = pred_map.get(atom.predicate)
                if schema is None:
                    issues.append(
                        _issue(
                            "UnknownPredicate",
                            aloc,
                            "predicate '{}' in {}".format(atom.predicate, where),
                        )
                    )
                elif len(atom.args) != schema.arity:
                    issues.append(
                        _issue(
                            "ArityMismatch",
                            aloc,
                            "'{}' expects {} args, got {} in {}".format(
                                atom.predicate, schema.arity, len(atom.args), where
                            ),
                        )
                    )
            for arg in atom.args:
                if arg.startswith("?"):
                    if arg not in bound:
                        issues.append(
                            _issue(
                                "UnboundVariable",
                                aloc,
                                "variable '{}' in {}".format(arg, where),
                            )
                        )
                elif arg not in constants:
                    issues.append(
                        _issue(
                            "UnknownConstant",
                            aloc,
                            "constant '{}' in {}".format(arg, where),
                        )
                    )

        for lit in sorted(a.precondition, key=literal_key):
            check_atom(lit.atom, "precondition", equality_ok=True)
        for atom in sorted(a.add):
            check_atom(atom, "add effect", equality_ok=False)
        for atom in sorted(a.delete):
            check_atom(atom, "delete effect", equality_ok=False)

    return issues
