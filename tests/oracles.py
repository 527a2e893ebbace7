"""Reference semantics that only the tests use: state-space enumeration, goal
checks, the plan text writer, grounding by substitution and a triple-by-triple
Turtle writer.  They share no code with `plankb.semantics` beyond `applicable`
and `apply_action`, so the grounder and the search are checked against an
independent construction.  The Turtle writer shares only the term formatting
of `plankb.kg.turtle`, so it checks the exporter's order, not its escaping."""

import itertools

from plankb.kg.store import term_key
from plankb.kg.turtle import PREFIXES, _format_term
from plankb.semantics import GroundAction, applicable, apply_action

ATOM_SETS = ("pre_pos", "pre_neg", "add", "delete")


def goal_satisfied(s, p):
    """Whether state s satisfies every goal literal of problem p."""
    for lit in p.goal:
        if lit.negated == (lit.atom in s):
            return False
    return True


def reachable_states(init, actions, limit=10**6):
    """Breadth-first enumeration of all states reachable from init."""
    actions = list(actions)
    seen = {init}
    frontier = [init]
    while frontier:
        nxt = []
        for s in frontier:
            for a in actions:
                if applicable(s, a):
                    t = apply_action(s, a)
                    if t not in seen:
                        if len(seen) >= limit:
                            raise RuntimeError("reachable state limit exceeded")
                        seen.add(t)
                        nxt.append(t)
        frontier = nxt
    return seen


def format_plan(plan):
    """The IPC solution text of a plan: one "(name obj...)" step per line."""
    return "".join(step.name + "\n" for step in plan.steps)


def instantiate(schema, binding):
    """Ground one schema by substituting a complete binding into every
    literal, built eagerly from the seven fields.  Equality literals are
    resolved statically; returns None when one fails."""
    pre_pos, pre_neg = set(), set()
    for lit in schema.precondition:
        atom = lit.atom.substitute(binding)
        if atom.predicate == "=":
            if (atom.args[0] == atom.args[1]) == lit.negated:
                return None
            continue
        (pre_neg if lit.negated else pre_pos).add(atom)
    add = frozenset(a.substitute(binding) for a in schema.add)
    delete = frozenset(a.substitute(binding) for a in schema.delete) - add
    return GroundAction(
        schema.name,
        tuple((v, binding[v]) for v in schema.variables),
        frozenset(pre_pos),
        frozenset(pre_neg),
        add,
        delete,
    )


def reference_ground(d, p):
    """Instantiate every type-consistent binding, schema by schema, in
    lexicographic binding order."""
    pool = list(d.constants) + list(p.objects)
    actions = []
    for schema in d.actions:
        candidates = [
            sorted(o for o, otype in pool if d.is_subtype(otype, ptype))
            for _, ptype in schema.params
        ]
        for combo in itertools.product(*candidates):
            ga = instantiate(schema, dict(zip(schema.variables, combo)))
            if ga is not None:
                actions.append(ga)
    return actions


def assert_same_grounding(actual, expected):
    assert actual == expected
    # The sets are built in the same insertion order, so they iterate alike
    # (validate_plan reports the first failing precondition in that order).
    for a, b in zip(actual, expected):
        for field in ATOM_SETS:
            assert list(getattr(a, field)) == list(getattr(b, field))


def triple_key(t):
    """The sort key of a triple: the `term_key`s of its three terms."""
    return (term_key(t.subject), term_key(t.predicate), term_key(t.object))


def reference_export(g):
    """The Turtle text `export_turtle` must write: the prefix lines, a blank
    line, then the graph's triples sorted by `triple_key`, each term
    formatted where it occurs."""
    lines = ["@prefix {}: <{}> .".format(p, ns) for p, ns in sorted(PREFIXES.items())]
    lines.append("")
    for t in sorted(g.triples(), key=triple_key):
        lines.append("{} {} {} .".format(
            _format_term(t.subject), _format_term(t.predicate), _format_term(t.object)))
    return "\n".join(lines) + "\n"
