"""Reference semantics that only the tests use: a checked transition,
state-space enumeration, goal checks, the plan text writer, grounding by
substitution into plain records, a triple-by-triple Turtle writer, a
Turtle reader that builds its triples from the tokenizer's tokens,
planner selection with one query per candidate and plan steps read with one
five-pattern query.  They share no code with
`plankb.semantics` beyond `applicable`, so the grounder and the search are
checked against an independent construction.  The Turtle writer shares only
the term formatting of `plankb.kg.turtle`, so it checks the exporter's
order, not its escaping; the Turtle reader shares its tokenizer and
unescaping, so it checks the grammar and the graph of `import_turtle`."""

import itertools
import math
from typing import NamedTuple

from plankb.kg.schema import RDF_NS, SCHEMA, XSD_STRING
from plankb.kg.store import Graph, Iri, Node, TypedLiteral, Variable, term_key
from plankb.kg.turtle import PREFIXES, TurtleSyntaxError, _format_term, _tokenize, _unescape
from plankb.mapper import MappingError
from plankb.select import InvalidRecord, NoCandidates, NoDataForDomain, SelectionOutcome
from plankb.semantics import applicable

ATOM_SETS = ("pre_pos", "pre_neg", "add", "delete")
DOMAIN_NAMES = ("blocksworld", "gripper", "driverlog")


class Instance(NamedTuple):
    """A ground action built eagerly, every value it is read for stored as a
    field: what `plankb.semantics.GroundAction` computes from its template
    and objects."""

    schema: str
    binding: tuple
    objects: tuple
    pre_pos: frozenset
    pre_neg: frozenset
    add: frozenset
    delete: frozenset

    @property
    def name(self):
        return "({})".format(" ".join((self.schema,) + self.objects))


def snapshot(a):
    """The Instance of any ground action, each of its values read once."""
    return Instance(*[getattr(a, field) for field in Instance._fields])


class NotApplicable(Exception):
    def __init__(self, action, literal):
        super().__init__("{} is not applicable: {} fails".format(action.name, literal))
        self.action = action
        self.literal = literal


def apply_action(s, a):
    """The state after action a in state s; raises NotApplicable, naming the
    first failing precondition, when a does not apply in s."""
    for atom in a.pre_pos:
        if atom not in s:
            raise NotApplicable(a, str(atom))
    for atom in a.pre_neg:
        if atom in s:
            raise NotApplicable(a, "(not {})".format(atom))
    return (s - a.delete) | a.add


def goal_satisfied(s, p):
    """Whether state s satisfies every goal literal of problem p."""
    for lit in p.goal:
        if lit.negated == (lit.atom in s):
            return False
    return True


def reachable_states(init, actions, limit=10**6):
    """Breadth-first enumeration of all states reachable from init."""
    actions = [snapshot(a) for a in actions]
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
    literal, as an Instance.  Equality literals are resolved statically;
    returns None when one fails."""
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
    objects = tuple(binding[v] for v in schema.variables)
    return Instance(schema.name, tuple(zip(schema.variables, objects)), objects,
                    frozenset(pre_pos), frozenset(pre_neg), add, delete)


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
    """Each action of `actual` reads as the Instance at its place in
    `expected`, name included."""
    assert [snapshot(a) for a in actual] == expected
    assert [a.name for a in actual] == [b.name for b in expected]


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


def reference_import_turtle(text: str) -> Graph:
    """The graph `import_turtle` must read, built from the tokens of the
    whole text, or the TurtleSyntaxError it must raise."""
    triples: list[tuple] = []
    prefixes: dict[str, str] = {}
    rdf_type = Iri(RDF_NS + "type")
    tokens = list(_tokenize(text))
    i = 0

    def iri(kind: str, value: str, line: int, col: int) -> Iri:
        if kind == "iriref":
            full = value[1:-1]
        else:
            prefix, _, local = value.partition(":")
            if prefix not in prefixes:
                raise TurtleSyntaxError("undeclared prefix '{}'".format(prefix), line, col)
            full = prefixes[prefix] + local
        if not full:
            raise TurtleSyntaxError("empty IRI", line, col)
        return Iri(full)

    def term_at(j: int) -> tuple[Node, int]:
        kind, value, line, col = tokens[j]
        if kind == "iriref" or kind == "pname":
            return iri(kind, value, line, col), j + 1
        if kind == "kw_a":
            return rdf_type, j + 1
        if kind == "literal":
            lexical = _unescape(value[1:-1])
            if j + 1 < len(tokens) and tokens[j + 1][0] == "dcaret":
                dt_kind, dt_value, dt_line, dt_col = tokens[j + 2]
                if dt_kind != "iriref" and dt_kind != "pname":
                    raise TurtleSyntaxError("expected datatype IRI", dt_line, dt_col)
                return TypedLiteral(lexical, iri(*tokens[j + 2])), j + 3
            return TypedLiteral(lexical, XSD_STRING), j + 1
        raise TurtleSyntaxError("expected an IRI or literal", line, col)

    while tokens[i][0] != "eof":
        kind, value, line, col = tokens[i]
        if kind == "prefixdecl":
            # The declared name ends in ':' and does not touch "@prefix".
            if (tokens[i + 1][0] != "pname" or tokens[i + 2][0] != "iriref"
                    or not tokens[i + 1][1].endswith(":") or tokens[i + 1][2:] == (line, col + 7)):
                raise TurtleSyntaxError("malformed @prefix declaration", line, col)
            prefix = tokens[i + 1][1].rstrip(":")
            prefixes[prefix] = tokens[i + 2][1][1:-1]
            if tokens[i + 3][0] != "dot":
                raise TurtleSyntaxError("expected '.' after @prefix", line, col)
            i += 4
            continue
        subject, i = term_at(i)
        # `a` is rdf:type only as the verb.
        if not isinstance(subject, Iri) or kind == "kw_a":
            raise TurtleSyntaxError("subject must be an IRI", line, col)
        predicate, i = term_at(i)
        if not isinstance(predicate, Iri):
            raise TurtleSyntaxError("predicate must be an IRI", line, col)
        if tokens[i][0] == "kw_a":
            raise TurtleSyntaxError("expected an IRI or literal", *tokens[i][2:])
        obj, i = term_at(i)
        kind, _, line, col = tokens[i]
        if kind != "dot":
            raise TurtleSyntaxError("expected '.' after triple", line, col)
        i += 1
        triples.append((subject, predicate, obj))
    return Graph(triples)


def solved_percentage(g, domain, planner):
    """The recorded solved percentage of a planner on a domain, if any, read
    with one query.  Raises InvalidRecord, naming the relevance node and the
    value, on one that is not a finite number literal."""
    t = SCHEMA.prop
    rows = g.query(
        [
            (planner, t("hasRelevance"), Variable("r")),
            (Variable("r"), t("hasDomain"), domain),
            (Variable("r"), t("hasSolvedPercentage"), Variable("pct")),
        ],
        select=["pct", "r"],
    )
    if not rows:
        return None
    value = rows[0]["pct"]
    pct = None
    if isinstance(value, TypedLiteral):
        try:
            pct = float(value.lexical)
        except ValueError:
            pass
    if pct is None or not math.isfinite(pct):
        raise InvalidRecord("relevance {}: hasSolvedPercentage {} is not a number".format(
            rows[0]["r"], value))
    return pct


def reference_select(g, domain, candidates):
    """`select_ontology` with one `solved_percentage` query per candidate,
    in the order given."""
    if not candidates:
        raise NoCandidates("empty candidate list")
    scored = []
    for cand in candidates:
        pct = solved_percentage(g, domain, cand)
        if pct is not None:
            scored.append((pct, cand.value, cand))
    if not scored:
        raise NoDataForDomain("no candidate has a record for {}".format(domain.value))
    scored.sort(key=lambda x: (-x[0], x[1]))
    best_pct, _, best = scored[0]
    return SelectionOutcome(
        best, "ontology",
        "best solved percentage {:.2f}% for {}".format(best_pct, domain.value),
    )


def reference_plan_steps(g, domain):
    """`plan_step_sequences` as one query: the steps of each plan of a
    domain from the rows of a five-pattern BGP, checked row by row in the
    query's order.  An index must be a literal of ASCII digits."""
    t = SCHEMA.prop
    rows = g.query(
        [
            (domain, t("hasProblem"), Variable("p")),
            (Variable("p"), t("hasPlan"), Variable("plan")),
            (Variable("plan"), t("hasActionStep"), Variable("st")),
            (Variable("st"), t("hasStepIndex"), Variable("i")),
            (Variable("st"), t("hasActionName"), Variable("txt")),
        ],
        select=["plan", "i", "txt", "st"],
    )
    plans = {}
    for row in rows:
        index, text = row["i"], row["txt"]
        if not (isinstance(index, TypedLiteral) and index.lexical.isascii()
                and index.lexical.isdigit()):
            raise MappingError("step {}: hasStepIndex {} is not an integer".format(
                row["st"], index))
        parts = (text.lexical.strip().lstrip("(").rstrip(")").split()
                 if isinstance(text, TypedLiteral) else None)
        if not parts:
            raise MappingError("step {}: hasActionName {} names no action".format(
                row["st"], text))
        plans.setdefault(row["plan"], []).append(
            (int(index.lexical), text.lexical, (parts[0], tuple(parts[1:]))))
    return {plan: [step for _, _, step in sorted(steps)] for plan, steps in plans.items()}
