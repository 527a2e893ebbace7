"""PDDL domain and problem parsing (STRIPS + typing subset)."""

from __future__ import annotations

from .ast import (
    ActionSchema,
    ArityMismatch,
    Atom,
    DomainDef,
    EQUALITY_PREDICATE,
    Literal,
    OBJECT_TYPE,
    PddlSyntaxError,
    PredicateSchema,
    ProblemDef,
    TypeName,
    UnknownPredicate,
    UnknownType,
    UnsupportedConstruct,
)
from .sexpr import read, read_plain


def _err(msg: str, node) -> PddlSyntaxError:
    return PddlSyntaxError(msg, getattr(node, "line", 0), getattr(node, "column", 0))


def _expect_list(node, what: str) -> list:
    if not isinstance(node, list):
        raise _err("expected {} (a list), found '{}'".format(what, node), node)
    return node


def _expect_symbol(node, what: str) -> str:
    if isinstance(node, list):
        raise _err("expected {} (a symbol)".format(what), node)
    return str(node)


def parse_typed_list(items) -> list[tuple[str, str]]:
    """Parse `a b - t c d` style lists into (name, type) pairs."""
    out: list[tuple[str, str]] = []
    pending: list[str] = []
    it = iter(items)
    for tok in it:
        name = _expect_symbol(tok, "a name")
        if name == "-":
            try:
                typ = _expect_symbol(next(it), "a type name")
            except StopIteration:
                raise _err("expected a type name after '-'", tok)
            out.extend((n, typ) for n in pending)
            pending = []
        else:
            pending.append(name)
    out.extend((n, OBJECT_TYPE) for n in pending)
    return out


def _parse_atom(form) -> Atom:
    lst = _expect_list(form, "an atom")
    if not lst:
        raise _err("empty atom", form)
    name = _expect_symbol(lst[0], "a predicate name")
    args = tuple(_expect_symbol(a, "a term") for a in lst[1:])
    return Atom(name, args)


def _conjuncts(form, what: str):
    """Yield the non-empty lists that nested `and`s in `form` conjoin,
    depth first and left to right.  A stack, not recursion, so any depth
    parses; "(and)" and "()" both mean the empty conjunction."""
    todo = [form]
    while todo:
        lst = _expect_list(todo.pop(), what)
        if lst and lst[0] == "and":
            todo.extend(lst[:0:-1])  # the operands, last on the bottom
        elif lst:
            yield lst


def _flatten_condition(form) -> list[tuple[Literal, list]]:
    """Flatten a goal/precondition formula into a conjunction of literals,
    each with the list of its atom."""
    out: list[tuple[Literal, list]] = []
    for lst in _conjuncts(form, "a condition"):
        head = lst[0]
        if head == "not":
            if len(lst) != 2:
                raise _err("'not' takes exactly one argument", lst)
            inner = _expect_list(lst[1], "an atom")
            if inner and inner[0] in ("and", "or", "not", "imply", "forall", "exists"):
                raise UnsupportedConstruct(str(inner[0]), "nested formula under 'not'")
            out.append((Literal(_parse_atom(inner), negated=True), inner))
        elif head in ("or", "imply", "forall", "exists", "when"):
            raise UnsupportedConstruct(str(head))
        else:
            out.append((Literal(_parse_atom(lst)), lst))
    return out


def _parse_effect(form) -> tuple[list[Atom], list[Atom]]:
    """Split an effect formula into add and delete atom lists."""
    add: list[Atom] = []
    delete: list[Atom] = []
    for lst in _conjuncts(form, "an effect"):
        head = lst[0]
        if head == "not":
            if len(lst) != 2:
                raise _err("'not' takes exactly one argument", lst)
            delete.append(_parse_atom(lst[1]))
        elif head in ("when", "forall", "increase", "decrease", "assign", "scale-up",
                      "scale-down"):
            raise UnsupportedConstruct(str(head), "in effect")
        else:
            add.append(_parse_atom(lst))
    return add, delete


def _parse_action(form: list) -> ActionSchema:
    if len(form) < 2:
        raise _err("':action' needs a name", form)
    name = _expect_symbol(form[1], "an action name")
    params: list[tuple[str, str]] = []
    precondition: list[Literal] = []
    add: list[Atom] = []
    delete: list[Atom] = []
    i = 2
    while i < len(form):
        key = _expect_symbol(form[i], "an action keyword")
        if i + 1 >= len(form):
            raise _err("'{}' needs a value".format(key), form[i])
        value = form[i + 1]
        if key == ":parameters":
            params = parse_typed_list(_expect_list(value, "a parameter list"))
            for v, _ in params:
                if not v.startswith("?"):
                    raise _err("parameter '{}' must start with '?'".format(v), value)
        elif key == ":precondition":
            precondition = [lit for lit, _ in _flatten_condition(value)]
        elif key == ":effect":
            add, delete = _parse_effect(value)
        else:
            raise UnsupportedConstruct(key, "in action '{}'".format(name))
        i += 2
    return ActionSchema.make(name, params, precondition, add, delete)


def _parse(parse, text: str, *args):
    """parse(tree, *args) on `read_plain`'s tree of `text`.  On a syntax error,
    parse `read`'s tree: it raises the same error, now with its position."""
    try:
        return parse(read_plain(text), *args)
    except PddlSyntaxError:
        return parse(read(text), *args)


def parse_domain(text: str) -> DomainDef:
    return _parse(_parse_domain, text)


def _parse_domain(form: list) -> DomainDef:
    if len(form) < 2 or form[0] != "define":
        raise _err("expected '(define (domain ...) ...)'", form)
    head = _expect_list(form[1], "'(domain NAME)'")
    if len(head) != 2 or head[0] != "domain":
        raise _err("expected '(domain NAME)'", head)
    name = _expect_symbol(head[1], "a domain name")

    requirements: set[str] = set()
    types: list[TypeName] = []
    constants: list[tuple[str, str]] = []
    predicates: list[PredicateSchema] = []
    actions: list[ActionSchema] = []

    for section in form[2:]:
        lst = _expect_list(section, "a domain section")
        if not lst:
            raise _err("empty domain section", section)
        key = _expect_symbol(lst[0], "a section keyword")
        if key == ":requirements":
            requirements.update(_expect_symbol(r, "a requirement") for r in lst[1:])
        elif key == ":types":
            for tname, parent in parse_typed_list(lst[1:]):
                types.append(TypeName(tname, parent))
        elif key == ":constants":
            constants.extend(parse_typed_list(lst[1:]))
        elif key == ":predicates":
            for p in lst[1:]:
                plist = _expect_list(p, "a predicate declaration")
                if not plist:
                    raise _err("empty predicate declaration", p)
                pname = _expect_symbol(plist[0], "a predicate name")
                predicates.append(
                    PredicateSchema(pname, tuple(parse_typed_list(plist[1:])))
                )
        elif key == ":action":
            actions.append(_parse_action(lst))
        elif key in (":functions", ":durative-action", ":derived", ":axiom"):
            raise UnsupportedConstruct(key)
        else:
            raise _err("unknown domain section '{}'".format(key), lst[0])

    if not requirements:
        requirements.add(":strips")
    return DomainDef(
        name,
        frozenset(requirements),
        tuple(types),
        tuple(constants),
        tuple(predicates),
        tuple(actions),
    )


def _check_ground_atom(atom: Atom, node: list, predicates: dict[str, PredicateSchema],
                       where: str) -> None:
    """Check an init or goal atom; `node` is its list, for the position."""
    if not atom.is_ground():
        raise _err("atom {} in {} is not ground".format(atom, where), node)
    if atom.predicate == EQUALITY_PREDICATE:
        if len(atom.args) != 2:
            raise ArityMismatch("'=' takes 2 arguments, got {}".format(len(atom.args)))
        return
    schema = predicates.get(atom.predicate)
    if schema is None:
        raise UnknownPredicate(
            "unknown predicate '{}' in {}".format(atom.predicate, where)
        )
    if len(atom.args) != schema.arity:
        raise ArityMismatch(
            "predicate '{}' expects {} arguments, got {} in {}".format(
                atom.predicate, schema.arity, len(atom.args), where
            )
        )


def parse_problem(text: str, domain: DomainDef) -> ProblemDef:
    return _parse(_parse_problem, text, domain)


def _parse_problem(form: list, domain: DomainDef) -> ProblemDef:
    if len(form) < 2 or form[0] != "define":
        raise _err("expected '(define (problem ...) ...)'", form)
    head = _expect_list(form[1], "'(problem NAME)'")
    if len(head) != 2 or head[0] != "problem":
        raise _err("expected '(problem NAME)'", head)
    name = _expect_symbol(head[1], "a problem name")

    domain_name = ""
    objects: list[tuple[str, str]] = []
    init: list[Atom] = []
    goal: list[Literal] = []
    predicates = domain.predicate_map()

    for section in form[2:]:
        lst = _expect_list(section, "a problem section")
        if not lst:
            raise _err("empty problem section", section)
        key = _expect_symbol(lst[0], "a section keyword")
        if key == ":domain":
            if len(lst) != 2:
                raise _err("':domain' takes one name", lst)
            domain_name = _expect_symbol(lst[1], "a domain name")
        elif key == ":objects":
            objects.extend(parse_typed_list(lst[1:]))
        elif key == ":init":
            for a in lst[1:]:
                atom = _parse_atom(a)
                _check_ground_atom(atom, a, predicates, "init")
                init.append(atom)
        elif key == ":goal":
            if len(lst) != 2:
                raise _err("':goal' takes one formula", lst)
            conjuncts = _flatten_condition(lst[1])
            for lit, node in conjuncts:
                _check_ground_atom(lit.atom, node, predicates, "goal")
            goal = [lit for lit, _ in conjuncts]
        elif key in (":metric", ":constraints"):
            raise UnsupportedConstruct(key)
        else:
            raise _err("unknown problem section '{}'".format(key), lst[0])

    declared = domain.declared_types()
    for oname, otype in objects:
        if otype not in declared:
            raise UnknownType(
                "object '{}' has undeclared type '{}'".format(oname, otype)
            )
    return ProblemDef(
        name, domain_name, tuple(objects), frozenset(init), frozenset(goal)
    )
