"""In-memory triple store with a conjunctive basic-graph-pattern engine."""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple, Optional, Union

from .. import PlankbError


class VariableInData(PlankbError):
    pass


class UnwritableTerm(PlankbError):
    """A term that `kg.turtle` cannot write."""


class _Iri(NamedTuple):
    value: str


class Iri(_Iri):
    # A subclass, as typing.NamedTuple does not allow __new__ in its body.
    # The mappers build one per term, so __new__ calls tuple.__new__
    # itself, not the NamedTuple's own __new__, a Python function.
    __slots__ = ()

    def __new__(cls, value: str):
        if not value:
            raise ValueError("IRI must be non-empty")
        return tuple.__new__(cls, (value,))

    def __str__(self) -> str:
        return "<{}>".format(self.value)


class TypedLiteral(NamedTuple):
    lexical: str
    datatype: Iri

    def __str__(self) -> str:
        return '"{}"^^<{}>'.format(self.lexical, self.datatype.value)


class Variable(NamedTuple):
    name: str

    def __str__(self) -> str:
        return "?" + self.name


Node = Union[Iri, TypedLiteral]


def term_key(t: Node) -> tuple:
    """Stable sort key: IRIs before literals, each lexicographic."""
    if isinstance(t, Iri):
        return (0, t.value)
    return (1, t.datatype.value, t.lexical)


class _Triple(NamedTuple):
    subject: Iri
    predicate: Iri
    object: Node


class Triple(_Triple):
    __slots__ = ()

    def __new__(cls, subject: Iri, predicate: Iri, object: Node):
        if isinstance(subject, Variable) or isinstance(predicate, Variable) \
                or isinstance(object, Variable):
            raise VariableInData("stored triples must not contain variables")
        return tuple.__new__(cls, (subject, predicate, object))


# The types of the terms a graph stores.
_TERMS = frozenset({Iri, TypedLiteral})


# One character of an IRI between '<' and '>': what Turtle's IRIREF allows
# there (no control character or space), less any other white space.  The
# graph and the Turtle reader and tokenizer all test IRIs with it, so every
# IRI the graph holds or the reader takes, the writer can write.
_IRI_CHAR = r'[^\x00-\x20<>"{}|^`\\\s]'
_IRIREF_BODY = re.compile(_IRI_CHAR + "+")


def _writable(term: Node, datatypes: set) -> bool:
    """Whether `kg.turtle` can write a term of one of the `_TERMS` types.
    A datatype found writable joins `datatypes` and is not checked again."""
    if type(term) is Iri:
        value = term.value
        return type(value) is str and _IRIREF_BODY.fullmatch(value) is not None
    dt = term.datatype
    if type(term.lexical) is not str or type(dt) is not Iri:
        return False
    if dt not in datatypes and _writable(dt, datatypes):
        datatypes.add(dt)
    return dt in datatypes


def _refusal(t) -> Exception:
    """What `Graph.update` raises for an item that is not (IRI, IRI, term)."""
    if isinstance(t, tuple) and any(isinstance(x, Variable) for x in t):
        return VariableInData("stored triples must not contain variables")
    return TypeError("expected an IRI, an IRI and an IRI or literal, got {!r}".format(t))


Pattern = tuple  # (s, p, o): each a Node, or a Variable anywhere
Key = tuple  # (subject id, predicate id, object id)

# The id of a term the graph lacks: no index has a bucket for it.
_ABSENT = -1


class Graph:
    """Set of triples with subject and object indexes, stored
    dictionary-encoded.

    Each distinct term gets an int id the first time a triple holding it is
    stored, and keeps that id for the life of the graph: `_terms[id]` is the
    term and `_ids[term]` its id.  The triple set holds `(s, p, o)` id
    tuples and answers membership; the index buckets, keyed by subject or
    object id, are lists of the same tuples in the order they were stored,
    each without duplicates, as the set admits a tuple once.  Storing,
    matching and joining hash and compare ints, and terms and `Triple`s are
    built only when they leave the graph.  `kg.turtle` reads and writes the
    encoding directly, and `update` stores only triples it can write.

    There is no predicate index: every lookup the package makes fixes a
    subject or an object, and a list per term costs far less than a set.

    Mutations keep the set and both indexes consistent; reads may be shared
    across threads, writes need external single-writer discipline.
    """

    def __init__(self, triples: Iterable[tuple] = ()):
        self._terms: list[Node] = []
        self._ids: dict[Node, int] = {}
        self._triples: set[Key] = set()
        self._by_s: dict[int, list[Key]] = {}
        self._by_o: dict[int, list[Key]] = {}
        self._add_keys(self._encode(triples))

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, t) -> bool:
        """Whether `t` is a stored triple: a `Triple` or another 3-tuple of terms."""
        if not (isinstance(t, tuple) and len(t) == 3
                and all(type(x) in _TERMS for x in t)):
            return False
        ids = self._ids
        try:
            return (ids.get(t[0]), ids.get(t[1]), ids.get(t[2])) in self._triples
        except TypeError:  # a term holding an unhashable value
            return False

    def triples(self) -> frozenset[Triple]:
        return frozenset(self._decode(self._triples))

    def update(self, triples: Iterable[tuple]) -> "Graph":
        self._add_keys(self._encode(triples))
        return self

    # --- the encoding ------------------------------------------------------

    def _intern(self, term: Node) -> int:
        """The id of a term, given it now if it has none."""
        terms = self._terms
        i = self._ids.setdefault(term, len(terms))
        if i == len(terms):
            terms.append(term)
        return i

    def _encode(self, triples: Iterable[tuple]):
        """The id tuples of `(s, p, o)` tuples of terms, interning each new
        term.  An item raises before any of its terms is interned:
        VariableInData if it holds a `Variable`, TypeError if it is not an
        IRI, an IRI and a hashable term, UnwritableTerm if `kg.turtle` cannot
        write a new term of it.  `_add_keys` stores each id tuple as it is
        made, so on an error those before it are stored and every interned
        term is in a stored triple, as if each triple were added alone."""
        ids, terms = self._ids, self._terms
        datatypes: set[Iri] = set()
        for t in triples:
            try:
                s, p, o = t
            except (TypeError, ValueError):
                s = p = o = None
            # A type test, not a lookup, as Iri("x") == Variable("x").
            if not (type(s) is Iri and type(p) is Iri and type(o) in _TERMS):
                raise _refusal(t)
            si, pi, oi = ids.get(s), ids.get(p), ids.get(o)
            if (si is None and not _writable(s, datatypes)
                    or pi is None and not _writable(p, datatypes)
                    or oi is None and not _writable(o, datatypes)):
                raise UnwritableTerm("cannot write a term of {!r} in Turtle".format(t))
            if si is None:
                si = ids[s] = len(terms)
                terms.append(s)
            if pi is None:  # p may equal s, interned just above
                pi = ids.setdefault(p, len(terms))
                if pi == len(terms):
                    terms.append(p)
            if oi is None:
                oi = ids.setdefault(o, len(terms))
                if oi == len(terms):
                    terms.append(o)
            yield si, pi, oi

    def _add_keys(self, keys: Iterable[Key]) -> None:
        """Store id tuples whose ids are already interned."""
        triples, by_s, by_o = self._triples, self._by_s, self._by_o
        for key in keys:
            if key in triples:
                continue
            triples.add(key)
            s, _, o = key
            bucket = by_s.get(s)
            if bucket is None:
                by_s[s] = [key]
            else:
                bucket.append(key)
            bucket = by_o.get(o)
            if bucket is None:
                by_o[o] = [key]
            else:
                bucket.append(key)

    def _decode(self, keys: Iterable[Key]):
        terms = self._terms
        return (Triple(terms[s], terms[p], terms[o]) for s, p, o in keys)

    # --- lookups -----------------------------------------------------------

    def _lookup(self, s=None, p=None, o=None):
        """The id tuples matching the given terms (None = wildcard), as
        `_find` gives them."""
        ids = self._ids
        return self._find(None if s is None else ids.get(s, _ABSENT),
                          None if p is None else ids.get(p, _ABSENT),
                          None if o is None else ids.get(o, _ABSENT))

    def _find(self, s, p, o):
        """The id tuples matching the given ids (None = wildcard); `_ABSENT`
        matches nothing.  The result is read-only and valid until the next
        write.

        A constant subject or object gives its index bucket, the smaller one
        if both are constant, filtered by the other constants; all three
        constant is one membership test.  Only a pattern with neither a
        subject nor an object scans the triple set.
        """
        if s is None:
            if o is None:
                if p is None:
                    return self._triples
                return [k for k in self._triples if k[1] == p]
            found = self._by_o.get(o, ())
            return found if p is None else [k for k in found if k[1] == p]
        if o is None:
            found = self._by_s.get(s, ())
            return found if p is None else [k for k in found if k[1] == p]
        if p is not None:
            return [(s, p, o)] if (s, p, o) in self._triples else []
        by_s, by_o = self._by_s.get(s, ()), self._by_o.get(o, ())
        if len(by_s) <= len(by_o):
            return [k for k in by_s if k[2] == o]
        return [k for k in by_o if k[0] == s]

    def subjects_of_type(self, rdf_type: Iri, type_pred: Iri) -> list[Iri]:
        terms = self._terms
        found = {k[0] for k in self._lookup(None, type_pred, rdf_type)}
        return sorted((terms[i] for i in found), key=term_key)

    def objects(self, s: Iri, p: Iri) -> list[Node]:
        terms = self._terms
        return sorted((terms[k[2]] for k in self._lookup(s, p, None)), key=term_key)

    # --- BGP query -------------------------------------------------------

    def query(
        self,
        patterns: list[Pattern],
        select: Optional[list[str]] = None,
        distinct: bool = False,
    ) -> list[dict[str, Node]]:
        """Evaluate a conjunction of triple patterns.

        Returns one binding map per solution, in deterministic order
        (lexicographic over the selected bindings).  `select` restricts the
        reported variables (default: all, in order of first appearance);
        `distinct` deduplicates the projected rows.

        The patterns are joined in a greedy selectivity order (Stocker et
        al., WWW 2008), not as written: first a pattern whose variables are
        all bound (at most one match per row), then one that shares a bound
        variable, then any other; within a rank, the smaller index bucket of
        a constant subject or object (the whole graph if neither is
        constant), then the written order.  The join runs on ids: each
        constant is mapped to its id once (one the graph lacks gives no
        rows).  A pattern that each row fixes completely is one membership
        test per row; one with no bound variable is looked up once; any
        other is looked up per row with the row's values.  The
        solutions of a BGP do not depend on the join order, and the final
        sort fixes the row order, so the result is that of a nested loop in
        the written order.  Only the result rows are decoded.
        """
        if not patterns:
            raise ValueError("query needs at least one pattern")
        ids = self._ids
        names: dict[str, None] = {}  # the variables, in order of first appearance
        encoded = []
        for pattern in patterns:
            if len(pattern) != 3:
                raise ValueError("pattern must be a (s, p, o) triple")
            encoded.append(tuple([t if isinstance(t, Variable) else ids.get(t, _ABSENT)
                                  for t in pattern]))
            names.update((t.name, None) for t in pattern if isinstance(t, Variable))
        solutions = self._join(encoded)
        variables = list(names if select is None
                         else [v for v in dict.fromkeys(select) if v in names])
        terms = self._terms
        if len(variables) == 1:
            # One column: its terms sort alone, with no ranks or row keys.
            name = variables[0]
            column = [b[name] for b in solutions]
            values = [terms[i] for i in (dict.fromkeys(column) if distinct else column)]
            if len(values) > 1:
                values.sort(key=term_key)
            return [{name: v} for v in values]
        rows = [tuple([b[v] for v in variables]) for b in solutions]
        if distinct:
            rows = list(dict.fromkeys(rows))
        # Every row binds every variable, so rows compare by their values in
        # variable-name order; `term_key` is one total order over all terms,
        # so comparing ranks of ids is comparing terms.
        if len(rows) > 1:
            used = sorted({i for row in rows for i in row}, key=lambda i: term_key(terms[i]))
            rank = {i: r for r, i in enumerate(used)}
            columns = sorted(range(len(variables)), key=variables.__getitem__)
            rows.sort(key=lambda row: [rank[row[j]] for j in columns])
        return [dict(zip(variables, [terms[i] for i in row])) for row in rows]

    def _join(self, patterns: list[tuple]) -> list[dict[str, int]]:
        """The solutions of patterns whose constants are ids, as maps from
        names to ids."""
        triples = self._triples
        solutions: list[dict[str, int]] = [{}]
        bound: set[str] = set()
        for pattern in patterns if len(patterns) == 1 else self._join_order(patterns):
            lookups = []  # (position, name) of variables bound by earlier patterns
            fresh: dict[str, int] = {}  # name -> position of variables bound here
            repeats = []  # (position, first position) of a repeat within the pattern
            for i, t in enumerate(pattern):
                if isinstance(t, Variable):
                    if t.name in bound:
                        lookups.append((i, t.name))
                    elif t.name in fresh:
                        repeats.append((i, fresh[t.name]))
                    else:
                        fresh[t.name] = i
            bound.update(fresh)
            key = [None if isinstance(t, Variable) else t for t in pattern]
            found = None if lookups else self._find(*key)
            new: list[dict[str, int]] = []
            for binding in solutions:
                for i, name in lookups:
                    key[i] = binding[name]
                if not fresh:
                    # Every position is fixed: at most one match.
                    if tuple(key) in triples:
                        new.append(binding)
                    continue
                if lookups:
                    found = self._find(*key)
                for triple in found:
                    if repeats and any(triple[i] != triple[j] for i, j in repeats):
                        continue
                    extended = binding.copy()
                    for name, i in fresh.items():
                        extended[name] = triple[i]
                    new.append(extended)
            solutions = new
            if not solutions:
                break
        return solutions

    def _join_order(self, patterns: list[tuple]) -> list[tuple]:
        """The greedy join order described in `query`, of encoded patterns."""
        pending = []
        for pattern in patterns:
            s, _, o = pattern
            size = len(self._triples)
            if not isinstance(s, Variable):
                size = len(self._by_s.get(s, ()))
            if not isinstance(o, Variable):
                size = min(size, len(self._by_o.get(o, ())))
            names = {t.name for t in pattern if isinstance(t, Variable)}
            pending.append((size, names, pattern))
        order = []
        bound: set[str] = set()
        while pending:
            # The first of equal keys wins, so ties keep the written order.
            best = best_key = None
            for entry in pending:
                size, names = entry[0], entry[1]
                rank = 0 if names <= bound else 2 if names.isdisjoint(bound) else 1
                if best is None or (rank, size) < best_key:
                    best, best_key = entry, (rank, size)
            pending.remove(best)
            bound |= best[1]
            order.append(best[2])
        return order
