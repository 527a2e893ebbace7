"""In-memory triple store with a conjunctive basic-graph-pattern engine."""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Union

from .. import PlankbError


class VariableInData(PlankbError):
    pass


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


Pattern = tuple  # (s, p, o): each a Node, or a Variable anywhere
Key = tuple  # (subject id, predicate id, object id)

_EMPTY: frozenset = frozenset()
# The id of a term the graph lacks: no index has a bucket for it.
_ABSENT = -1


class Graph:
    """Set of triples with subject/predicate/object indexes, stored
    dictionary-encoded.

    Each distinct term gets an int id the first time a triple holding it is
    stored, and keeps that id for the life of the graph: `_terms[id]` is the
    term and `_ids[term]` its id.  The triple set holds `(s, p, o)` id
    tuples, and so do the index buckets, which are keyed by id; storing,
    matching and joining hash and compare ints, and terms and `Triple`s are
    built only when they leave the graph.  `kg.turtle` reads and writes the
    encoding directly.

    Mutations keep all three indexes consistent; reads may be shared across
    threads, writes need external single-writer discipline.
    """

    def __init__(self, triples: Iterable[Triple] = ()):
        self._terms: list[Node] = []
        self._ids: dict[Node, int] = {}
        self._triples: set[Key] = set()
        self._by_s: dict[int, set[Key]] = {}
        self._by_p: dict[int, set[Key]] = {}
        self._by_o: dict[int, set[Key]] = {}
        self._add_all(triples)

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, t: Triple) -> bool:
        if not isinstance(t, Triple):
            return False
        ids = self._ids
        return (ids.get(t.subject), ids.get(t.predicate), ids.get(t.object)) in self._triples

    def triples(self) -> frozenset[Triple]:
        return frozenset(self._decode(self._triples))

    def update(self, triples: Iterable[Triple]) -> "Graph":
        self._add_all(triples)
        return self

    # --- the encoding ------------------------------------------------------

    def _intern(self, term: Node) -> int:
        """The id of a term, given it now if it has none."""
        terms = self._terms
        i = self._ids.setdefault(term, len(terms))
        if i == len(terms):
            terms.append(term)
        return i

    def _add_all(self, triples: Iterable[Triple]) -> None:
        """Encode and store triples.  The ids are collected first and stored
        in one pass; on an error, those collected so far are stored, so every
        interned term is in a stored triple, as if each were added alone."""
        ids, terms = self._ids, self._terms
        keys = []
        try:
            for t in triples:
                if not isinstance(t, Triple):
                    raise TypeError("expected a Triple")
                s, p, o = t
                si = ids.setdefault(s, len(terms))
                if si == len(terms):
                    terms.append(s)
                pi = ids.setdefault(p, len(terms))
                if pi == len(terms):
                    terms.append(p)
                oi = ids.setdefault(o, len(terms))
                if oi == len(terms):
                    terms.append(o)
                keys.append((si, pi, oi))
        finally:
            self._add_keys(keys)

    def _add_keys(self, keys: Iterable[Key]) -> None:
        """Store id tuples whose ids are already interned."""
        triples, by_s, by_p, by_o = self._triples, self._by_s, self._by_p, self._by_o
        for key in keys:
            if key in triples:
                continue
            triples.add(key)
            s, p, o = key
            bucket = by_s.get(s)
            if bucket is None:
                by_s[s] = {key}
            else:
                bucket.add(key)
            bucket = by_p.get(p)
            if bucket is None:
                by_p[p] = {key}
            else:
                bucket.add(key)
            bucket = by_o.get(o)
            if bucket is None:
                by_o[o] = {key}
            else:
                bucket.add(key)

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
        """The id tuples matching the given ids (None = wildcard), or None
        when all three are wildcards, as no constant narrows the candidates;
        `_ABSENT` matches nothing.

        One constant gives its index bucket itself, so the result is
        read-only and valid until the next write.  Two or three constants
        intersect their buckets, which walks the smaller set in C.
        """
        found = None
        if s is not None:
            found = self._by_s.get(s)
            if found is None:
                return _EMPTY
        if p is not None:
            bucket = self._by_p.get(p)
            if bucket is None:
                return _EMPTY
            found = bucket if found is None else found & bucket
        if o is not None:
            bucket = self._by_o.get(o)
            if bucket is None:
                return _EMPTY
            found = bucket if found is None else found & bucket
        return found

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
        variable, then any other; within a rank, the smallest index bucket
        over the pattern's constants, then the written order.  The join runs
        on ids: each constant is mapped to its id once (one the graph lacks
        gives no rows), each pattern's constants are looked up once, and each
        row intersects that with the index buckets of its bound values.  The
        solutions of a BGP do not depend on the join order, and the final
        sort fixes the row order, so the result is that of a nested loop in
        the written order.  Only the result rows are decoded.
        """
        if not patterns:
            raise ValueError("query needs at least one pattern")
        for pattern in patterns:
            if len(pattern) != 3:
                raise ValueError("pattern must be a (s, p, o) triple")
        variables = list(dict.fromkeys(
            t.name for pattern in patterns for t in pattern if isinstance(t, Variable)
        ))
        ids = self._ids
        solutions = self._join([
            tuple([t if isinstance(t, Variable) else ids.get(t, _ABSENT) for t in pattern])
            for pattern in patterns
        ])
        if select is not None:
            variables = [v for v in dict.fromkeys(select) if v in variables]
        rows = [tuple([b[v] for v in variables]) for b in solutions]
        if distinct:
            rows = list(dict.fromkeys(rows))
        # Every row binds every variable, so rows compare by their values in
        # variable-name order; `term_key` is one total order over all terms,
        # so comparing ranks of ids is comparing terms.
        terms = self._terms
        used = sorted({i for row in rows for i in row}, key=lambda i: term_key(terms[i]))
        rank = {i: r for r, i in enumerate(used)}
        columns = sorted(range(len(variables)), key=variables.__getitem__)
        rows.sort(key=lambda row: [rank[row[j]] for j in columns])
        return [dict(zip(variables, [terms[i] for i in row])) for row in rows]

    def _join(self, patterns: list[tuple]) -> list[dict[str, int]]:
        """The solutions of patterns whose constants are ids, as maps from
        names to ids."""
        indexes = (self._by_s, self._by_p, self._by_o)
        solutions: list[dict[str, int]] = [{}]
        bound: set[str] = set()
        for pattern in patterns if len(patterns) == 1 else self._join_order(patterns):
            lookups = []  # (index, name) of variables bound by earlier patterns
            fresh: dict[str, int] = {}  # name -> position of variables bound here
            repeats = []  # (position, first position) of a repeat within the pattern
            for i, t in enumerate(pattern):
                if isinstance(t, Variable):
                    if t.name in bound:
                        lookups.append((indexes[i], t.name))
                    elif t.name in fresh:
                        repeats.append((i, fresh[t.name]))
                    else:
                        fresh[t.name] = i
            bound.update(fresh)
            base = self._find(*[None if isinstance(t, Variable) else t for t in pattern])
            new: list[dict[str, int]] = []
            for binding in solutions:
                found = base
                for index, name in lookups:
                    bucket = index.get(binding[name], _EMPTY)
                    found = bucket if found is None else bucket & found
                if found is None:
                    found = self._triples
                if not fresh:
                    # Every position is fixed: at most one candidate.
                    if found:
                        new.append(binding)
                    continue
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
            s, p, o = pattern
            size = len(self._triples)
            names = set()
            if isinstance(s, Variable):
                names.add(s.name)
            else:
                size = len(self._by_s.get(s, ()))
            if isinstance(p, Variable):
                names.add(p.name)
            else:
                size = min(size, len(self._by_p.get(p, ())))
            if isinstance(o, Variable):
                names.add(o.name)
            else:
                size = min(size, len(self._by_o.get(o, ())))
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
