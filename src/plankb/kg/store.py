"""In-memory triple store with a conjunctive basic-graph-pattern engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Optional, Union


class VariableInData(Exception):
    pass


# Iri, TypedLiteral and Triple are slotted and hash once: the hash is cached
# in __post_init__ and equals the generated hash((field, ...)), so set and
# dict iteration order (and every output) is the same as without the cache.
# __reduce__ rebuilds through __init__, since a pickled hash is stale in
# another process.


@dataclass(frozen=True, slots=True)
class Iri:
    value: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.value:
            raise ValueError("IRI must be non-empty")
        object.__setattr__(self, "_hash", hash((self.value,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Iri, (self.value,)

    def __str__(self) -> str:
        return "<{}>".format(self.value)


@dataclass(frozen=True, slots=True)
class TypedLiteral:
    lexical: str
    datatype: Iri
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.lexical, self.datatype)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return TypedLiteral, (self.lexical, self.datatype)

    def __str__(self) -> str:
        return '"{}"^^<{}>'.format(self.lexical, self.datatype.value)


@dataclass(frozen=True)
class Variable:
    name: str

    def __str__(self) -> str:
        return "?" + self.name


Term = Union[Iri, TypedLiteral, Variable]
Node = Union[Iri, TypedLiteral]


def term_key(t: Node) -> tuple:
    """Stable sort key: IRIs before literals, each lexicographic."""
    if isinstance(t, Iri):
        return (0, t.value)
    return (1, t.datatype.value, t.lexical)


@dataclass(frozen=True, slots=True)
class Triple:
    subject: Iri
    predicate: Iri
    object: Node
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.subject, Variable) or isinstance(self.predicate, Variable) \
                or isinstance(self.object, Variable):
            raise VariableInData("stored triples must not contain variables")
        object.__setattr__(
            self, "_hash", hash((self.subject, self.predicate, self.object))
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Triple, (self.subject, self.predicate, self.object)

    def key(self) -> tuple:
        return (term_key(self.subject), term_key(self.predicate), term_key(self.object))


Pattern = tuple  # (Term, Term, Term) with Variables allowed anywhere

_EMPTY: frozenset = frozenset()


class Graph:
    """Set of triples with subject/predicate/object indexes.

    Mutations keep all three indexes consistent; reads may be shared across
    threads, writes need external single-writer discipline.
    """

    def __init__(self, triples: Iterable[Triple] = ()):
        self._triples: set[Triple] = set()
        self._by_s: dict[Iri, set[Triple]] = {}
        self._by_p: dict[Iri, set[Triple]] = {}
        self._by_o: dict[Node, set[Triple]] = {}
        for t in triples:
            self.add(t)

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, t: Triple) -> bool:
        return t in self._triples

    def __iter__(self):
        return iter(self._triples)

    def triples(self) -> frozenset[Triple]:
        return frozenset(self._triples)

    def add(self, t: Triple) -> "Graph":
        if not isinstance(t, Triple):
            raise TypeError("expected a Triple")
        n = len(self._triples)
        self._triples.add(t)
        if len(self._triples) != n:
            self._by_s.setdefault(t.subject, set()).add(t)
            self._by_p.setdefault(t.predicate, set()).add(t)
            self._by_o.setdefault(t.object, set()).add(t)
        return self

    def update(self, triples: Iterable[Triple]) -> "Graph":
        for t in triples:
            self.add(t)
        return self

    def discard(self, t: Triple) -> "Graph":
        if t in self._triples:
            self._triples.discard(t)
            for index, key in ((self._by_s, t.subject), (self._by_p, t.predicate),
                               (self._by_o, t.object)):
                bucket = index[key]
                bucket.discard(t)
                if not bucket:
                    del index[key]
        return self

    def match(
        self,
        s: Optional[Iri] = None,
        p: Optional[Iri] = None,
        o: Optional[Node] = None,
    ) -> set[Triple]:
        """All triples matching the given constants (None = wildcard), as a
        fresh set the caller may keep or change."""
        return set(self._lookup(s, p, o))

    def _lookup(self, s, p, o):
        """The triples matching the given constants (None = wildcard).

        One constant gives its index bucket itself and none gives the triple
        set itself, so the result is read-only and valid until the next
        write.  Two or three constants intersect their buckets, which walks
        the smaller set in C.
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
        return self._triples if found is None else found

    def subjects_of_type(self, rdf_type: Iri, type_pred: Iri) -> list[Iri]:
        found = {t.subject for t in self._lookup(None, type_pred, rdf_type)}
        return sorted(found, key=term_key)

    def objects(self, s: Iri, p: Iri) -> list[Node]:
        return sorted((t.object for t in self._lookup(s, p, None)), key=term_key)

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
        over the pattern's constants, then the written order.  Each row
        looks its candidates up in the indexes with its bound values filled
        in.  The solutions of a BGP do not depend on the join order, and the
        final sort fixes the row order, so the result is that of a nested
        loop in the written order.
        """
        if not patterns:
            raise ValueError("query needs at least one pattern")
        for pattern in patterns:
            if len(pattern) != 3:
                raise ValueError("pattern must be a (s, p, o) triple")
        variables = list(dict.fromkeys(
            t.name for pattern in patterns for t in pattern if isinstance(t, Variable)
        ))
        solutions: list[dict[str, Node]] = [{}]
        bound: set[str] = set()
        for pattern in patterns if len(patterns) == 1 else self._join_order(patterns):
            key = [None if isinstance(t, Variable) else t for t in pattern]
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
            new: list[dict[str, Node]] = []
            for binding in solutions:
                for i, name in lookups:
                    key[i] = binding[name]
                for triple in self._lookup(*key):
                    extended = self._extend(binding, triple, fresh, repeats)
                    if extended is not None:
                        new.append(extended)
            solutions = new
            if not solutions:
                break
        # Every solution binds every variable, so the rows share one key set
        # and compare by their values in variable-name order.
        if select is not None:
            variables = [v for v in dict.fromkeys(select) if v in variables]
        names = sorted(variables)
        keyed = [
            (tuple([term_key(b[v]) for v in names]), {v: b[v] for v in variables})
            for b in solutions
        ]
        if distinct:
            keyed = list(dict(keyed).items())
        keyed.sort(key=itemgetter(0))
        return [row for _, row in keyed]

    def count(self, patterns: list[Pattern], var: Optional[str] = None,
              distinct: bool = True) -> int:
        """COUNT aggregation over a BGP, optionally of one variable."""
        rows = self.query(
            patterns, select=[var] if var else None, distinct=distinct and var is not None
        )
        return len(rows)

    def _join_order(self, patterns: list[Pattern]) -> list[Pattern]:
        """The greedy join order described in `query`."""
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

    @staticmethod
    def _extend(
        binding: dict[str, Node],
        triple: Triple,
        fresh: dict[str, int],
        repeats: list[tuple[int, int]],
    ) -> Optional[dict[str, Node]]:
        """`binding` extended by a candidate triple, or None if it fails.

        The candidate came from `_lookup` with the pattern's constants and
        bound variables filled in, so only a variable repeated within the
        pattern is left to check; the binding is copied only after that
        check passes, and not at all when the pattern binds nothing new.
        """
        if not fresh:
            return binding
        values = (triple.subject, triple.predicate, triple.object)
        for i, j in repeats:
            if values[i] != values[j]:
                return None
        out = dict(binding)
        for name, i in fresh.items():
            out[name] = values[i]
        return out
