"""In-memory triple store with a conjunctive basic-graph-pattern engine."""

from __future__ import annotations

from dataclasses import dataclass, field
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
        """All triples matching the given constants (None = wildcard)."""
        buckets = []
        if s is not None:
            buckets.append(self._by_s.get(s, set()))
        if p is not None:
            buckets.append(self._by_p.get(p, set()))
        if o is not None:
            buckets.append(self._by_o.get(o, set()))
        if not buckets:
            return set(self._triples)
        result = min(buckets, key=len)
        for b in buckets:
            if b is not result:
                result = result & b
        return set(result)

    def subjects_of_type(self, rdf_type: Iri, type_pred: Iri) -> list[Iri]:
        found = {t.subject for t in self.match(p=type_pred, o=rdf_type)}
        return sorted(found, key=term_key)

    def objects(self, s: Iri, p: Iri) -> list[Node]:
        return sorted((t.object for t in self.match(s=s, p=p)), key=term_key)

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
        reported variables; `distinct` deduplicates the projected rows.
        """
        if not patterns:
            raise ValueError("query needs at least one pattern")
        solutions: list[dict[str, Node]] = [{}]
        for pattern in patterns:
            if len(pattern) != 3:
                raise ValueError("pattern must be a (s, p, o) triple")
            new: list[dict[str, Node]] = []
            for binding in solutions:
                s, p, o = (self._resolve(t, binding) for t in pattern)
                matched = self.match(
                    s if isinstance(s, Iri) else None,
                    p if isinstance(p, Iri) else None,
                    o if not isinstance(o, Variable) else None,
                )
                for triple in matched:
                    extended = self._extend(binding, pattern, triple)
                    if extended is not None:
                        new.append(extended)
            solutions = new
            if not solutions:
                break
        if select is not None:
            solutions = [
                {v: b[v] for v in select if v in b} for b in solutions
            ]
        if distinct:
            unique = {}
            for b in solutions:
                key = tuple(sorted((k, term_key(v)) for k, v in b.items()))
                unique.setdefault(key, b)
            solutions = list(unique.values())
        solutions.sort(
            key=lambda b: tuple(sorted((k, term_key(v)) for k, v in b.items()))
        )
        return solutions

    def count(self, patterns: list[Pattern], var: Optional[str] = None,
              distinct: bool = True) -> int:
        """COUNT aggregation over a BGP, optionally of one variable."""
        rows = self.query(
            patterns, select=[var] if var else None, distinct=distinct and var is not None
        )
        return len(rows)

    @staticmethod
    def _resolve(term: Term, binding: dict[str, Node]) -> Term:
        if isinstance(term, Variable):
            return binding.get(term.name, term)
        return term

    @staticmethod
    def _extend(
        binding: dict[str, Node], pattern: Pattern, triple: Triple
    ) -> Optional[dict[str, Node]]:
        out = dict(binding)
        for term, value in zip(pattern, (triple.subject, triple.predicate, triple.object)):
            if isinstance(term, Variable):
                bound = out.get(term.name)
                if bound is None:
                    out[term.name] = value
                elif bound != value:
                    return None
            elif term != value:
                return None
        return out
