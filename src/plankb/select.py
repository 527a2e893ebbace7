"""Relevance tiers from IPC results and the two planner-selection policies."""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass
from typing import Optional

from .kg.schema import SCHEMA
from .kg.store import Graph, Iri, TypedLiteral, Variable

TIERS = ("low", "medium", "high")


class NoCandidates(Exception):
    pass


class NoDataForDomain(Exception):
    pass


class InvalidRecord(Exception):
    pass


@dataclass(frozen=True)
class PlannerRecord:
    planner: str
    domain: str
    solved: int
    total: int

    def __post_init__(self):
        if self.total <= 0 or not 0 <= self.solved <= self.total:
            raise InvalidRecord(
                "bad record for ({}, {}): solved={} total={}".format(
                    self.planner, self.domain, self.solved, self.total
                )
            )


@dataclass(frozen=True)
class Relevance:
    tier: str

    def __post_init__(self):
        if self.tier not in TIERS:
            raise ValueError("unknown tier '{}'".format(self.tier))


@dataclass(frozen=True)
class SelectionOutcome:
    chosen: Iri
    policy: str  # "ontology" or "random"
    rationale: str


def relevance(solved: int, total: int) -> Relevance:
    """Tier the solved ratio: <35% low, 35%..<70% medium, >=70% high.

    Both boundaries are inclusive on the lower side.  Comparison is by
    cross-multiplication, so exact boundary ratios never suffer float
    rounding.
    """
    if total <= 0 or not 0 <= solved <= total:
        raise InvalidRecord("solved={} total={}".format(solved, total))
    if solved * 10 >= total * 7:
        return Relevance("high")
    if solved * 20 >= total * 7:
        return Relevance("medium")
    return Relevance("low")


def solved_percentage(g: Graph, domain: Iri, planner: Iri) -> Optional[float]:
    """The recorded solved percentage of a planner on a domain, if any."""
    t = SCHEMA.prop
    rows = g.query(
        [
            (planner, t("hasRelevance"), Variable("r")),
            (Variable("r"), t("hasDomain"), domain),
            (Variable("r"), t("hasSolvedPercentage"), Variable("pct")),
        ],
        select=["pct"],
    )
    if not rows:
        return None
    value = rows[0]["pct"]
    assert isinstance(value, TypedLiteral)
    return float(value.lexical)


def select_ontology(
    g: Graph, domain: Iri, candidates: list[Iri]
) -> SelectionOutcome:
    """Pick the candidate with the best recorded solved percentage for the
    domain; ties break on lexicographic IRI, unrecorded candidates rank last."""
    if not candidates:
        raise NoCandidates("empty candidate list")
    scored: list[tuple[float, str, Iri]] = []
    for cand in candidates:
        pct = solved_percentage(g, domain, cand)
        if pct is not None:
            scored.append((pct, cand.value, cand))
    if not scored:
        raise NoDataForDomain(
            "no candidate has a record for {}".format(domain.value)
        )
    scored.sort(key=lambda x: (-x[0], x[1]))
    best_pct, _, best = scored[0]
    return SelectionOutcome(
        best, "ontology",
        "best solved percentage {:.2f}% for {}".format(best_pct, domain.value),
    )


def select_random(candidates: list[Iri], seed: int) -> SelectionOutcome:
    """Uniform choice via a Mersenne Twister seeded with `seed`."""
    if not candidates:
        raise NoCandidates("empty candidate list")
    rng = random.Random(seed)
    chosen = candidates[rng.randrange(len(candidates))]
    return SelectionOutcome(chosen, "random", "seed {}".format(seed))


# --- CSV ingestion ---------------------------------------------------------

CSV_HEADER = ["planner", "domain", "solved", "total"]


def read_ipc_csv(text: str) -> list[PlannerRecord]:
    """Parse `planner,domain,solved,total` rows into PlannerRecords."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != CSV_HEADER:
        raise InvalidRecord(
            "expected header '{}', found '{}'".format(
                ",".join(CSV_HEADER),
                ",".join(reader.fieldnames or []),
            )
        )
    rows = []
    for row in reader:
        try:
            rows.append(
                PlannerRecord(
                    row["planner"].strip(),
                    row["domain"].strip(),
                    int(row["solved"]),
                    int(row["total"]),
                )
            )
        except (TypeError, ValueError) as exc:
            raise InvalidRecord("bad CSV row {}".format(row)) from exc
    return rows
