"""Command-line surface for the planning knowledge toolkit."""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

from . import PlankbError
from .bench import ALGORITHMS, HEURISTICS, SearchConfig, bench_compare, solve
from .kg.axioms import validate_axioms
from .kg.schema import RDF_TYPE, SCHEMA
from .kg.store import Graph, Iri
from .kg.turtle import export_turtle, import_turtle
from .macros import (
    MacroSchema,
    augment_domain,
    compose,
    dump_report,
    load_report,
    mine_pairs,
    report_lines,
    store_macros,
)
from .mapper import (
    COMPETENCY_QUERIES,
    FileAccessError,
    build_graph,
    domain_iri,
    load_plans,
    map_ipc_results,
    read_input,
    run_competency,
    write_output,
)
from .pddl.parser import parse_domain, parse_problem
from .pddl.printer import print_domain, print_problem
from .pddl.validate import validate_domain
from .select import read_ipc_csv, select_ontology, select_random


class UsageError(Exception):
    """Arguments that parse but do not make sense together: exit 2."""


def workspace() -> Path:
    return Path(os.environ.get("PLANKB_WORKSPACE", "."))


def _resolve(path: str) -> Path:
    p = Path(path)
    return p if p.is_absolute() else workspace() / p


def _input_dir(path: str) -> Path:
    d = _resolve(path)
    if not d.is_dir():
        raise FileAccessError("{}: no such directory".format(d))
    return d


def _load_graph(path: str) -> Graph:
    return import_turtle(read_input(_resolve(path)))


def _save_graph(g: Graph, path: str) -> None:
    write_output(_resolve(path), export_turtle(g))


def _term_str(term) -> str:
    if isinstance(term, Iri):
        return term.value
    return term.lexical


# --- subcommands -----------------------------------------------------------


def cmd_parse(args) -> int:
    domain = parse_domain(read_input(_resolve(args.domain)))
    issues = validate_domain(domain)
    for issue in issues:
        print("issue: {}".format(issue), file=sys.stderr)
    sys.stdout.write(print_domain(domain))
    if args.problem:
        problem = parse_problem(read_input(_resolve(args.problem)), domain)
        sys.stdout.write(print_problem(problem))
    return 1 if issues else 0


def cmd_build_kg(args) -> int:
    domain = parse_domain(read_input(_resolve(args.domain)))
    problems = [parse_problem(read_input(_resolve(p)), domain) for p in args.problems]
    plan_paths = sorted(_input_dir(args.plans).glob("*.plan")) if args.plans else []
    entries, skipped = load_plans(domain, problems, plan_paths)
    for message in skipped:
        print(message, file=sys.stderr)
    g = build_graph(domain, problems, entries)
    violations = validate_axioms(g, post_solve=bool(args.plans))
    for v in violations:
        print("axiom violation: {}".format(v), file=sys.stderr)
    _save_graph(g, args.output)
    print("wrote {} triples to {}".format(len(g), args.output))
    return 1 if violations else 0


def cmd_query(args) -> int:
    takes = COMPETENCY_QUERIES[args.id].parameters
    params: dict[str, str] = {}
    for key, value in args.arg:
        if key not in takes:
            raise UsageError("query {} takes no argument '{}'".format(args.id, key))
        if key in params:
            raise UsageError("query argument '{}' given twice".format(key))
        params[key] = value
    g = _load_graph(args.graph)
    result = run_competency(g, args.id, params)
    if isinstance(result, int):
        if args.format == "json":
            print(json.dumps({"count": result}))
        else:
            print(result)
        return 0
    if args.format == "json":
        rows = [{k: _term_str(v) for k, v in row.items()} for row in result]
        print(json.dumps(rows, indent=2))
    else:
        for row in result:
            print("\t".join(_term_str(v) for _, v in sorted(row.items())))
    return 0


def cmd_ingest_ipc(args) -> int:
    rows = read_ipc_csv(read_input(_resolve(args.csv)))
    out = _resolve(args.output)
    g = import_turtle(read_input(out)) if out.exists() else Graph()
    g.update(map_ipc_results(rows, planner_type=args.planner_type))
    _save_graph(g, args.output)
    print("ingested {} records; {} triples in {}".format(len(rows), len(g), args.output))
    return 0


def cmd_select_planner(args) -> int:
    g = _load_graph(args.graph)
    candidates = g.subjects_of_type(SCHEMA.cls("Planner"), RDF_TYPE)
    if args.policy == "ontology":
        outcome = select_ontology(g, domain_iri(args.domain), candidates)
    else:
        outcome = select_random(candidates, args.seed)
    print("{}\t{}\t{}".format(outcome.chosen.value, outcome.policy, outcome.rationale))
    return 0


def _load_macros(domain, path: str) -> list[MacroSchema]:
    """The chainable pairs of a mine-macros JSON report, composed."""
    pairs = load_report(read_input(_resolve(path)), path)
    macros = [compose(domain, p) for p in pairs]
    return [m for m in macros if m is not None]


def cmd_mine_macros(args) -> int:
    if args.store and not args.domain_file:
        raise UsageError("mine-macros --store needs --domain-file")
    g = _load_graph(args.graph)
    pairs = mine_pairs(g, domain_iri(args.domain))
    if args.domain_file:
        domain = parse_domain(read_input(_resolve(args.domain_file)))
        macros = [compose(domain, p) for p in pairs]
        pairs = [p for p, m in zip(pairs, macros) if m is not None]
        if args.store:
            store_macros(g, domain_iri(args.domain), [m for m in macros if m is not None])
            _save_graph(g, args.graph)
    if args.format == "json":
        print(dump_report(pairs))
    else:
        for line in report_lines(pairs):
            print(line)
    return 0


def cmd_augment(args) -> int:
    domain = parse_domain(read_input(_resolve(args.domain)))
    macros = _load_macros(domain, args.macros)
    augmented = augment_domain(domain, macros, args.k)
    write_output(_resolve(args.output), print_domain(augmented))
    print("wrote {} ({} actions)".format(args.output, len(augmented.actions)))
    return 0


def cmd_bench(args) -> int:
    domain = parse_domain(read_input(_resolve(args.domain)))
    problem_dir = _input_dir(args.problems)
    problems = []
    for path in sorted(problem_dir.glob("*.pddl")):
        text = read_input(path)
        # Problem directories may mix domains; keep only files whose
        # :domain declaration matches.
        m = re.search(r"\(\s*:domain\s+([^\s()]+)\s*\)", text, re.IGNORECASE)
        if m and m.group(1).lower() != domain.name:
            continue
        problems.append(parse_problem(text, domain))
    if not problems:
        raise FileAccessError(
            "{}: no problem of domain '{}'".format(problem_dir, domain.name)
        )
    macros = _load_macros(domain, args.macros) if args.macros else []
    report = bench_compare(domain, macros, problems, _search_config(args), k=args.k)
    if args.format == "csv":
        sys.stdout.write(report.to_csv())
    else:
        print(report.format_table())
    return 0


def cmd_solve(args) -> int:
    domain = parse_domain(read_input(_resolve(args.domain)))
    problem = parse_problem(read_input(_resolve(args.problem)), domain)
    plan, stats = solve(domain, problem, _search_config(args))
    if plan is None:
        print("no plan ({})".format(stats.status), file=sys.stderr)
        return 1
    for step in plan.steps:
        print(step.name)
    print(
        "; cost {} expanded {} evaluated {} generated {}".format(
            plan.cost, stats.expanded, stats.evaluated, stats.generated
        )
    )
    return 0


def _limit(kind):
    """An argparse type for a search limit: a `kind` number above 0.  NaN
    is not above 0, so it cannot switch the time limit off."""

    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError("must be > 0, got '{}'".format(text))
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value: ..."
    return parse


def _add_search_options(p: argparse.ArgumentParser, algo: str) -> None:
    """The search options of `solve` and `bench`; `algo` is the command's
    default algorithm, and the limits default to `SearchConfig`'s."""
    defaults = SearchConfig()
    p.add_argument("--algo", choices=ALGORITHMS, default=algo)
    p.add_argument("--heuristic", choices=HEURISTICS, default=defaults.heuristic)
    p.add_argument("--max-expansions", type=_limit(int), default=defaults.max_expansions)
    p.add_argument("--max-seconds", type=_limit(float), default=defaults.max_seconds)


def _search_config(args) -> SearchConfig:
    return SearchConfig(args.algo, args.heuristic, args.max_expansions, args.max_seconds)


def _key_value(text: str) -> tuple[str, str]:
    key, sep, value = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError("expected KEY=VALUE, got '{}'".format(text))
    return key, value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plankb",
        description="Parse PDDL, build planning knowledge graphs, select "
        "planners, mine macros, and benchmark them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate and canonically print PDDL")
    p.add_argument("domain")
    p.add_argument("problem", nargs="?")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("build-kg", help="map a PDDL bundle into a Turtle graph")
    p.add_argument("domain")
    p.add_argument("problems", nargs="*")
    p.add_argument("--plans", help="directory of <problem>.<planner>.plan files")
    p.add_argument("-o", "--output", required=True,
                   help="Turtle file to write; missing parent directories are created")
    p.set_defaults(func=cmd_build_kg)

    listing = ["competency queries (give each parameter as --arg KEY=VALUE):"]
    listing += ["  {:<4} {:<16} {}".format(q.id, " ".join(q.parameters) or "-", q.description)
                for q in COMPETENCY_QUERIES.values()]
    p = sub.add_parser("query", help="run a competency query against a graph",
                       formatter_class=argparse.RawDescriptionHelpFormatter,
                       epilog="\n".join(listing))
    p.add_argument("graph")
    p.add_argument("--id", required=True, choices=sorted(COMPETENCY_QUERIES))
    p.add_argument("--arg", action="append", default=[], metavar="KEY=VALUE",
                   type=_key_value)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("ingest-ipc", help="add IPC results to a graph")
    p.add_argument("csv")
    p.add_argument("-o", "--output", required=True,
                   help="Turtle graph to add the records to; it is created if missing, "
                   "and so are missing parent directories")
    p.add_argument("--planner-type", default="optimal")
    p.set_defaults(func=cmd_ingest_ipc)

    p = sub.add_parser("select-planner", help="pick a planner for a domain")
    p.add_argument("graph")
    p.add_argument("--domain", required=True)
    p.add_argument("--policy", choices=("ontology", "random"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_select_planner)

    p = sub.add_parser("mine-macros", help="mine action pairs from stored plans")
    p.add_argument("graph")
    p.add_argument("--domain", required=True)
    p.add_argument(
        "--domain-file",
        help="PDDL domain; when given, pairs are chain-filtered against it",
    )
    p.add_argument("--store", action="store_true",
                   help="store composed macros back into the graph")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_mine_macros)

    p = sub.add_parser("augment", help="inject top-k macros into a domain")
    p.add_argument("--domain", required=True)
    p.add_argument("--macros", required=True, help="JSON report from mine-macros")
    p.add_argument("-k", type=_limit(int), default=2)
    p.add_argument("-o", "--output", required=True,
                   help="PDDL file to write; missing parent directories are created")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("bench", help="compare original vs macro-augmented domain")
    p.add_argument("--domain", required=True)
    p.add_argument("--problems", required=True, help="directory of problem files")
    p.add_argument("--macros")
    p.add_argument("-k", type=_limit(int), default=2)
    _add_search_options(p, "greedy-best-first")
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("solve", help="solve one problem and print the plan")
    p.add_argument("domain")
    p.add_argument("problem")
    _add_search_options(p, "breadth-first")
    p.set_defaults(func=cmd_solve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))
    except PlankbError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
