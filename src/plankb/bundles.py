"""Access to the bundled example domains, problems, plan corpus, and IPC
results table."""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .pddl.ast import DomainDef, ProblemDef
from .pddl.parser import parse_domain, parse_problem

_PREFIX = {"blocksworld": "bw", "gripper": "gr", "driverlog": "dl"}


def data_dir() -> Path:
    return Path(str(resources.files("plankb").joinpath("data")))


def load_domain(name: str) -> DomainDef:
    path = data_dir() / "domains" / (name + ".pddl")
    return parse_domain(path.read_text())


def problem_paths(domain_name: str) -> list[Path]:
    prefix = _PREFIX[domain_name]
    return sorted((data_dir() / "problems").glob(prefix + "-*.pddl"))


def load_problems(domain_name: str) -> list[ProblemDef]:
    domain = load_domain(domain_name)
    return [parse_problem(p.read_text(), domain) for p in problem_paths(domain_name)]


def plan_paths(domain_name: str) -> list[Path]:
    """Bundled plan files, named `<problem>.<planner>.plan`."""
    return sorted((data_dir() / "plans" / domain_name).glob("*.plan"))
