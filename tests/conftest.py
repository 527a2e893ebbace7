"""Shared fixtures: bundled domains, plan corpora, and mapped graphs."""

import pytest

from plankb import bundles
from plankb.mapper import build_graph, load_plans, map_ipc_results
from plankb.select import read_ipc_csv


def load_bundle(name):
    """Domain, problems, and plan entries parsed from the bundled corpus."""
    d = bundles.load_domain(name)
    problems = bundles.load_problems(name)
    entries, skipped = load_plans(d, problems, bundles.plan_paths(name))
    assert skipped == []
    return d, problems, entries


@pytest.fixture(scope="session")
def bw_bundle():
    return load_bundle("blocksworld")


@pytest.fixture(scope="session")
def gripper_bundle():
    return load_bundle("gripper")


@pytest.fixture(scope="session")
def driverlog_bundle():
    return load_bundle("driverlog")


@pytest.fixture(scope="session")
def bw_graph(bw_bundle):
    d, problems, entries = bw_bundle
    return build_graph(d, problems, entries)


@pytest.fixture(scope="session")
def gripper_graph(gripper_bundle):
    d, problems, entries = gripper_bundle
    return build_graph(d, problems, entries)


@pytest.fixture(scope="session")
def driverlog_graph(driverlog_bundle):
    d, problems, entries = driverlog_bundle
    return build_graph(d, problems, entries)


@pytest.fixture(scope="session")
def ipc_rows():
    return read_ipc_csv((bundles.data_dir() / "ipc2011.csv").read_text())


@pytest.fixture(scope="session")
def ipc_graph(bw_graph, ipc_rows):
    from plankb.kg.store import Graph

    g = Graph(bw_graph.triples())
    g.update(map_ipc_results(ipc_rows))
    return g
