"""Shared fixtures: bundled example graphs and seeded random instances."""

import sys
from pathlib import Path

import pytest

from labelled_clique import (
    Graph,
    LabelledGraph,
    build_graph,
    fixture_path,
    parse_dimacs,
    parse_labels,
    random_labels,
    splitmix_next,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from gen_keller4 import keller4_edges  # noqa: E402


def random_graph(n: int, density: float, seed: int) -> Graph:
    """Seeded G(n, p) graph; reproducible across runs via splitmix64."""
    threshold = int(density * (1 << 64))
    state = seed
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            value, state = splitmix_next(state)
            if value < threshold:
                edges.append((u, v))
    return build_graph(n, edges)


def random_instance(n: int, density: float, num_labels: int, seed: int) -> LabelledGraph:
    g = random_graph(n, density, seed)
    return random_labels(g, num_labels, seed + 1_000_003)


def keller4_graph() -> Graph:
    """keller4 (171 vertices, 9435 edges), from the generator script."""
    return build_graph(*keller4_edges())


@pytest.fixture(scope="session")
def fig1() -> LabelledGraph:
    graph = parse_dimacs(fixture_path("fig1.clq").read_text())
    return parse_labels(fixture_path("fig1.lab").read_text(), graph)


@pytest.fixture(scope="session")
def fig2() -> Graph:
    return parse_dimacs(fixture_path("fig2.clq").read_text())


@pytest.fixture(scope="session")
def keller4() -> Graph:
    return keller4_graph()
