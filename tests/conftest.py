from __future__ import annotations

import gc
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for the bruteforce helpers

from graphbench import Graph

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def make_graph(n, edges, directed=False):
    return Graph.from_edges(n, edges, directed=directed)


@pytest.fixture(autouse=True)
def unfreeze_after_test():
    """``load_dataset`` freezes every live object; without this, one test's
    load would exempt its objects from cyclic collection (and hide cyclic
    file leaks from the ResourceWarning filter) for the rest of the session."""
    yield
    gc.unfreeze()


@pytest.fixture
def triangle():
    return make_graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path4():
    return make_graph(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def two_components():
    return make_graph(5, [(0, 1), (1, 2), (3, 4)])


@pytest.fixture
def no_edges():
    return make_graph(4, [])


@pytest.fixture
def k33():
    return make_graph(6, [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)])


@pytest.fixture
def diamond_dag():
    return make_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], directed=True)
