from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for the bruteforce helpers

import graphbench
from graphbench import Graph
from graphbench.cli import main
from graphbench.prompts import PseudocodeStyle, pseudocode_for
from graphbench.tasks import Task

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def subprocess_env(*first: Path) -> dict[str, str]:
    """Environment for a fresh interpreter that imports this graphbench,
    with ``first`` ahead of it on ``PYTHONPATH``."""
    src = Path(graphbench.__file__).resolve().parents[1]
    paths = [*map(str, first), str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


@pytest.fixture(scope="session")
def seed0_dataset(tmp_path_factory) -> Path:
    """The full seed-0 dataset as ``graphbench generate`` writes it, with its
    manifest beside it: built once per session and shared, never modified."""
    path = tmp_path_factory.mktemp("seed0") / "dataset.jsonl"
    assert main(["generate", "--seed", "0", "--out", str(path)]) == 0
    return path


def instance_line(row: dict) -> str:
    """A dataset's instance row in the layout ``save_dataset`` writes, the
    only one load reads: sorted keys and no spaces."""
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def pseudocode_assets() -> dict[tuple[Task, PseudocodeStyle], str]:
    """All 30 bundled pseudo-code assets, keyed by (task, style)."""
    return {(task, style): pseudocode_for(task, style)
            for task in Task for style in PseudocodeStyle}


def make_graph(n, edges, directed=False):
    return Graph.from_edges(n, edges, directed=directed)


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
