"""Every demo runs under ``python -X dev`` and writes nothing to stderr.

Development mode turns on the warnings a demo could otherwise hide, such as
an unclosed file (``ResourceWarning``) or a deprecated call. Each demo runs in
its own empty working directory, so a file it leaves behind cannot reach
another test. The live-endpoint demo gets no API key, so it prints its recipe
and makes no request.

The package root exports the names the demos and the benchmark import, the
classes those names return and the errors they raise; everything else is
imported from its module.
"""
import ast
import importlib.util
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import graphbench
from conftest import subprocess_env

REPO = Path(__file__).parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))

ROOT_NAMES = {
    # imported by the demos or the benchmark
    "ALL_BUCKETS", "GeneratorConfig", "Graph", "HttpChatBackend", "MEDIUM", "ModelConfig",
    "PseudocodeStyle", "ResponseCache", "SMALL", "Strategy", "TASK_SPECS", "Task",
    "aggregate_report", "assemble_dataset", "build_instances", "connected_components",
    "content_digest", "degree", "derive_seed", "evaluate_response", "gen_er", "gen_er_dag",
    "gen_random_bipartite", "gold_answer", "has_cycle", "is_bipartite", "load_dataset",
    "make_backend", "neighbors", "pseudocode_for", "render_csv", "render_markdown",
    "render_prompt", "run_prompts", "save_dataset", "shortest_path_length", "spanning_forest",
    "standard_strategies", "topo_order", "validate_spanning_tree", "validate_topo_order",
    # returned by one of those
    "Answer", "AnswerKind", "TaskInstance", "SizeBucket", "PromptBundle", "Transcript",
    "EvalRecord", "Report",
    # raised by one of those
    "ClientError", "CacheMissError", "RequestTimeout", "RateLimitedError",
    "MalformedResponseError", "DatasetFormatError", "OracleError", "UnknownNodeError",
    "UnreachableError", "CycleDetectedError", "ExtractionFailed",
}


def test_every_demo_is_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.name)
def test_demo_runs_cleanly_in_dev_mode(demo, tmp_path):
    env = subprocess_env()
    env.pop("GRAPHBENCH_API_KEY", None)
    done = subprocess.run([sys.executable, "-X", "dev", str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_the_root_exports_what_the_demos_and_the_benchmark_import():
    public = {name for name, value in vars(graphbench).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert len(ROOT_NAMES) == 60 and public == ROOT_NAMES
    missing = []
    for path in [*DEMOS, *sorted((REPO / "perfbench").glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "graphbench":
                missing += [(path.name, alias.name) for alias in node.names
                            if alias.name not in ROOT_NAMES
                            and importlib.util.find_spec(f"graphbench.{alias.name}") is None]
    assert missing == []
