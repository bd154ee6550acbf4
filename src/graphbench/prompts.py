"""Prompt rendering: strategies, pseudo-code assets, exemplars, edge-list encoding.

Rendering is a pure function of (instance, strategy, assets): identical inputs
yield byte-identical prompts, which the golden-file tests rely on.

Only (task, bucket, k, exemplar seed, label base) decides a prompt's exemplars
and only (task, style) its pseudo-code, so each cell's exemplar and pseudo-code
sections are rendered once per process and reused by every prompt in the cell.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from importlib import resources

from .dataset import TaskInstance, build_instances
from .graphs import Graph, SizeBucket
from .oracles import Answer, AnswerKind
from .tasks import Task, default_label_base

#: Appended verbatim by the graph-reconstruction strategy.
BAG_SENTENCE = "Let's construct a graph with the nodes and edges first"
#: Appended verbatim by the zero-shot chain-of-thought strategy.
ZERO_COT_SENTENCE = "Let's think step by step"

#: Exemplar graphs are derived from this seed in their own stream, so they are
#: disjoint from every evaluation instance regardless of the dataset seed.
DEFAULT_EXEMPLAR_SEED = 214783


class PseudocodeStyle(str, Enum):
    PYTHON = "python"   # a single Python function
    PLAIN = "plain"     # a single numbered-step routine
    MULTI = "multi"     # several small named helper routines

    def __str__(self) -> str:
        return self.value


class StrategyKind(str, Enum):
    ZERO_SHOT = "zero_shot"
    K_SHOT = "k_shot"
    BAG = "bag"
    ZERO_COT = "zero_cot"
    PSEUDO = "pseudo"
    PSEUDO_K_SHOT = "pseudo_k_shot"


@dataclass(frozen=True)
class Strategy:
    """One of the six prompting strategies, with its k / style parameters."""

    kind: StrategyKind
    k: int = 0
    style: PseudocodeStyle | None = None

    def __post_init__(self) -> None:
        if self.kind in (StrategyKind.K_SHOT, StrategyKind.PSEUDO_K_SHOT) and self.k < 1:
            raise ValueError(f"{self.kind.value} needs k >= 1")
        if self.kind in (StrategyKind.PSEUDO, StrategyKind.PSEUDO_K_SHOT) and self.style is None:
            raise ValueError(f"{self.kind.value} needs a pseudo-code style")

    @classmethod
    def zero_shot(cls) -> "Strategy":
        return cls(StrategyKind.ZERO_SHOT)

    @classmethod
    def k_shot(cls, k: int = 1) -> "Strategy":
        return cls(StrategyKind.K_SHOT, k=k)

    @classmethod
    def bag(cls) -> "Strategy":
        return cls(StrategyKind.BAG)

    @classmethod
    def zero_cot(cls) -> "Strategy":
        return cls(StrategyKind.ZERO_COT)

    @classmethod
    def pseudo(cls, style: PseudocodeStyle = PseudocodeStyle.PLAIN) -> "Strategy":
        return cls(StrategyKind.PSEUDO, style=style)

    @classmethod
    def pseudo_k_shot(cls, style: PseudocodeStyle = PseudocodeStyle.PLAIN, k: int = 1) -> "Strategy":
        return cls(StrategyKind.PSEUDO_K_SHOT, k=k, style=style)

    @property
    def uses_exemplars(self) -> bool:
        return self.kind in (StrategyKind.K_SHOT, StrategyKind.PSEUDO_K_SHOT)

    @property
    def uses_pseudocode(self) -> bool:
        return self.kind in (StrategyKind.PSEUDO, StrategyKind.PSEUDO_K_SHOT)

    @property
    def display_name(self) -> str:
        if self.kind is StrategyKind.ZERO_SHOT:
            return "0-shot"
        if self.kind is StrategyKind.K_SHOT:
            return f"{self.k}-shot"
        if self.kind is StrategyKind.BAG:
            return "BaG"
        if self.kind is StrategyKind.ZERO_COT:
            return "0-CoT"
        if self.kind is StrategyKind.PSEUDO:
            return "Pseudo"
        return f"Pseudo+{self.k}-shot"


def parse_strategy(token: str, shots: int = 1, style: PseudocodeStyle = PseudocodeStyle.PLAIN) -> Strategy:
    """Map a CLI token like "0-shot" or "pseudo+1-shot" to a Strategy."""
    t = token.strip().lower().replace("_", "-")
    if t in ("0-shot", "zero-shot"):
        return Strategy.zero_shot()
    if t in ("k-shot", "few-shot") or (t.endswith("-shot") and t[:-5].isdigit()):
        k = int(t[:-5]) if t.endswith("-shot") and t[:-5].isdigit() else shots
        return Strategy.k_shot(k)
    if t == "bag":
        return Strategy.bag()
    if t in ("0-cot", "zero-cot", "cot"):
        return Strategy.zero_cot()
    if t == "pseudo":
        return Strategy.pseudo(style)
    if t in ("pseudo-k-shot", "pseudo-shot") or (t.startswith("pseudo+") and t.endswith("-shot")):
        middle = t[len("pseudo+") : -len("-shot")] if t.startswith("pseudo+") else ""
        k = int(middle) if middle.isdigit() else shots
        return Strategy.pseudo_k_shot(style, k)
    raise ValueError(f"unknown strategy {token!r}")


def standard_strategies(style: PseudocodeStyle = PseudocodeStyle.PLAIN) -> tuple[Strategy, ...]:
    """The six standard strategies, at k=1 and a given pseudo-code style."""
    return (
        Strategy.zero_shot(),
        Strategy.k_shot(1),
        Strategy.bag(),
        Strategy.zero_cot(),
        Strategy.pseudo(style),
        Strategy.pseudo_k_shot(style, 1),
    )


@dataclass(frozen=True)
class PromptBundle:
    """A fully rendered prompt plus the metadata that produced it."""

    text: str
    strategy: Strategy
    task: Task
    instance_id: str
    label_base: int


# --- surface text --------------------------------------------------------------

_TASK_DESCRIPTIONS: dict[Task, str] = {
    Task.NODE_COUNT: "Your task is to count the number of nodes in an undirected graph.",
    Task.EDGE_COUNT: "Your task is to count the number of edges in an undirected graph.",
    Task.NODE_DEGREE: "Your task is to compute the degree of a given node in an undirected graph.",
    Task.NEIGHBORS: "Your task is to find all nodes adjacent to a given node in an undirected graph.",
    Task.CONNECTED_COMPONENTS: "Your task is to count the number of connected components in an undirected graph.",
    Task.CYCLE_CHECK: "Your task is to decide whether an undirected graph contains a cycle.",
    Task.MST: (
        "Your task is to find a minimum spanning tree of a connected undirected graph: "
        "a subset of edges with as few edges as possible that connects all the nodes "
        "and contains no cycle."
    ),
    Task.SHORTEST_PATH: "Your task is to compute the length of the shortest path between two nodes in an undirected graph.",
    Task.BIPARTITE_CHECK: "Your task is to decide whether an undirected graph is bipartite.",
    Task.TOPOLOGICAL_SORT: (
        "Your task is to produce a topological ordering of a directed acyclic graph: "
        "for every directed edge (u, v), node u must come before node v."
    ),
}

_ANSWER_FORMAT_LINES: dict[AnswerKind, str] = {
    AnswerKind.INT: 'When you are done, write the final line as "Answer: <number>".',
    AnswerKind.BOOL: 'When you are done, write the final line as "Answer: Yes" or "Answer: No".',
    AnswerKind.NODE_SET: (
        'When you are done, write the final line as "Answer: [a, b, c]" listing the nodes, '
        'or "Answer: []" if there are none.'
    ),
    AnswerKind.NODE_SEQ: (
        'When you are done, write the final line as "Answer: [a, b, c, ...]" listing every '
        "node exactly once in order."
    ),
    AnswerKind.EDGE_SET: 'When you are done, write the final line as "Answer: [(a, b), (c, d), ...]" listing the edges.',
}


def task_description(task: Task) -> str:
    return _TASK_DESCRIPTIONS[task]


def answer_format_line(task: Task) -> str:
    from .oracles import TASK_ANSWER_KINDS

    return _ANSWER_FORMAT_LINES[TASK_ANSWER_KINDS[task]]


def encode_edge_list(g: Graph, label_base: int = 0) -> str:
    """Deterministic edge-list encoding; directed graphs state the direction."""
    if label_base not in (0, 1):
        raise ValueError("label_base must be 0 or 1")
    lo, hi = label_base, g.n - 1 + label_base
    pairs = ", ".join(f"({u + label_base}, {v + label_base})" for u, v in g.sorted_edges)
    pairs = pairs or "(none)"
    if g.directed:
        return (
            f"The graph has {g.n} nodes, numbered {lo}..{hi}. "
            f"Directed edges (from, to): {pairs}"
        )
    return f"The graph has {g.n} nodes, numbered {lo}..{hi}. Edges: {pairs}"


def question_for(task: Task, query: tuple[int, ...], label_base: int = 0) -> str:
    shifted = tuple(q + label_base for q in query)
    if task is Task.NODE_COUNT:
        return "Question: How many nodes are in the graph?"
    if task is Task.EDGE_COUNT:
        return "Question: How many edges are in the graph?"
    if task is Task.NODE_DEGREE:
        return f"Question: What is the degree of node {shifted[0]}?"
    if task is Task.NEIGHBORS:
        return f"Question: Which nodes are adjacent to node {shifted[0]}?"
    if task is Task.CONNECTED_COMPONENTS:
        return "Question: How many connected components are in the graph?"
    if task is Task.CYCLE_CHECK:
        return "Question: Does the graph contain a cycle?"
    if task is Task.MST:
        return "Question: Which edges form a minimum spanning tree of the graph?"
    if task is Task.SHORTEST_PATH:
        return f"Question: What is the length of the shortest path from node {shifted[0]} to node {shifted[1]}?"
    if task is Task.BIPARTITE_CHECK:
        return "Question: Is the graph bipartite?"
    if task is Task.TOPOLOGICAL_SORT:
        return "Question: What is a valid topological ordering of the nodes?"
    raise ValueError(f"unknown task {task!r}")


def format_answer(answer: Answer, label_base: int = 0) -> str:
    """Render a typed answer the way prompts instruct the model to write it."""
    if answer.kind is AnswerKind.INT:
        return str(answer.value)
    if answer.kind is AnswerKind.BOOL:
        return "Yes" if answer.value else "No"
    if answer.kind is AnswerKind.NODE_SET:
        return "[" + ", ".join(str(u + label_base) for u in sorted(answer.value)) + "]"
    if answer.kind is AnswerKind.NODE_SEQ:
        return "[" + ", ".join(str(u + label_base) for u in answer.value) + "]"
    if answer.kind is AnswerKind.EDGE_SET:
        pairs = sorted(answer.value)
        return "[" + ", ".join(f"({u + label_base}, {v + label_base})" for u, v in pairs) + "]"
    raise ValueError(f"unknown answer kind {answer.kind!r}")


# --- pseudo-code assets ---------------------------------------------------------


def pseudocode_for(task: Task, style: PseudocodeStyle) -> str:
    """The bundled pseudo-code block for (task, style)."""
    task = Task(task)
    style = PseudocodeStyle(style)
    name = f"{task.value}.{style.value}.txt"
    ref = resources.files("graphbench").joinpath("assets/pseudocode").joinpath(name)
    if not ref.is_file():
        raise FileNotFoundError(f"missing pseudo-code asset {name}")
    return ref.read_text(encoding="utf-8")


def pseudocode_assets() -> dict[tuple[Task, PseudocodeStyle], str]:
    """All 30 bundled assets, keyed by (task, style)."""
    return {
        (task, style): pseudocode_for(task, style)
        for task in Task
        for style in PseudocodeStyle
    }


# --- exemplars ------------------------------------------------------------------


def build_exemplars(
    task: Task,
    bucket: SizeBucket,
    k: int,
    exemplar_seed: int = DEFAULT_EXEMPLAR_SEED,
    label_base: int | None = None,
) -> list[tuple[str, str]]:
    """k worked examples as (question text, answer text) pairs.

    Each example has its own graph; answers come straight from the oracles.
    The exemplar seed stream is disjoint from evaluation streams, so exemplar
    graphs never appear in the evaluation set.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    base = default_label_base(task) if label_base is None else label_base
    exemplars = []
    instances = build_instances(task, bucket, exemplar_seed, graph_count=k, stream="exemplar")
    per_graph: dict[str, TaskInstance] = {}
    for inst in instances:  # keep only the first query of each exemplar graph
        key = inst.id.rsplit("-", 1)[0]
        per_graph.setdefault(key, inst)
    for inst in list(per_graph.values())[:k]:
        question = f"{encode_edge_list(inst.graph, base)}\n{question_for(task, inst.query, base)}"
        exemplars.append((question, format_answer(inst.gold, base)))
    return exemplars


# --- rendering ------------------------------------------------------------------

# The helpers below hold each cell's sections for the life of the process. They
# return immutable strings, so every prompt can share them; typed=True keeps
# label_base True and 1 apart, which render differently. A cache miss calls
# pseudocode_for / build_exemplars through the module globals, so a wrapper
# installed on those names sees it.


@functools.lru_cache(maxsize=None, typed=True)
def _pseudocode_section(task: Task, style: PseudocodeStyle) -> str:
    code = pseudocode_for(task, style).rstrip("\n")
    return f"You can follow this pseudo-code to solve the problem:\n{code}"


@functools.lru_cache(maxsize=None, typed=True)
def _exemplar_sections(
    task: Task, bucket: SizeBucket, k: int, exemplar_seed: int, label_base: int
) -> tuple[str, ...]:
    return tuple(
        f"Example:\n{question}\nAnswer: {answer}"
        for question, answer in build_exemplars(task, bucket, k, exemplar_seed, label_base)
    )


def render_prompt(
    inst: TaskInstance,
    strategy: Strategy,
    exemplar_seed: int = DEFAULT_EXEMPLAR_SEED,
    label_base: int | None = None,
) -> PromptBundle:
    """Compose the full prompt for one instance under one strategy."""
    base = default_label_base(inst.task) if label_base is None else label_base
    description = task_description(inst.task)
    if strategy.kind is StrategyKind.BAG:
        description += f" {BAG_SENTENCE}."
    elif strategy.kind is StrategyKind.ZERO_COT:
        description += f" {ZERO_COT_SENTENCE}."

    sections = [description]
    if strategy.uses_pseudocode:
        assert strategy.style is not None
        sections.append(_pseudocode_section(inst.task, strategy.style))
    if strategy.uses_exemplars:
        sections.extend(_exemplar_sections(inst.task, inst.bucket, strategy.k, exemplar_seed, base))
    sections.append(
        f"{encode_edge_list(inst.graph, base)}\n"
        f"{question_for(inst.task, inst.query, base)}\n"
        f"{answer_format_line(inst.task)}"
    )
    return PromptBundle(
        text="\n\n".join(sections),
        strategy=strategy,
        task=inst.task,
        instance_id=inst.id,
        label_base=base,
    )
