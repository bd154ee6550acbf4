"""Prompt rendering: strategies, pseudo-code assets, exemplars, edge-list encoding.

Rendering is a pure function of (instance, strategy, assets): identical inputs
yield byte-identical prompts, which the golden-file tests rely on.

A prompt is its cell's head (description, pseudo-code, exemplars) followed by
its instance's tail (edge list, question, answer format). Only (task, bucket,
strategy, exemplar seed, label base) decides the head, so each head is built
once per process and shared by every prompt in the cell; a ``PromptBundle``
holds the head and the instance, and joins them only when its ``text`` is
read. An instance's edge list is encoded once per (graph, label base) while
the tails of the graph's instances, adjacent in dataset order, are read.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from importlib import resources

from .dataset import PairText, TaskInstance, build_instances
from .graphs import Graph, SizeBucket, _last_graph_memo
from .oracles import Answer
from .tasks import KIND_SPECS, TASK_SPECS, AnswerKind, Task

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

    @functools.cached_property
    def display_name(self) -> str:
        """The name rows and reports carry, built once per strategy, so every
        transcript and record of a run shares one string."""
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
    if t in ("k-shot", "few-shot"):
        return Strategy.k_shot(shots)
    k = t.removesuffix("-shot")
    if t == f"{k}-shot" and k.isascii() and k.isdigit():
        return Strategy.k_shot(int(k))
    if t == "bag":
        return Strategy.bag()
    if t in ("0-cot", "zero-cot", "cot"):
        return Strategy.zero_cot()
    if t == "pseudo":
        return Strategy.pseudo(style)
    if t in ("pseudo-k-shot", "pseudo-shot", "pseudo+k-shot"):
        return Strategy.pseudo_k_shot(style, shots)
    k = t.removeprefix("pseudo+").removesuffix("-shot")
    if t == f"pseudo+{k}-shot" and k.isascii() and k.isdigit():
        return Strategy.pseudo_k_shot(style, int(k))
    raise ValueError(f"unknown strategy {token!r}")


#: ``parse_strategy`` of a name alone, parsed once per name: rows name their strategy.
strategy_named = functools.lru_cache(maxsize=None)(parse_strategy)


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


# --- surface text --------------------------------------------------------------

def answer_format_line(task: Task) -> str:
    return KIND_SPECS[TASK_SPECS[task].answer_kind].format_line


def _check_label_base(label_base: int) -> None:
    """Raise ValueError unless ``label_base`` is the int 0 or 1 (a bool is not)."""
    if type(label_base) is not int or label_base not in (0, 1):
        raise ValueError(f"label_base must be 0 or 1, not {label_base!r}")


_PAIR_TEXT = (PairText("(%d, %d)", 0), PairText("(%d, %d)", 1))


def encode_edge_list(g: Graph, label_base: int = 0) -> str:
    """Deterministic edge-list encoding; directed graphs state the direction."""
    _check_label_base(label_base)
    lo, hi = label_base, g.n - 1 + label_base
    pairs = ", ".join(map(_PAIR_TEXT[label_base].__getitem__, g.edges))
    pairs = pairs or "(none)"
    if g.directed:
        return (
            f"The graph has {g.n} nodes, numbered {lo}..{hi}. "
            f"Directed edges (from, to): {pairs}"
        )
    return f"The graph has {g.n} nodes, numbered {lo}..{hi}. Edges: {pairs}"


def question_for(task: Task, query: tuple[int, ...], label_base: int = 0) -> str:
    return TASK_SPECS[task].question.format(*(q + label_base for q in query))


def format_answer(answer: Answer, label_base: int = 0) -> str:
    """Render a typed answer the way prompts instruct the model to write it:
    Yes or No, an int, or Python's text of the list of labels or label pairs."""
    if answer.kind is AnswerKind.BOOL:
        return "Yes" if answer.value else "No"
    return str(answer.listed(label_base))


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
    base = TASK_SPECS[task].label_base if label_base is None else label_base
    exemplars = []
    for inst in build_instances(task, bucket, exemplar_seed, graph_count=k, stream="exemplar"):
        if inst.id.endswith("-0"):  # each exemplar graph's first query
            question = f"{encode_edge_list(inst.graph, base)}\n{question_for(task, inst.query, base)}"
            exemplars.append((question, format_answer(inst.gold, base)))
    return exemplars


# --- rendering ------------------------------------------------------------------

# The memos below hold each cell's head, and each pseudo-code section, for the
# life of the process. They are immutable strings, so every prompt can share
# them; render_prompt checks the label base first, so no key can hold True in
# place of 1. A miss calls pseudocode_for / build_exemplars through the module
# globals, so a wrapper installed on those names sees it.


@functools.lru_cache(maxsize=None)
def _pseudocode_section(task: Task, style: PseudocodeStyle) -> str:
    code = pseudocode_for(task, style).rstrip("\n")
    return f"You can follow this pseudo-code to solve the problem:\n{code}"


@functools.lru_cache(maxsize=None)
def _head(
    task: Task, bucket: SizeBucket, strategy: Strategy, exemplar_seed: int, label_base: int
) -> str:
    description = TASK_SPECS[task].description
    if strategy.kind is StrategyKind.BAG:
        description += f" {BAG_SENTENCE}."
    elif strategy.kind is StrategyKind.ZERO_COT:
        description += f" {ZERO_COT_SENTENCE}."
    sections = [description]
    if strategy.uses_pseudocode:
        assert strategy.style is not None
        sections.append(_pseudocode_section(task, strategy.style))
    if strategy.uses_exemplars:
        sections.extend(
            f"Example:\n{question}\nAnswer: {answer}"
            for question, answer in build_exemplars(task, bucket, strategy.k, exemplar_seed, label_base)
        )
    return "\n\n".join(sections)


#: ``encode_edge_list(g, base)`` for base 0 and 1, each keeping its last graph's
#: text. Unlike a cell's head, an edge list serves only its graph's few queries,
#: which are adjacent in dataset order.
_EDGE_LISTS = tuple(_last_graph_memo(functools.partial(encode_edge_list, label_base=base))
                    for base in (0, 1))


@dataclass(frozen=True, slots=True)
class PromptBundle:
    """One prompt: its cell's shared ``head``, the instance it asks about, and
    the strategy and label base both are rendered in.

    ``text`` is ``head``, a blank line and ``tail``. It is built on each read
    and kept nowhere, so holding many bundles holds each head once.
    """

    head: str
    instance: TaskInstance
    strategy: Strategy
    label_base: int

    @property
    def instance_id(self) -> str:
        return self.instance.id

    @property
    def tail(self) -> str:
        """The instance's section: edge list, question and answer-format line."""
        inst, base = self.instance, self.label_base
        return (
            f"{_EDGE_LISTS[base](inst.graph)}\n"
            f"{question_for(inst.task, inst.query, base)}\n"
            f"{answer_format_line(inst.task)}"
        )

    @property
    def text(self) -> str:
        return f"{self.head}\n\n{self.tail}"


def render_prompt(
    inst: TaskInstance,
    strategy: Strategy,
    exemplar_seed: int = DEFAULT_EXEMPLAR_SEED,
    label_base: int | None = None,
) -> PromptBundle:
    """Compose the prompt for one instance under one strategy."""
    base = TASK_SPECS[inst.task].label_base if label_base is None else label_base
    _check_label_base(base)
    head = _head(inst.task, inst.bucket, strategy, exemplar_seed, base)
    return PromptBundle(head=head, instance=inst, strategy=strategy, label_base=base)
