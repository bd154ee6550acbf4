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

#: Appended verbatim by BaG (graph reconstruction) and 0-CoT (zero-shot chain of thought).
BAG_SENTENCE = "Let's construct a graph with the nodes and edges first"
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
class StrategySpec:
    """One strategy kind's facts: display name (``{k}`` is the shot count), other names (k from
    ``--shots``), the sentence its head appends, whether it takes k >= 1 exemplars and a style."""

    display: str
    aliases: tuple[str, ...] = ()
    sentence: str = ""
    exemplars: bool = False
    pseudocode: bool = False


STRATEGY_SPECS: dict[StrategyKind, StrategySpec] = {
    StrategyKind.ZERO_SHOT: StrategySpec("0-shot", ("zero-shot",)),
    StrategyKind.K_SHOT: StrategySpec("{k}-shot", ("k-shot", "few-shot"), exemplars=True),
    StrategyKind.BAG: StrategySpec("BaG", sentence=BAG_SENTENCE),
    StrategyKind.ZERO_COT: StrategySpec("0-CoT", ("zero-cot", "cot"), sentence=ZERO_COT_SENTENCE),
    StrategyKind.PSEUDO: StrategySpec("Pseudo", pseudocode=True),
    StrategyKind.PSEUDO_K_SHOT: StrategySpec(
        "Pseudo+{k}-shot", ("pseudo+k-shot", "pseudo-k-shot", "pseudo-shot"),
        exemplars=True, pseudocode=True),
}


@dataclass(frozen=True)
class Strategy:
    """One of the six prompting strategies, with its k / style parameters."""

    kind: StrategyKind
    k: int = 0
    style: PseudocodeStyle | None = None

    def __post_init__(self) -> None:
        if self.uses_exemplars and self.k < 1:
            raise ValueError(f"{self.kind.value} needs k >= 1")
        if not self.uses_exemplars and self.k != 0:
            raise ValueError(f"{self.kind.value} takes no k")
        if self.uses_pseudocode and self.style is None:
            raise ValueError(f"{self.kind.value} needs a pseudo-code style")
        if not self.uses_pseudocode and self.style is not None:
            raise ValueError(f"{self.kind.value} takes no pseudo-code style")

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
        return STRATEGY_SPECS[self.kind].exemplars

    @property
    def uses_pseudocode(self) -> bool:
        return STRATEGY_SPECS[self.kind].pseudocode

    @functools.cached_property
    def display_name(self) -> str:
        """The name rows and reports carry, built once, so a run's rows share one string."""
        return STRATEGY_SPECS[self.kind].display.format(k=self.k)


def parse_strategy(token: str, shots: int = 1, style: PseudocodeStyle = PseudocodeStyle.PLAIN) -> Strategy:
    """Map a CLI token like "0-shot" or "pseudo+1-shot" to a Strategy. The first kind in
    ``STRATEGY_SPECS`` to take the token wins, so "0-shot" is 0-shot, not 0 shots."""
    t = token.strip().lower().replace("_", "-")
    for kind, spec in STRATEGY_SPECS.items():
        head, slot, tail = spec.display.lower().partition("{k}")
        digits = t.removeprefix(head).removesuffix(tail)
        k = shots if t in spec.aliases or (not slot and t == head) else None
        if slot and t == f"{head}{digits}{tail}" and digits.isascii() and digits.isdigit():
            k = int(digits)
        if k is not None:
            return Strategy(kind, k if spec.exemplars else 0, style if spec.pseudocode else None)
    raise ValueError(f"unknown strategy {token!r}")


#: ``parse_strategy`` of a name alone, parsed once per name: rows name their strategy.
strategy_named = functools.lru_cache(maxsize=None)(parse_strategy)


def standard_strategies(style: PseudocodeStyle = PseudocodeStyle.PLAIN) -> tuple[Strategy, ...]:
    """The six standard strategies, each kind's display name at k=1, in a given style."""
    return tuple(parse_strategy(s.display.format(k=1), style=style) for s in STRATEGY_SPECS.values())


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
    sentence = STRATEGY_SPECS[strategy.kind].sentence
    sections = [TASK_SPECS[task].description + (f" {sentence}." if sentence else "")]
    if strategy.uses_pseudocode:  # then it has a style: Strategy checks the same table
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
