"""The ten graph questions the benchmark asks and the five kinds of answer
they take, each with one table of their facts."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Task(str, Enum):
    NODE_COUNT = "node_count"
    EDGE_COUNT = "edge_count"
    NODE_DEGREE = "node_degree"
    NEIGHBORS = "neighbors"
    CONNECTED_COMPONENTS = "connected_components"
    CYCLE_CHECK = "cycle_check"
    MST = "mst"
    SHORTEST_PATH = "shortest_path"
    BIPARTITE_CHECK = "bipartite_check"
    TOPOLOGICAL_SORT = "topological_sort"

    def __str__(self) -> str:  # so f-strings yield "edge_count", not "Task.EDGE_COUNT"
        return self.value


class AnswerKind(str, Enum):
    INT = "int"
    BOOL = "bool"
    NODE_SET = "node_set"
    NODE_SEQ = "node_seq"
    EDGE_SET = "edge_set"


@dataclass(frozen=True)
class KindSpec:
    """One answer kind's fixed facts. Each element of a value carries
    ``labels`` node labels: 0 for a scalar, 1 for a node, 2 for an edge. An
    ``ordered`` value is a tuple, any other collection a frozenset, listed
    sorted. ``scalar`` is the type of a scalar or of each label. The texts are
    the stored JSON type as load errors name it, the extraction failure and
    the prompt's answer-format line."""

    labels: int
    ordered: bool
    scalar: type
    json_type: str
    not_found: str
    format_line: str


KIND_SPECS: dict[AnswerKind, KindSpec] = {
    AnswerKind.INT: KindSpec(
        0, False, int, "an int", "no integer found",
        'When you are done, write the final line as "Answer: <number>".'),
    AnswerKind.BOOL: KindSpec(
        0, False, bool, "a bool", "no yes/no verdict found",
        'When you are done, write the final line as "Answer: Yes" or "Answer: No".'),
    AnswerKind.NODE_SET: KindSpec(
        1, False, int, "a list of ints", "no bracketed node list found",
        'When you are done, write the final line as "Answer: [a, b, c]" listing the nodes, '
        'or "Answer: []" if there are none.'),
    AnswerKind.NODE_SEQ: KindSpec(
        1, True, int, "a list of ints", "no node ordering found",
        'When you are done, write the final line as "Answer: [a, b, c, ...]" listing every '
        "node exactly once in order."),
    AnswerKind.EDGE_SET: KindSpec(
        2, False, int, "a list of int pairs", "no edge list found",
        'When you are done, write the final line as "Answer: [(a, b), (c, d), ...]" '
        "listing the edges."),
}


@dataclass(frozen=True)
class TaskSpec:
    """One task's fixed facts. ``arity`` counts the query nodes: 0 for a
    whole-graph question, 1 for a node, 2 for a pair. ``question`` formats the
    query nodes, numbered as in the prompt, into ``{0}`` and ``{1}``.
    ``label_base`` is the prompt's default numbering: 1 for topological
    sorting only, whose instances are conventionally described over 1..n."""

    display_name: str
    arity: int
    answer_kind: AnswerKind
    description: str
    question: str
    label_base: int = 0


TASK_SPECS: dict[Task, TaskSpec] = {
    Task.NODE_COUNT: TaskSpec(
        "Node count", 0, AnswerKind.INT,
        "Your task is to count the number of nodes in an undirected graph.",
        "Question: How many nodes are in the graph?"),
    Task.EDGE_COUNT: TaskSpec(
        "Edge count", 0, AnswerKind.INT,
        "Your task is to count the number of edges in an undirected graph.",
        "Question: How many edges are in the graph?"),
    Task.NODE_DEGREE: TaskSpec(
        "Node degree", 1, AnswerKind.INT,
        "Your task is to compute the degree of a given node in an undirected graph.",
        "Question: What is the degree of node {0}?"),
    Task.NEIGHBORS: TaskSpec(
        "Neighbors", 1, AnswerKind.NODE_SET,
        "Your task is to find all nodes adjacent to a given node in an undirected graph.",
        "Question: Which nodes are adjacent to node {0}?"),
    Task.CONNECTED_COMPONENTS: TaskSpec(
        "Connected components", 0, AnswerKind.INT,
        "Your task is to count the number of connected components in an undirected graph.",
        "Question: How many connected components are in the graph?"),
    Task.CYCLE_CHECK: TaskSpec(
        "Cycle check", 0, AnswerKind.BOOL,
        "Your task is to decide whether an undirected graph contains a cycle.",
        "Question: Does the graph contain a cycle?"),
    Task.MST: TaskSpec(
        "MST", 0, AnswerKind.EDGE_SET,
        "Your task is to find a minimum spanning tree of a connected undirected graph: "
        "a subset of edges with as few edges as possible that connects all the nodes "
        "and contains no cycle.",
        "Question: Which edges form a minimum spanning tree of the graph?"),
    Task.SHORTEST_PATH: TaskSpec(
        "Shortest path", 2, AnswerKind.INT,
        "Your task is to compute the length of the shortest path between two nodes in an undirected graph.",
        "Question: What is the length of the shortest path from node {0} to node {1}?"),
    Task.BIPARTITE_CHECK: TaskSpec(
        "Bipartite check", 0, AnswerKind.BOOL,
        "Your task is to decide whether an undirected graph is bipartite.",
        "Question: Is the graph bipartite?"),
    Task.TOPOLOGICAL_SORT: TaskSpec(
        "Topological sorting", 0, AnswerKind.NODE_SEQ,
        "Your task is to produce a topological ordering of a directed acyclic graph: "
        "for every directed edge (u, v), node u must come before node v.",
        "Question: What is a valid topological ordering of the nodes?", label_base=1),
}

ALL_TASKS: tuple[Task, ...] = tuple(Task)

#: How many node / node-pair questions are drawn from each graph.
QUERIES_PER_GRAPH = 5
