"""Exact polynomial-time solvers for all ten tasks; the source of gold answers.

Connected components uses union-find; the test suite cross-checks it
against a brute-force reachability closure (``tests/bruteforce.py``).
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .graphs import Edge, Graph
from .tasks import Task


class OracleError(ValueError):
    """Base class for oracle precondition failures."""


class UnknownNodeError(OracleError):
    """A queried node label is outside the graph."""


class UnreachableError(OracleError):
    """Shortest path asked between nodes in different components."""


class CycleDetectedError(OracleError):
    """Topological order asked for a directed graph that has a cycle."""


class AnswerKind(str, Enum):
    INT = "int"
    BOOL = "bool"
    NODE_SET = "node_set"
    NODE_SEQ = "node_seq"
    EDGE_SET = "edge_set"


@dataclass(frozen=True)
class Answer:
    """Typed task answer: an integer, a boolean, a node set, a node sequence,
    or an edge set, depending on the task."""

    kind: AnswerKind
    value: object

    @classmethod
    def integer(cls, value: int) -> "Answer":
        return cls(AnswerKind.INT, int(value))

    @classmethod
    def boolean(cls, value: bool) -> "Answer":
        return cls(AnswerKind.BOOL, bool(value))

    @classmethod
    def node_set(cls, nodes: Iterable[int]) -> "Answer":
        return cls(AnswerKind.NODE_SET, frozenset(int(u) for u in nodes))

    @classmethod
    def node_seq(cls, nodes: Iterable[int]) -> "Answer":
        return cls(AnswerKind.NODE_SEQ, tuple(int(u) for u in nodes))

    @classmethod
    def edge_set(cls, edges: Iterable[Sequence[int]]) -> "Answer":
        return cls(AnswerKind.EDGE_SET, frozenset((int(u), int(v)) for u, v in edges))


#: Answer shape produced by each task.
TASK_ANSWER_KINDS: dict[Task, AnswerKind] = {
    Task.NODE_COUNT: AnswerKind.INT,
    Task.EDGE_COUNT: AnswerKind.INT,
    Task.NODE_DEGREE: AnswerKind.INT,
    Task.NEIGHBORS: AnswerKind.NODE_SET,
    Task.CONNECTED_COMPONENTS: AnswerKind.INT,
    Task.CYCLE_CHECK: AnswerKind.BOOL,
    Task.MST: AnswerKind.EDGE_SET,
    Task.SHORTEST_PATH: AnswerKind.INT,
    Task.BIPARTITE_CHECK: AnswerKind.BOOL,
    Task.TOPOLOGICAL_SORT: AnswerKind.NODE_SEQ,
}


class _UnionFind:
    """Array-based union-find with path compression."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.count = n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of a and b; False if they were already together."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        self.count -= 1
        return True


def adjacency(g: Graph) -> list[list[int]]:
    """Adjacency lists; for directed graphs, successors only."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.sorted_edges:
        adj[u].append(v)
        if not g.directed:
            adj[v].append(u)
    return adj


def _check_node(g: Graph, u: int) -> None:
    if not (0 <= u < g.n):
        raise UnknownNodeError(f"node {u} not in graph with n={g.n}")


def node_count(g: Graph) -> int:
    return g.n


def edge_count(g: Graph) -> int:
    return len(g.edges)


def degree(g: Graph, u: int) -> int:
    _check_node(g, u)
    return sum(1 for e in g.edges if u in e)


def neighbors(g: Graph, u: int) -> frozenset[int]:
    _check_node(g, u)
    return frozenset(b if a == u else a for a, b in g.edges if u in (a, b))


def connected_components(g: Graph) -> int:
    """Component count by union-find (edge direction ignored)."""
    uf = _UnionFind(g.n)
    for u, v in g.edges:
        uf.union(u, v)
    return uf.count


def has_cycle(g: Graph) -> bool:
    """True iff the undirected graph contains a cycle (union-find early exit)."""
    uf = _UnionFind(g.n)
    for u, v in g.sorted_edges:
        if not uf.union(u, v):
            return True
    return False


def spanning_forest(g: Graph) -> frozenset[Edge]:
    """A spanning forest (Kruskal without weights): acyclic, touches every
    component, exactly n - c edges. Any such subset is a minimum spanning
    tree of an unweighted connected graph."""
    uf = _UnionFind(g.n)
    chosen = set()
    for u, v in g.sorted_edges:
        if uf.union(u, v):
            chosen.add((u, v))
    return frozenset(chosen)


def validate_spanning_tree(g: Graph, es: Iterable[Sequence[int]]) -> bool:
    """True iff es is a subset of g's edges, acyclic, and induces exactly the
    same component partition as g (hence has cardinality n - c)."""
    candidate = {(int(u), int(v)) if int(u) < int(v) else (int(v), int(u)) for u, v in es}
    if not candidate <= g.edges:
        return False
    uf = _UnionFind(g.n)
    for u, v in sorted(candidate):
        if not uf.union(u, v):
            return False  # cycle inside the candidate set
    whole = _UnionFind(g.n)
    for u, v in g.edges:
        whole.union(u, v)
    if len(candidate) != g.n - whole.count:
        return False
    # Same partition: every graph edge must not bridge two candidate components.
    return all(uf.find(u) == uf.find(v) for u, v in g.edges)


def shortest_path_length(g: Graph, u: int, v: int) -> int:
    """Unweighted BFS distance between u and v."""
    _check_node(g, u)
    _check_node(g, v)
    if u == v:
        return 0
    adj = adjacency(g)
    dist = {u: 0}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                if y == v:
                    return dist[y]
                queue.append(y)
    raise UnreachableError(f"nodes {u} and {v} are in different components")


def is_bipartite(g: Graph) -> bool:
    """True iff the graph is 2-colorable (BFS coloring)."""
    adj = adjacency(g)
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if color[y] == -1:
                    color[y] = 1 - color[x]
                    queue.append(y)
                elif color[y] == color[x]:
                    return False
    return True


def topo_order(g: Graph) -> tuple[int, ...]:
    """Lexicographically smallest topological order (Kahn with a heap)."""
    if not g.directed:
        raise OracleError("topological order is defined for directed graphs")
    indegree = [0] * g.n
    adj = adjacency(g)
    for _, v in g.edges:
        indegree[v] += 1
    ready = [u for u in range(g.n) if indegree[u] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        x = heapq.heappop(ready)
        order.append(x)
        for y in adj[x]:
            indegree[y] -= 1
            if indegree[y] == 0:
                heapq.heappush(ready, y)
    if len(order) != g.n:
        raise CycleDetectedError("graph contains a directed cycle")
    return tuple(order)


def validate_topo_order(g: Graph, seq: Sequence[int]) -> bool:
    """True iff seq is a permutation of all nodes with every edge pointing forward."""
    seq = tuple(int(x) for x in seq)
    if sorted(seq) != list(range(g.n)):
        return False
    position = {node: i for i, node in enumerate(seq)}
    return all(position[u] < position[v] for u, v in g.edges)


def gold_answer(task: Task, g: Graph, query: Sequence[int] = ()) -> Answer:
    """Compute the typed gold answer for one task instance."""
    if task is Task.NODE_COUNT:
        return Answer.integer(node_count(g))
    if task is Task.EDGE_COUNT:
        return Answer.integer(edge_count(g))
    if task is Task.NODE_DEGREE:
        return Answer.integer(degree(g, query[0]))
    if task is Task.NEIGHBORS:
        return Answer.node_set(neighbors(g, query[0]))
    if task is Task.CONNECTED_COMPONENTS:
        return Answer.integer(connected_components(g))
    if task is Task.CYCLE_CHECK:
        return Answer.boolean(has_cycle(g))
    if task is Task.MST:
        return Answer.edge_set(spanning_forest(g))
    if task is Task.SHORTEST_PATH:
        return Answer.integer(shortest_path_length(g, query[0], query[1]))
    if task is Task.BIPARTITE_CHECK:
        return Answer.boolean(is_bipartite(g))
    if task is Task.TOPOLOGICAL_SORT:
        return Answer.node_seq(topo_order(g))
    raise ValueError(f"unknown task {task!r}")
