"""Exact polynomial-time solvers for all ten tasks; the source of gold answers.

Components, cycle check and spanning forests share one union-find loop over
a parent list (``_merge``); the test suite cross-checks it against a
brute-force reachability closure (``tests/bruteforce.py``). The traversals
share ``adjacency``, which keeps the last graph's adjacency tuples.
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import Edge, Graph, _last_graph_memo
from .tasks import KIND_SPECS, TASK_SPECS, AnswerKind, Task


class OracleError(ValueError):
    """Base class for oracle precondition failures."""


class UnknownNodeError(OracleError):
    """A queried node label is outside the graph."""


class UnreachableError(OracleError):
    """Shortest path asked between nodes in different components."""


class CycleDetectedError(OracleError):
    """Topological order asked for a directed graph that has a cycle."""


@dataclass(frozen=True, slots=True)
class Answer:
    """Typed task answer: an integer, a boolean, a node set, a node sequence,
    or an edge set, depending on the task. ``of`` builds each kind."""

    kind: AnswerKind
    value: object

    @classmethod
    def of(cls, kind: AnswerKind, value: object, shift: int = 0) -> "Answer":
        """A ``kind`` answer built from a scalar, or from elements as
        ``listed`` gives them, with ``shift`` subtracted from each label."""
        spec = KIND_SPECS[kind]
        if not spec.labels:
            return cls(kind, spec.scalar(value))
        items = ((int(u) - shift for u in value) if spec.labels == 1
                 else ((int(u) - shift, int(v) - shift) for u, v in value))
        return cls(kind, (tuple if spec.ordered else frozenset)(items))

    def listed(self, shift: int = 0) -> object:
        """The value in stored order, with ``shift`` added to each label: a
        scalar as it is, a sequence in its order, a set sorted."""
        spec = KIND_SPECS[self.kind]
        if not spec.labels:
            return self.value
        items = list(self.value) if spec.ordered else sorted(self.value)
        if shift:
            items = ([u + shift for u in items] if spec.labels == 1
                     else [(u + shift, v + shift) for u, v in items])
        return items


def _merge(parent: list[int], edges: Iterable[Edge]) -> list[Edge]:
    """Union-find over a parent list: join the trees of each edge's endpoints
    (direction ignored) and return, in order, the edges that joined two trees.

    ``parent`` starts as ``list(range(n))`` and is updated in place; a node's
    root, found by following it, names the node's component. No edge can join
    two trees once one tree remains, so the loop stops there."""
    joined: list[Edge] = []
    joins_left = len(parent) - 1
    for edge in edges:
        u, v = edge
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]  # path halving
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            joined.append(edge)
            joins_left -= 1
            if not joins_left:
                break
    return joined


@_last_graph_memo
def adjacency(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Adjacency tuples, in edge order; for directed graphs, successors only.
    The last graph's are kept and returned again for the same graph object."""
    lists: list[list[int]] = [[] for _ in range(g.n)]
    if g.directed:
        for u, v in g.edges:
            lists[u].append(v)
    else:
        for u, v in g.edges:
            lists[u].append(v)
            lists[v].append(u)
    return tuple(map(tuple, lists))


def _check_node(g: Graph, u: int) -> None:
    if not (0 <= u < g.n):
        raise UnknownNodeError(f"node {u} not in graph with n={g.n}")


def node_count(g: Graph) -> int:
    return g.n


def edge_count(g: Graph) -> int:
    return len(g.edges)


def degree(g: Graph, u: int) -> int:
    """Edges at u; for a directed graph, in-edges plus out-edges."""
    _check_node(g, u)
    if g.directed:
        return sum(1 for e in g.edges if u in e)
    return len(adjacency(g)[u])


def neighbors(g: Graph, u: int) -> frozenset[int]:
    """Nodes that share an edge with u, in either direction."""
    _check_node(g, u)
    if g.directed:
        return frozenset(b if a == u else a for a, b in g.edges if u in (a, b))
    return frozenset(adjacency(g)[u])


def connected_components(g: Graph) -> int:
    """Component count (edge direction ignored): each join of two trees
    leaves one component fewer."""
    return g.n - len(_merge(list(range(g.n)), g.edges))


def has_cycle(g: Graph) -> bool:
    """True iff the undirected graph contains a cycle: a forest on n nodes
    with c components has exactly n - c edges, and any other graph more."""
    return len(g.edges) > g.n - connected_components(g)


def spanning_forest(g: Graph) -> frozenset[Edge]:
    """A spanning forest (Kruskal without weights): acyclic, touches every
    component, exactly n - c edges. Any such subset is a minimum spanning
    tree of an unweighted connected graph."""
    return frozenset(_merge(list(range(g.n)), g.edges))


def validate_spanning_tree(g: Graph, es: Iterable[Sequence[int]]) -> bool:
    """True iff es is a subset of g's edges, acyclic, and induces exactly the
    same component partition as g. A subset's partition refines g's, so the
    two are equal when their counts are; and n - c edges hold no cycle when
    each of them joins two trees."""
    candidate = {(int(u), int(v)) if int(u) < int(v) else (int(v), int(u)) for u, v in es}
    if not candidate.issubset(g.edges):
        return False
    return (len(candidate) == g.n - connected_components(g)
            and len(_merge(list(range(g.n)), candidate)) == len(candidate))


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


#: Each task's solver. Each returns its task's answer kind's value type:
#: int, bool, frozenset or tuple.
_ORACLES = {
    Task.NODE_COUNT: node_count,
    Task.EDGE_COUNT: edge_count,
    Task.NODE_DEGREE: degree,
    Task.NEIGHBORS: neighbors,
    Task.CONNECTED_COMPONENTS: connected_components,
    Task.CYCLE_CHECK: has_cycle,
    Task.MST: spanning_forest,
    Task.SHORTEST_PATH: shortest_path_length,
    Task.BIPARTITE_CHECK: is_bipartite,
    Task.TOPOLOGICAL_SORT: topo_order,
}


def gold_answer(task: Task, g: Graph, query: Sequence[int] = ()) -> Answer:
    """Compute the typed gold answer for one task instance."""
    return Answer(TASK_SPECS[task].answer_kind, _ORACLES[task](g, *query))


def is_right_answer(
    task: Task, g: Graph, query: Sequence[int], answer: Answer, gold: Answer | None = None
) -> bool:
    """The one rule for a right answer, used by gold verification and scoring.

    The answer must be of the task's kind. Any valid spanning forest or
    topological order is right; any other answer must equal ``gold``, which
    is computed by the oracle when not given.
    """
    if answer.kind is not TASK_SPECS[task].answer_kind:
        return False
    if task is Task.MST:
        return validate_spanning_tree(g, answer.value)
    if task is Task.TOPOLOGICAL_SORT:
        return validate_topo_order(g, answer.value)
    return answer == (gold_answer(task, g, query) if gold is None else gold)
