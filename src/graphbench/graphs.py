"""Graph value type and the seeded random generators the benchmark is built on.

Randomness contract: every draw goes through the Mersenne Twister behind
``random.Random`` and consumes only ``random()`` calls, whose output stream
for a given seed is guaranteed stable across CPython versions.  Child seeds
are split off a master seed with SHA-256, so regenerating any instance is
independent of generation order.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import random
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .tasks import Task

Edge = tuple[int, int]


@dataclass(frozen=True, slots=True)
class Graph:
    """An unweighted graph over nodes 0..n-1.

    ``n`` must be an ``int``, ``directed`` a ``bool`` and each endpoint an
    ``int``; nothing is coerced. ``edges`` is sorted ascending with no pair
    twice; the constructor sorts the pairs it is given, each of which must be
    a tuple. Undirected pairs are stored as (u, v) with u < v, directed ones
    as given (the DAG generator orients each edge low -> high).
    """

    n: int
    edges: tuple[Edge, ...]
    directed: bool = False

    def __post_init__(self) -> None:
        if type(self.n) is not int:
            raise TypeError(f"node count {self.n!r} is not an int")
        if type(self.directed) is not bool:
            raise TypeError(f"directed {self.directed!r} is not a bool")
        if self.n < 1:
            raise ValueError(f"node count must be positive, got {self.n}")
        for pair in self.edges:
            if type(pair) is not tuple:
                raise TypeError(f"edge {pair!r} is not a tuple")
            if any(type(x) is not int for x in pair):
                raise TypeError(f"edge {pair!r} has an endpoint that is not an int")
        edges = tuple(sorted(self.edges))
        for i, (u, v) in enumerate(edges):
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
            if not self.directed and u > v:
                raise ValueError(f"undirected edge ({u}, {v}) not canonical (need u < v)")
            if i and edges[i - 1] == (u, v):
                raise ValueError(f"edge ({u}, {v}) repeated")
        object.__setattr__(self, "edges", edges)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]], directed: bool = False) -> "Graph":
        """Build a graph, canonicalizing undirected pairs and dropping duplicates.
        Endpoints must be ``int`` (not ``bool`` or ``float``); nothing is
        coerced. Every other fault is left to the constructor, which names it."""
        out = set()
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                raise TypeError(f"edge ({u!r}, {v!r}) has an endpoint that is not an int")
            out.add((v, u) if not directed and u > v else (u, v))
        return cls(n=n, edges=out, directed=directed)

    @classmethod
    def _built(cls, n: int, edges: tuple[Edge, ...], directed: bool) -> "Graph":
        """A graph stored without the constructor's checks, for the two callers
        whose ``edges`` are a tuple of distinct int pairs, in range, canonical
        and sorted: the dataset reader, which checks every pair, and the
        generators below, every graph of which the tests check in full."""
        graph = object.__new__(cls)
        object.__setattr__(graph, "n", n)
        object.__setattr__(graph, "edges", edges)
        object.__setattr__(graph, "directed", directed)
        return graph

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def _last_graph_memo(fn):
    """``fn`` with a one-entry memo, ``.last``, keyed by the graph's identity,
    so no call hashes an edge tuple. A graph's queries and instances are
    adjacent in generation and in dataset order, so one entry serves them
    all; it holds the graph, so the identity check is sound."""

    @functools.wraps(fn)
    def memo(graph: Graph):
        held, value = memo.last
        if held is not graph:
            value = fn(graph)
            memo.last = (graph, value)
        return value

    memo.last = (None, None)
    return memo


@dataclass(frozen=True)
class SizeBucket:
    """Inclusive node-count range a generated graph is drawn from."""

    name: str
    n_min: int
    n_max: int

    def __post_init__(self) -> None:
        if self.n_min < 1 or self.n_min > self.n_max:
            raise ValueError(f"bad bucket bounds [{self.n_min}, {self.n_max}]")

    def __str__(self) -> str:
        return self.name


SMALL = SizeBucket("S", 5, 11)
MEDIUM = SizeBucket("M", 11, 21)
LARGE = SizeBucket("L", 21, 51)

BUCKETS: dict[str, SizeBucket] = {b.name: b for b in (SMALL, MEDIUM, LARGE)}
ALL_BUCKETS: tuple[SizeBucket, ...] = (SMALL, MEDIUM, LARGE)


@dataclass(frozen=True)
class GeneratorConfig:
    """Everything a generator needs besides the per-instance seed.

    ``p_range`` is the interval the edge probability is drawn from uniformly;
    the benchmark always uses (0.0, 1.0), tests pin p by collapsing the range.
    """

    bucket: SizeBucket
    p_range: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self) -> None:
        lo, hi = self.p_range
        if not (0.0 <= lo <= hi <= 1.0):
            raise ValueError(f"p_range must satisfy 0 <= lo <= hi <= 1, got {self.p_range}")


# --- seed splitting ---------------------------------------------------------


def derive_seed(master_seed: int, *parts: object) -> int:
    """Collision-resistant 64-bit child seed for a labeled sub-stream."""
    tokens = [str(int(master_seed))]
    for part in parts:
        tokens.append(str(part.value if isinstance(part, Enum) else part))
    digest = hashlib.sha256(":".join(tokens).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_instance_seed(
    master_seed: int, task: Task, bucket: SizeBucket, index: int, stream: str = "eval"
) -> int:
    """Seed for one benchmark instance; distinct triples give distinct seeds.

    ``stream`` separates evaluation instances from exemplar ones so few-shot
    examples can never collide with the graphs being scored.
    """
    if index < 0:
        raise ValueError("index must be non-negative")
    return derive_seed(master_seed, stream, task, bucket.name, index)


# --- stable primitive draws (only rng.random() is consumed) -----------------


def _uniform_int(rng: random.Random, lo: int, hi: int) -> int:
    """Uniform integer in [lo, hi]; min() guards the rare float rounding to hi+1."""
    return min(lo + int(rng.random() * (hi - lo + 1)), hi)


def _uniform_p(rng: random.Random, p_range: tuple[float, float]) -> float:
    lo, hi = p_range
    return lo + rng.random() * (hi - lo)


def _shuffled(rng: random.Random, items: Iterable[int]) -> list[int]:
    """Fisher-Yates shuffle of a copy."""
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = _uniform_int(rng, 0, i)
        out[i], out[j] = out[j], out[i]
    return out


def sample_distinct(rng: random.Random, items: Sequence, k: int) -> list:
    """k distinct elements, drawn without replacement (partial Fisher-Yates)."""
    if k > len(items):
        raise ValueError(f"cannot sample {k} distinct items from {len(items)}")
    pool = list(items)
    for i in range(k):
        j = _uniform_int(rng, i, len(pool) - 1)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


# --- generators -------------------------------------------------------------


#: One tuple per node pair, shared by every pair table and every generated graph.
_PAIRS: dict[Edge, Edge] = {}


@functools.cache
def _pair_table(n: int) -> tuple[Edge, ...]:
    """Every pair (u, v) with u < v < n, u ascending, then v: the order in
    which the generators draw for each pair. Built once per n, on first use."""
    return tuple(_PAIRS.setdefault(pair, pair) for pair in itertools.combinations(range(n), 2))


def gen_er(cfg: GeneratorConfig, seed: int) -> Graph:
    """Erdős–Rényi G(n, p): n uniform over the bucket, p uniform over p_range,
    each of the n(n-1)/2 candidate edges kept independently with probability p."""
    rng = random.Random(seed)
    n = _uniform_int(rng, cfg.bucket.n_min, cfg.bucket.n_max)
    p = _uniform_p(rng, cfg.p_range)
    draw = rng.random
    return Graph._built(n, tuple([pair for pair in _pair_table(n) if draw() < p]), False)


def gen_er_dag(cfg: GeneratorConfig, seed: int) -> Graph:
    """ER graph with every edge oriented from the lower label to the higher
    one, which makes the result acyclic by construction."""
    base = gen_er(cfg, seed)
    return Graph._built(base.n, base.edges, True)


def gen_random_bipartite(cfg: GeneratorConfig, seed: int) -> Graph:
    """Random bipartite graph: nodes split into two nonempty parts, each
    cross-part edge kept with probability p, no within-part edges."""
    rng = random.Random(seed)
    n = _uniform_int(rng, cfg.bucket.n_min, cfg.bucket.n_max)
    if n < 2:
        raise ValueError("bipartite construction needs at least 2 nodes")
    p = _uniform_p(rng, cfg.p_range)
    left_size = _uniform_int(rng, 1, n - 1)
    labels = _shuffled(rng, range(n))
    left = [False] * n
    for u in labels[:left_size]:
        left[u] = True
    cross = [pair for pair in _pair_table(n) if left[pair[0]] != left[pair[1]]]
    draw = rng.random
    return Graph._built(n, tuple([pair for pair in cross if draw() < p]), False)
