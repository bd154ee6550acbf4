"""Graph value type and the seeded random generators the benchmark is built on.

Randomness contract: every draw goes through the Mersenne Twister behind
``random.Random`` and consumes only ``random()`` calls, whose output stream
for a given seed is guaranteed stable across CPython versions.  Child seeds
are split off a master seed with SHA-256, so regenerating any instance is
independent of generation order.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .tasks import Task

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """An unweighted graph over nodes 0..n-1 with a canonical edge set.

    Undirected edges are stored as (u, v) with u < v and no duplicates.
    Directed graphs keep edge tuples as given; the DAG generator only ever
    emits edges oriented from the lower label to the higher one.
    """

    n: int
    edges: frozenset[Edge]
    directed: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"node count must be positive, got {self.n}")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
            if not self.directed and u > v:
                raise ValueError(f"undirected edge ({u}, {v}) not canonical (need u < v)")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]], directed: bool = False) -> "Graph":
        """Build a graph, canonicalizing undirected pairs and dropping duplicates."""
        canon: set[Edge] = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if not directed and u > v:
                u, v = v, u
            canon.add((u, v))
        return cls(n=n, edges=frozenset(canon), directed=directed)

    @property
    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    @property
    def edge_count(self) -> int:
        return len(self.edges)


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


def gen_er(cfg: GeneratorConfig, seed: int) -> Graph:
    """Erdős–Rényi G(n, p): n uniform over the bucket, p uniform over p_range,
    each of the n(n-1)/2 candidate edges kept independently with probability p."""
    rng = random.Random(seed)
    n = _uniform_int(rng, cfg.bucket.n_min, cfg.bucket.n_max)
    p = _uniform_p(rng, cfg.p_range)
    edges = set()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
    return Graph(n=n, edges=frozenset(edges), directed=False)


def gen_er_dag(cfg: GeneratorConfig, seed: int) -> Graph:
    """ER graph with every edge oriented from the lower label to the higher
    one, which makes the result acyclic by construction."""
    base = gen_er(cfg, seed)
    return Graph(n=base.n, edges=base.edges, directed=True)


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
    left = set(labels[:left_size])
    candidates = sorted(
        (min(u, v), max(u, v)) for u in left for v in range(n) if v not in left
    )
    edges = {pair for pair in candidates if rng.random() < p}
    return Graph(n=n, edges=frozenset(edges), directed=False)
