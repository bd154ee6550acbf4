"""Benchmark assembly and JSONL persistence.

Counting rules: 7 graph-level tasks x 3 buckets x 100 graphs = 2,100
instances; node degree and neighbors add 2 x 3 x 100 x 5 = 3,000; shortest
path adds 3 x 100 x 5 = 1,500; 6,600 in total.

Persistence: ``_instance_line`` is the one serializer and ``content_digest``
the one loop that hashes its lines. ``save_dataset`` writes each line from
that loop as it is hashed, so a saved dataset is serialized once and its
digest describes the bytes on disk.
"""
from __future__ import annotations

import gc
import hashlib
import json
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Sequence, TextIO

from . import oracles
from .graphs import (
    ALL_BUCKETS,
    GeneratorConfig,
    Graph,
    SizeBucket,
    derive_instance_seed,
    derive_seed,
    gen_er,
    gen_er_dag,
    gen_random_bipartite,
    sample_distinct,
)
from .oracles import Answer, AnswerKind
from .tasks import ALL_TASKS, QUERIES_PER_GRAPH, Task, query_arity

SCHEMA_VERSION = 1
GENERATOR_VERSION = "1.0"
DIGEST_ALGORITHM = "sha256 over newline-terminated instance JSON lines"

#: Default number of graphs generated per (task, bucket) cell.
GRAPHS_PER_CELL = 100


class DatasetFormatError(ValueError):
    """Raised for schema mismatches and corrupt dataset lines."""


@dataclass(frozen=True)
class TaskInstance:
    """One benchmark question: a graph, optional query nodes, and its gold answer."""

    id: str
    task: Task
    bucket: SizeBucket
    graph: Graph
    query: tuple[int, ...]
    gold: Answer
    seed: int

    def to_json_obj(self) -> dict:
        return {
            "id": self.id,
            "task": self.task.value,
            "bucket": {"name": self.bucket.name, "n_min": self.bucket.n_min, "n_max": self.bucket.n_max},
            "graph": {
                "n": self.graph.n,
                "edges": [list(e) for e in self.graph.sorted_edges],
                "directed": self.graph.directed,
            },
            "query": list(self.query),
            "gold": answer_to_json(self.gold),
            "seed": self.seed,
        }

    @classmethod
    def from_json_obj(cls, obj: dict, graphs: dict | None = None) -> "TaskInstance":
        """Inverse of ``to_json_obj``.

        ``graphs`` memoizes graphs by their stored form, so instances whose
        stored graphs are equal share one ``Graph``; pass one dict per load.
        """
        bucket = obj["bucket"]
        stored = obj["graph"]
        if graphs is None:
            graphs = {}
        key = (stored["n"], stored["directed"], tuple(map(tuple, stored["edges"])))
        graph = graphs.get(key)
        if graph is None:
            graph = graphs[key] = Graph.from_edges(stored["n"], stored["edges"], stored["directed"])
        task = Task(obj["task"])
        query = tuple(obj["query"])
        if len(query) != query_arity(task):
            raise ValueError(f"{task.value} query {list(query)} has arity {len(query)}, "
                             f"expected {query_arity(task)}")
        return cls(
            id=obj["id"],
            task=task,
            bucket=SizeBucket(bucket["name"], bucket["n_min"], bucket["n_max"]),
            graph=graph,
            query=query,
            gold=answer_from_json(obj["gold"]),
            seed=obj["seed"],
        )


def answer_to_json(answer: Answer) -> dict:
    value = answer.value
    if answer.kind is AnswerKind.NODE_SET:
        value = sorted(value)
    elif answer.kind is AnswerKind.NODE_SEQ:
        value = list(value)
    elif answer.kind is AnswerKind.EDGE_SET:
        value = [list(e) for e in sorted(value)]
    return {"kind": answer.kind.value, "value": value}


def answer_from_json(obj: dict) -> Answer:
    kind = AnswerKind(obj["kind"])
    value = obj["value"]
    if kind is AnswerKind.INT:
        return Answer.integer(value)
    if kind is AnswerKind.BOOL:
        return Answer.boolean(value)
    if kind is AnswerKind.NODE_SET:
        return Answer.node_set(value)
    if kind is AnswerKind.NODE_SEQ:
        return Answer.node_seq(value)
    return Answer.edge_set(value)


@dataclass
class DatasetManifest:
    """Reproducibility record for one generated dataset."""

    master_seed: int
    generator_version: str
    counts: dict[str, dict[str, int]]
    total: int
    content_digest: str
    digest_algorithm: str = DIGEST_ALGORITHM
    schema_version: int = SCHEMA_VERSION
    #: Realized yes/no class balance of cycle-check instances per bucket.
    cycle_check_prior: dict[str, dict[str, int]] = field(default_factory=dict)


# --- graph construction per task ---------------------------------------------

_MAX_ATTEMPTS = 10_000


def _graph_for_instance(task: Task, bucket: SizeBucket, instance_seed: int) -> Graph:
    """Generate the graph for one instance, honoring per-task constraints.

    MST graphs are regenerated until connected (a spanning tree must exist);
    shortest-path graphs until at least QUERIES_PER_GRAPH distinct
    same-component pairs exist; bipartite-check draws its construction from
    {ER, random bipartite} by fair coin.
    """
    cfg = GeneratorConfig(bucket=bucket)
    if task is Task.TOPOLOGICAL_SORT:
        return gen_er_dag(cfg, derive_seed(instance_seed, "graph", 0))
    if task is Task.BIPARTITE_CHECK:
        coin = random.Random(derive_seed(instance_seed, "mixture")).random()
        generate = gen_er if coin < 0.5 else gen_random_bipartite
        return generate(cfg, derive_seed(instance_seed, "graph", 0))
    if task is Task.MST:
        for attempt in range(_MAX_ATTEMPTS):
            g = gen_er(cfg, derive_seed(instance_seed, "graph", attempt))
            if oracles.connected_components(g) == 1:
                return g
        raise RuntimeError("no connected graph found")  # pragma: no cover
    if task is Task.SHORTEST_PATH:
        for attempt in range(_MAX_ATTEMPTS):
            g = gen_er(cfg, derive_seed(instance_seed, "graph", attempt))
            if len(_same_component_pairs(g)) >= QUERIES_PER_GRAPH:
                return g
        raise RuntimeError("no graph with enough reachable pairs found")  # pragma: no cover
    return gen_er(cfg, derive_seed(instance_seed, "graph", 0))


def _same_component_pairs(g: Graph) -> list[tuple[int, int]]:
    """All unordered pairs of distinct nodes in one component, sorted."""
    uf = oracles._UnionFind(g.n)
    for u, v in g.edges:
        uf.union(u, v)
    members: dict[int, list[int]] = {}
    for x in range(g.n):
        members.setdefault(uf.find(x), []).append(x)
    pairs = []
    for nodes in members.values():
        for i, u in enumerate(nodes):
            for v in nodes[i + 1 :]:
                pairs.append((u, v))
    return sorted(pairs)


def _queries_for_instance(task: Task, g: Graph, instance_seed: int) -> list[tuple[int, ...]]:
    """Query arguments drawn from the graph: none, 5 distinct nodes, or 5
    distinct same-component pairs (endpoints always distinct)."""
    arity = query_arity(task)
    if arity == 0:
        return [()]
    rng = random.Random(derive_seed(instance_seed, "query"))
    if arity == 1:
        return [(u,) for u in sample_distinct(rng, range(g.n), QUERIES_PER_GRAPH)]
    pairs = _same_component_pairs(g)
    return [tuple(p) for p in sample_distinct(rng, pairs, QUERIES_PER_GRAPH)]


def build_instances(
    task: Task,
    bucket: SizeBucket,
    master_seed: int,
    graph_count: int = GRAPHS_PER_CELL,
    stream: str = "eval",
) -> list[TaskInstance]:
    """All instances of one (task, bucket) cell.

    ``stream`` namespaces the seed derivation; exemplar rendering uses its own
    stream so its graphs are disjoint from the evaluation set.
    """
    instances = []
    prefix = "" if stream == "eval" else f"{stream}-"
    for gi in range(graph_count):
        instance_seed = derive_instance_seed(master_seed, task, bucket, gi, stream=stream)
        g = _graph_for_instance(task, bucket, instance_seed)
        for qi, query in enumerate(_queries_for_instance(task, g, instance_seed)):
            instances.append(
                TaskInstance(
                    id=f"{prefix}{task.value}-{bucket.name}-{gi:03d}-{qi}",
                    task=task,
                    bucket=bucket,
                    graph=g,
                    query=query,
                    gold=oracles.gold_answer(task, g, query),
                    seed=instance_seed,
                )
            )
    return instances


def assemble_dataset(
    master_seed: int,
    tasks: Sequence[Task] = ALL_TASKS,
    buckets: Sequence[SizeBucket] = ALL_BUCKETS,
    graphs_per_cell: int = GRAPHS_PER_CELL,
    out: str | Path | None = None,
) -> tuple[DatasetManifest, list[TaskInstance]]:
    """Generate the whole benchmark for a master seed; fully deterministic.

    With ``out``, the dataset is also saved there, and the manifest's digest is
    taken from the lines as they are written.
    """
    instances: list[TaskInstance] = []
    counts: dict[str, dict[str, int]] = {}
    prior: dict[str, dict[str, int]] = {}
    for task in tasks:
        counts[task.value] = {}
        for bucket in buckets:
            cell = build_instances(task, bucket, master_seed, graphs_per_cell)
            counts[task.value][bucket.name] = len(cell)
            instances.extend(cell)
            if task is Task.CYCLE_CHECK:
                yes = sum(1 for inst in cell if inst.gold.value)
                prior[bucket.name] = {"true": yes, "false": len(cell) - yes}
    manifest = DatasetManifest(
        master_seed=master_seed,
        generator_version=GENERATOR_VERSION,
        counts=counts,
        total=len(instances),
        content_digest=content_digest(instances) if out is None else save_dataset(instances, out),
        cycle_check_prior=prior,
    )
    return manifest, instances


# --- persistence --------------------------------------------------------------


def _instance_line(inst: TaskInstance) -> str:
    return json.dumps(inst.to_json_obj(), sort_keys=True, separators=(",", ":"))


def content_digest(instances: Iterable[TaskInstance], out: TextIO | None = None) -> str:
    """Digest of the dataset content, identical to the digest of a saved file's
    instance lines; with ``out``, each line is also written there as it is hashed."""
    h = hashlib.sha256()
    for inst in instances:
        line = _instance_line(inst) + "\n"
        h.update(line.encode("utf-8"))
        if out is not None:
            out.write(line)
    return h.hexdigest()


def save_dataset(instances: Iterable[TaskInstance], path: str | Path) -> str:
    """Write header line plus one JSON line per instance; return the content digest."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as f:
        f.write(json.dumps({"schema_version": SCHEMA_VERSION, "kind": "graphbench-dataset"}) + "\n")
        return content_digest(instances, f)


def load_dataset(path: str | Path, verify: bool = True) -> list[TaskInstance]:
    """Load a saved dataset.

    Raises DatasetFormatError for a header of another schema version and,
    naming the line, for a header that is not a JSON object or a corrupt line.
    verify: re-check every gold answer by the scoring rule, ``is_right_answer``.

    Instances whose stored graphs are equal share one immutable ``Graph``, as
    they do straight after ``build_instances``.

    The parse makes hundreds of thousands of objects and no reference cycles,
    yet every later cyclic collection would walk them all. So when the
    collector is enabled, load collects once (existing cyclic garbage is
    still reclaimed), pauses the collector while it parses, and after a
    successful parse moves every tracked object into the permanent generation
    with ``gc.freeze()``; reference counting still frees the instances when
    they are dropped. The caller inherits this: objects that were live at
    load time are no longer cyclically collected until ``gc.unfreeze()``.
    The collector's prior state is restored before gold verification runs,
    also when a line is corrupt. With the collector off, load neither
    collects nor freezes.
    """
    path = Path(path)
    instances: list[TaskInstance] = []
    graphs: dict = {}
    with path.open("r", encoding="utf-8") as f:
        header_line = f.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"line 1: unreadable header: {exc}") from exc
        if not isinstance(header, dict):
            raise DatasetFormatError("line 1: header is not a JSON object")
        if header.get("schema_version") != SCHEMA_VERSION:
            raise DatasetFormatError(
                f"schema version mismatch: file has {header.get('schema_version')!r}, "
                f"expected {SCHEMA_VERSION}"
            )
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.collect()
        gc.disable()
        try:
            for lineno, line in enumerate(f, start=2):
                if not line.strip():
                    continue
                try:
                    instances.append(TaskInstance.from_json_obj(json.loads(line), graphs))
                except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                    raise DatasetFormatError(f"line {lineno}: corrupt instance: {exc}") from exc
            if gc_was_enabled:
                # Before re-enabling: the freeze also resets the allocation
                # count that would otherwise start a collection at once.
                gc.freeze()
        finally:
            if gc_was_enabled:
                gc.enable()
    if verify:
        verify_gold_answers(instances)
    return instances


def verify_gold_answers(instances: Iterable[TaskInstance]) -> None:
    """Check each stored gold by the rule that scores answers; raise on a
    wrong gold or a query the oracle rejects, naming the instance."""
    for inst in instances:
        try:
            ok = oracles.is_right_answer(inst.task, inst.graph, inst.query, inst.gold)
        except oracles.OracleError as exc:
            raise DatasetFormatError(f"instance {inst.id}: {exc}") from exc
        if not ok:
            raise DatasetFormatError(f"instance {inst.id}: stored gold fails verification")


def save_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    Path(path).write_text(json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_manifest(path: str | Path) -> DatasetManifest:
    return DatasetManifest(**json.loads(Path(path).read_text(encoding="utf-8")))


def instances_by_id(instances: Iterable[TaskInstance]) -> dict[str, TaskInstance]:
    return {inst.id: inst for inst in instances}
