"""Benchmark assembly and JSONL persistence.

Counting rules: 7 graph-level tasks x 3 buckets x 100 graphs = 2,100
instances; node degree and neighbors add 2 x 3 x 100 x 5 = 3,000; shortest
path adds 3 x 100 x 5 = 1,500; 6,600 in total.

Persistence: ``_instance_line`` is the one serializer and ``content_digest``
the one loop that hashes its lines. ``save_dataset`` writes each line from
that loop as it is hashed, so a saved dataset is serialized once and its
digest describes the bytes on disk. ``write_dataset`` feeds it the cells as
they are built, so generating holds one cell's instances at a time. Each
graph's ``"graph"`` object is encoded once for its run of adjacent instances
and joined into each of their lines. ``load_dataset`` reads only that layout
and undoes the join (``_split_line``), reading a run of identical ``"graph"``
texts once, without a JSON parse (``_read_graph``).
"""
from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import operator
import os
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

from . import oracles
from .graphs import (
    ALL_BUCKETS,
    BUCKETS,
    Edge,
    GeneratorConfig,
    Graph,
    SizeBucket,
    _last_graph_memo,
    derive_instance_seed,
    derive_seed,
    gen_er,
    gen_er_dag,
    gen_random_bipartite,
    sample_distinct,
)
from .oracles import Answer
from .tasks import ALL_TASKS, KIND_SPECS, QUERIES_PER_GRAPH, TASK_SPECS, AnswerKind, Task

SCHEMA_VERSION = 1
GENERATOR_VERSION = "1.0"
DIGEST_ALGORITHM = "sha256 over newline-terminated instance JSON lines"
#: The header's ``kind``: a file with another kind is not a dataset.
DATASET_KIND = "graphbench-dataset"

#: Default number of graphs generated per (task, bucket) cell.
GRAPHS_PER_CELL = 100


class DatasetFormatError(ValueError):
    """Raised for schema mismatches and corrupt dataset lines."""


@dataclass(frozen=True)
class TaskInstance:
    """One benchmark question: a graph, optional query nodes, and its gold answer.

    Slotted by hand, since ``dataclass(slots=True)`` cannot add a
    ``__weakref__`` slot before Python 3.11; instances stay weak-referenceable.
    """

    __slots__ = ("id", "task", "bucket", "graph", "query", "gold", "seed", "__weakref__")

    id: str
    task: Task
    bucket: SizeBucket
    graph: Graph
    query: tuple[int, ...]
    gold: Answer
    seed: int

    @classmethod
    def from_json_obj(cls, obj: dict, graph: Graph) -> "TaskInstance":
        """Inverse of ``_instance_line``, given the line's members other than
        ``"graph"`` and the ``Graph`` built from its ``"graph"`` object."""
        task = Task(obj["task"])
        query = tuple(obj["query"])
        if any(type(node) is not int for node in query):
            raise TypeError(f"query {list(query)} has a node that is not an int")
        if type(obj["id"]) is not str:
            raise TypeError(f"id {obj['id']!r} is not a string")
        if type(obj["seed"]) is not int:
            raise TypeError(f"seed {obj['seed']!r} is not an int")
        if len(query) != TASK_SPECS[task].arity:
            raise ValueError(f"{task.value} query {list(query)} has arity {len(query)}, "
                             f"expected {TASK_SPECS[task].arity}")
        return cls(
            id=obj["id"],
            task=task,
            bucket=_stored_bucket(obj["bucket"]),
            graph=graph,
            query=query,
            gold=answer_from_json(obj["gold"]),
            seed=obj["seed"],
        )

    def __reduce__(self):
        # Copy and pickle rebuild through __init__: the default restore of
        # slot state would assign to the frozen fields.
        return (type(self), (self.id, self.task, self.bucket, self.graph, self.query, self.gold,
                             self.seed))


def _stored_bucket(stored: dict) -> SizeBucket:
    """The bucket a line stores, a str name and two int bounds. A standard
    name (S, M, L) must come with its standard bounds, and the loaded
    instances share that bucket; any other name is a new bucket."""
    name, n_min, n_max = stored["name"], stored["n_min"], stored["n_max"]
    if type(name) is not str or type(n_min) is not int or type(n_max) is not int:
        raise TypeError(f"bucket {stored!r} is not a str name and two int bounds")
    standard = BUCKETS.get(name)
    if standard is None:
        return SizeBucket(name, n_min, n_max)
    if (standard.n_min, standard.n_max) != (n_min, n_max):
        raise ValueError(f"bucket {name} has bounds [{n_min}, {n_max}], "
                         f"not its standard [{standard.n_min}, {standard.n_max}]")
    return standard


def answer_to_json(answer: Answer) -> dict:
    return {"kind": answer.kind.value, "value": answer.listed()}


def answer_from_json(obj: dict) -> Answer:
    """Inverse of ``answer_to_json``. The value must be of its kind's JSON
    type: the scalar itself, a list of labels or a list of two-label lists.
    Nothing is coerced: an int is not a bool or a float."""
    kind = AnswerKind(obj["kind"])
    value, spec = obj["value"], KIND_SPECS[kind]
    # Each label must be of the scalar type; a part of the wrong shape is None.
    if not spec.labels:
        labels = [value]
    else:
        labels = value if type(value) is list else [None]
    if spec.labels == 2:
        labels = [u for e in labels for u in (e if type(e) is list and len(e) == 2 else [None])]
    if any(type(u) is not spec.scalar for u in labels):
        raise TypeError(f"{kind.value} gold {value!r} is not {spec.json_type}")
    return Answer.of(kind, value)


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


# _graph_for_instance counts the pairs of the shortest-path graph it accepts,
# and _queries_for_instance draws from them next; one entry serves both.
@_last_graph_memo
def _same_component_pairs(g: Graph) -> tuple[tuple[int, int], ...]:
    """All unordered pairs of distinct nodes in one component, sorted."""
    parent = list(range(g.n))
    oracles._merge(parent, g.edges)
    members: dict[int, list[int]] = {}
    for x in range(g.n):
        root = x
        while parent[root] != root:
            root = parent[root]
        members.setdefault(root, []).append(x)
    return tuple(sorted(pair for nodes in members.values()
                        for pair in itertools.combinations(nodes, 2)))


def _queries_for_instance(task: Task, g: Graph, instance_seed: int) -> list[tuple[int, ...]]:
    """Query arguments drawn from the graph: none, 5 distinct nodes, or 5
    distinct same-component pairs (endpoints always distinct)."""
    arity = TASK_SPECS[task].arity
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


def _dataset(
    master_seed: int, tasks: Sequence[Task], buckets: Sequence[SizeBucket], graphs_per_cell: int
) -> tuple[DatasetManifest, Iterator[TaskInstance]]:
    """The manifest, without its digest, and the loop that yields the dataset
    one (task, bucket) cell at a time; each cell's count and cycle-check prior
    enter the manifest as the cell is built, and only that cell is held."""
    manifest = DatasetManifest(master_seed=master_seed, generator_version=GENERATOR_VERSION,
                               counts={}, total=0, content_digest="")

    def cells() -> Iterator[TaskInstance]:
        for task in tasks:
            counts = manifest.counts[task.value] = {}
            for bucket in buckets:
                cell = build_instances(task, bucket, master_seed, graphs_per_cell)
                counts[bucket.name] = len(cell)
                manifest.total += len(cell)
                if task is Task.CYCLE_CHECK:
                    yes = sum(1 for inst in cell if inst.gold.value)
                    manifest.cycle_check_prior[bucket.name] = {
                        "true": yes, "false": len(cell) - yes}
                yield from cell

    return manifest, cells()


def write_dataset(
    path: str | Path,
    master_seed: int,
    tasks: Sequence[Task] = ALL_TASKS,
    buckets: Sequence[SizeBucket] = ALL_BUCKETS,
    graphs_per_cell: int = GRAPHS_PER_CELL,
) -> DatasetManifest:
    """Generate the benchmark for a master seed and save it to ``path``.

    Each cell is built, written and hashed before the next is built, so no
    more than one cell's instances are held; the manifest's digest is taken
    from the lines as they are written."""
    manifest, cells = _dataset(master_seed, tasks, buckets, graphs_per_cell)
    manifest.content_digest = save_dataset(cells, path)
    return manifest


def assemble_dataset(
    master_seed: int,
    tasks: Sequence[Task] = ALL_TASKS,
    buckets: Sequence[SizeBucket] = ALL_BUCKETS,
    graphs_per_cell: int = GRAPHS_PER_CELL,
) -> tuple[DatasetManifest, list[TaskInstance]]:
    """Generate the whole benchmark for a master seed, in memory; fully
    deterministic, and the same manifest as ``write_dataset``'s."""
    manifest, cells = _dataset(master_seed, tasks, buckets, graphs_per_cell)
    instances = list(cells)
    manifest.content_digest = content_digest(instances)
    return manifest, instances


# --- persistence --------------------------------------------------------------


#: A JSON string literal, escaped as ``json.dumps`` escapes it by default.
_escape = json.encoder.encode_basestring_ascii


class PairText(dict):
    """Text of each edge pair (u, v), formatted as ``fmt % (u + base, v + base)``.

    Filled on first use and kept for the process: every graph of every
    bucket draws its pairs from the same n_max² node pairs, so the table stays
    small while each edge list becomes lookups instead of formatting.
    """

    def __init__(self, fmt: str, base: int = 0):
        super().__init__()
        self.fmt, self.base = fmt, base

    def __missing__(self, edge: Edge) -> str:
        u, v = edge
        text = self[edge] = self.fmt % (u + self.base, v + self.base)
        return text


_PAIR_JSON = PairText("[%d,%d]")


@_last_graph_memo
def _graph_json(graph: Graph) -> str:
    """The graph's ``directed``, ``edges`` and ``n`` as a sorted-key, compact
    JSON object, joined from the cached texts of its pairs."""
    edges = ",".join(map(_PAIR_JSON.__getitem__, graph.edges))
    directed = "true" if graph.directed else "false"
    return f'{{"directed":{directed},"edges":[{edges}],"n":{graph.n}}}'


def _gold_json(gold: Answer) -> str:
    """The gold's value as compact JSON, the value ``answer_to_json`` gives,
    joined from the cached texts of its pairs."""
    labels = KIND_SPECS[gold.kind].labels
    if not labels:
        return str(gold.value).lower()  # an int's digits, or true or false
    text = str if labels == 1 else _PAIR_JSON.__getitem__
    return f"[{','.join(map(text, gold.listed()))}]"


def _instance_line(inst: TaskInstance) -> str:
    """The instance as one sorted-key, compact JSON object, written member by
    member: ``bucket``, ``gold``, ``graph``, ``id``, ``query``, ``seed`` and
    ``task``. Only the bucket name and the id are free text; the task and
    answer kind are fixed identifiers that need no escaping."""
    bucket, gold = inst.bucket, inst.gold
    return (f'{{"bucket":{{"n_max":{bucket.n_max},"n_min":{bucket.n_min},'
            f'"name":{_escape(bucket.name)}}},"gold":{{"kind":"{gold.kind.value}",'
            f'"value":{_gold_json(gold)}}},"graph":{_graph_json(inst.graph)},'
            f'"id":{_escape(inst.id)},"query":[{",".join(map(str, inst.query))}],'
            f'"seed":{inst.seed},"task":"{inst.task.value}"}}')


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


@contextlib.contextmanager
def _replacing(path: str | Path) -> Iterator[TextIO]:
    """A temporary text file beside ``path`` that replaces ``path`` once the
    block returns. If anything raises first, such as an interrupt, it is
    removed and a file already at ``path`` keeps its bytes."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with partial.open("w", encoding="utf-8") as f:
            yield f
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def save_dataset(instances: Iterable[TaskInstance], path: str | Path) -> str:
    """Write header line plus one JSON line per instance, replacing ``path``
    only once every line is written; return the content digest."""
    with _replacing(path) as f:
        f.write(json.dumps({"schema_version": SCHEMA_VERSION, "kind": DATASET_KIND}) + "\n")
        digest = content_digest(instances, f)
    return digest


_GRAPH_MEMBER = ',"graph":{'

#: ``_graph_json``'s text up to the first pair, and the ``directed`` it stores.
_GRAPH_HEADS = {'{"directed":false,"edges":[': False, '{"directed":true,"edges":[': True}


def _label(text: str, what: str, least: int = 0) -> int:
    """``text`` as an int, if ``json`` writes it so in at most nine digits (no
    sign, no leading zero, nothing but ASCII digits) and it is at least
    ``least``; else ``ValueError`` naming ``what``."""
    if (0 < len(text) <= 9 and text.isascii() and text.isdigit()
            and (text[0] != "0" or text == "0") and int(text) >= least):
        return int(text)
    raise ValueError(f"{what} {text!r} is not an int {least}..999999999 with no sign or leading 0")


class _PairRows(dict):
    """One load's table from a stored pair's text, ``"u,v"``, to a row: the
    pair; ``u << 30 | v``, which orders rows as their pairs order, since a
    label is below ``10**9 < 2**30``; the high endpoint; and whether u < v.
    Filled on a miss once the text is checked to be two distinct labels
    (``_label``), so each distinct pair is one tuple for the load."""

    def __missing__(self, text: str) -> tuple[Edge, int, int, bool]:
        u, v = (_label(end, f"edge [{text}] endpoint") for end in text.partition(",")[::2])
        if u == v:
            raise ValueError(f"edge [{text}] is a self-loop")
        row = self[text] = ((u, v), u << 30 | v, max(u, v), u < v)
        return row


def _read_graph(text: str, rows: _PairRows) -> Graph:
    """The graph stored in ``text``, a ``"graph"`` object as ``_split_line``
    cuts it, laid out exactly as ``_graph_json`` writes it: ``{"directed":
    false|true,"edges":[[u,v],...],"n":N}`` with each int a label (``_label``),
    u != v and u < v if undirected, the pairs strictly ascending and each
    endpoint below N; else ``ValueError`` naming the part and quoting it."""
    head, bracket, rest = text.partition("[")
    directed = _GRAPH_HEADS.get(head + bracket)
    if directed is None:
        raise ValueError(f"graph head {head + bracket!r} is not one save_dataset writes")
    body, sep, n = rest.rpartition('],"n":')
    if not sep or n[-1:] != "}":
        raise ValueError('graph does not end with "n" after its edges')
    n = _label(n[:-1], "node count", least=1)
    if not body:
        return Graph._built(n, (), directed)
    if body[0] != "[" or body[-1] != "]":
        raise ValueError(f"graph edges {body[:8]!r}... are not a list of [u,v] pairs")
    edges, ranks, highs, ascending = zip(*map(rows.__getitem__, body[1:-1].split("],[")))
    if (high := max(highs)) >= n:
        raise ValueError(f"edge {_PAIR_JSON[edges[highs.index(high)]]} out of range for n={n}")
    if not all(map(operator.lt, ranks, ranks[1:])):
        i = next(i for i, (a, b) in enumerate(zip(ranks, ranks[1:])) if a >= b)
        raise ValueError(f"edges {_PAIR_JSON[edges[i]]},{_PAIR_JSON[edges[i + 1]]} do not ascend")
    if not (directed or all(ascending)):
        pair = edges[ascending.index(False)]
        raise ValueError(f"undirected edge {_PAIR_JSON[pair]} is not written as u < v")
    return Graph._built(n, edges, directed)


def _split_line(line: str) -> tuple[dict, str]:
    """The line's members other than ``"graph"``, and the text of its
    ``"graph"`` object; ``ValueError`` unless the line is laid out as
    ``_instance_line`` writes it.

    The cut is at the first ``,"graph":{`` and the first ``}`` after it, which
    closes a stored graph, since it holds only lists and numbers. The parts
    on either side must parse as objects with exactly ``_instance_line``'s
    other members."""
    i = line.find(_GRAPH_MEMBER)
    j = line.find("}", i + len(_GRAPH_MEMBER))
    if i >= 0 and j >= 0 and line[j + 1 : j + 2] == ",":
        try:
            obj = json.loads(line[:i] + "}")
            tail = json.loads("{" + line[j + 2 :])
        except json.JSONDecodeError:
            pass
        else:
            if obj.keys() == {"bucket", "gold"} and tail.keys() == {"id", "query", "seed", "task"}:
                obj.update(tail)
                return obj, line[i + len(_GRAPH_MEMBER) - 1 : j + 1]
    raise ValueError("not laid out as save_dataset writes an instance")


def load_dataset(path: str | Path, verify: bool = True) -> list[TaskInstance]:
    """Load a saved dataset.

    Raises DatasetFormatError for a header of another schema version and,
    naming the line, for a header that is not a JSON object or not of
    ``kind`` ``graphbench-dataset``, for a line that is not UTF-8 or is
    corrupt (not laid out as ``_instance_line`` writes it, or with a value
    not of its JSON type), and for an instance id that repeats an earlier
    line's, naming both lines.
    verify: re-check every gold answer by the scoring rule, ``is_right_answer``.

    Each line is parsed around its ``"graph"`` text (``_split_line``), which
    is read (``_read_graph``) only when it differs from the previous line's:
    a byte-identical text reuses the previous line's ``Graph``, so a graph's
    adjacent instances share one, as after ``build_instances``. An endpoint
    spelled ``true`` is another text, so it is rejected even next to a line
    that stores the int. Each distinct edge pair is one tuple shared by
    every graph of this load.
    """
    path = Path(path)
    instances: list[TaskInstance] = []
    lines_by_id: dict[str, int] = {}
    rows = _PairRows()
    text, graph = None, None
    try:
        with path.open("r", encoding="utf-8") as f:
            header_line = f.readline()
            try:
                header = json.loads(header_line)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"line 1: unreadable header: {exc}") from exc
            if not isinstance(header, dict):
                raise DatasetFormatError("line 1: header is not a JSON object")
            if header.get("kind") != DATASET_KIND:
                raise DatasetFormatError(
                    f"line 1: header kind {header.get('kind')!r} is not {DATASET_KIND!r}")
            if header.get("schema_version") != SCHEMA_VERSION:
                raise DatasetFormatError(
                    f"schema version mismatch: file has {header.get('schema_version')!r}, "
                    f"expected {SCHEMA_VERSION}")
            for lineno, line in enumerate(f, start=2):
                if not line.strip():
                    continue
                try:
                    obj, graph_text = _split_line(line)
                    if graph_text != text:
                        text, graph = graph_text, _read_graph(graph_text, rows)
                    inst = TaskInstance.from_json_obj(obj, graph)
                except (KeyError, TypeError, ValueError) as exc:
                    raise DatasetFormatError(f"line {lineno}: corrupt instance: {exc}") from exc
                first = lines_by_id.setdefault(inst.id, lineno)
                if first != lineno:
                    raise DatasetFormatError(
                        f"line {lineno}: instance id {inst.id!r} repeats line {first}")
                instances.append(inst)
    except UnicodeDecodeError as exc:
        # Only a line of UTF-8 comes back byte for byte from a replacing decode.
        lines = enumerate(path.read_bytes().splitlines(), start=1)
        lineno = next(n for n, raw in lines if raw.decode("utf-8", "replace").encode() != raw)
        raise DatasetFormatError(f"line {lineno}: not UTF-8: {exc.reason}") from exc
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
    """Write the manifest; like ``save_dataset``, replace ``path`` whole or not at all."""
    with _replacing(path) as f:
        f.write(json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n")


def load_manifest(path: str | Path) -> DatasetManifest:
    return DatasetManifest(**json.loads(Path(path).read_text(encoding="utf-8")))
