import dataclasses
import gc
import hashlib
import json
import random
import re
import tracemalloc
import weakref

import pytest

from graphbench import (
    ALL_BUCKETS,
    ALL_TASKS,
    DatasetFormatError,
    Graph,
    MEDIUM,
    SMALL,
    TASK_SPECS,
    Task,
    assemble_dataset,
    build_instances,
    connected_components,
    content_digest,
    gold_answer,
    instances_by_id,
    is_bipartite,
    load_dataset,
    load_manifest,
    save_dataset,
    save_manifest,
    topo_order,
    verify_gold_answers,
    write_dataset,
)
import graphbench.dataset as ds
from graphbench.dataset import TaskInstance, _graph_for_instance, answer_to_json
from graphbench.graphs import SizeBucket, derive_instance_seed
from graphbench.oracles import Answer, spanning_forest

from conftest import instance_line


def small_cell(task, graphs=10, seed=0):
    return build_instances(task, SMALL, master_seed=seed, graph_count=graphs)


# --- counting ---------------------------------------------------------------------


def test_cell_sizes():
    assert len(small_cell(Task.CYCLE_CHECK)) == 10
    assert len(small_cell(Task.NODE_DEGREE)) == 50
    assert len(small_cell(Task.SHORTEST_PATH)) == 50


def test_full_partition_small_scale():
    manifest, instances = assemble_dataset(0, graphs_per_cell=5)
    graph_level = sum(1 for i in instances if TASK_SPECS[i.task].arity == 0)
    node_level = sum(1 for i in instances if TASK_SPECS[i.task].arity == 1)
    pair_level = sum(1 for i in instances if i.task is Task.SHORTEST_PATH)
    assert graph_level == 7 * 3 * 5
    assert node_level == 2 * 3 * 5 * 5
    assert pair_level == 3 * 5 * 5
    assert manifest.total == len(instances) == graph_level + node_level + pair_level


def test_ids_unique_and_structured():
    manifest, instances = assemble_dataset(0, graphs_per_cell=3)
    ids = [i.id for i in instances]
    assert len(set(ids)) == len(ids)
    inst = instances[0]
    assert inst.id == f"{inst.task.value}-{inst.bucket.name}-000-0"


# --- determinism ------------------------------------------------------------------


def test_build_instances_reproducible():
    assert small_cell(Task.MST, 5) == small_cell(Task.MST, 5)


def test_content_digest_stable_and_seed_sensitive():
    m1, _ = assemble_dataset(0, graphs_per_cell=2)
    m2, _ = assemble_dataset(0, graphs_per_cell=2)
    m3, _ = assemble_dataset(1, graphs_per_cell=2)
    assert m1.content_digest == m2.content_digest
    assert m1.content_digest != m3.content_digest


def test_instance_graph_regenerable_out_of_order():
    # The graph of instance #7 can be rebuilt alone, without generating 0..6.
    cell = small_cell(Task.CYCLE_CHECK, 8)
    seed = derive_instance_seed(0, Task.CYCLE_CHECK, SMALL, 7)
    assert _graph_for_instance(Task.CYCLE_CHECK, SMALL, seed) == cell[7].graph


# --- per-task construction constraints ----------------------------------------------


def test_mst_graphs_connected():
    for inst in small_cell(Task.MST, 20):
        assert connected_components(inst.graph) == 1


def test_shortest_path_queries_reachable_and_distinct():
    for task in (Task.SHORTEST_PATH,):
        by_graph = {}
        for inst in small_cell(task, 10):
            u, v = inst.query
            assert u != v
            assert 0 <= u < inst.graph.n and 0 <= v < inst.graph.n
            assert inst.gold.value >= 1
            by_graph.setdefault(inst.id.rsplit("-", 1)[0], []).append(inst.query)
        for queries in by_graph.values():
            assert len(queries) == 5
            assert len(set(queries)) == 5


def test_node_queries_distinct_and_in_range():
    by_graph = {}
    for inst in small_cell(Task.NEIGHBORS, 10):
        (u,) = inst.query
        assert 0 <= u < inst.graph.n
        by_graph.setdefault(inst.id.rsplit("-", 1)[0], []).append(u)
    for nodes in by_graph.values():
        assert len(set(nodes)) == 5


def test_topological_graphs_are_dags():
    for inst in small_cell(Task.TOPOLOGICAL_SORT, 20):
        assert inst.graph.directed
        topo_order(inst.graph)  # raises if cyclic


def test_bipartite_cell_mixes_constructions():
    # Half the graphs come from the bipartite generator, so the cell must
    # contain a healthy share of positives; plain ER of this size is almost
    # never bipartite, so negatives must appear too.
    cell = small_cell(Task.BIPARTITE_CHECK, 100)
    yes = sum(1 for inst in cell if inst.gold.value)
    assert 20 <= yes <= 80
    for inst in cell:
        assert inst.gold.value == is_bipartite(inst.graph)


def test_graph_level_tasks_have_empty_query():
    for task in (t for t in ALL_TASKS if TASK_SPECS[t].arity == 0):
        for inst in small_cell(task, 3):
            assert inst.query == ()


def test_exemplar_stream_disjoint_from_eval():
    eval_cell = small_cell(Task.EDGE_COUNT, 10)
    exemplar_cell = build_instances(Task.EDGE_COUNT, SMALL, 0, graph_count=10, stream="exemplar")
    assert all(i.id.startswith("exemplar-") for i in exemplar_cell)
    assert not {i.seed for i in eval_cell} & {i.seed for i in exemplar_cell}


# --- persistence ------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    manifest, instances = assemble_dataset(0, tasks=[Task.MST, Task.NEIGHBORS],
                                           buckets=[SMALL], graphs_per_cell=4)
    path = tmp_path / "data.jsonl"
    save_dataset(instances, path)
    loaded = load_dataset(path)
    assert loaded == instances
    assert content_digest(loaded) == manifest.content_digest


def test_digest_matches_file_lines(tmp_path):
    _, instances = assemble_dataset(0, tasks=[Task.NODE_COUNT], buckets=[SMALL],
                                    graphs_per_cell=3)
    path = tmp_path / "data.jsonl"
    returned = save_dataset(instances, path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)[1:]
    digest = hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()
    assert returned == digest == content_digest(instances)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("tasks, buckets", [
    ([Task.CYCLE_CHECK, Task.SHORTEST_PATH, Task.NODE_COUNT], [MEDIUM, SMALL]),
    (ALL_TASKS, ALL_BUCKETS),
])
def test_write_dataset_agrees_with_assemble_dataset(tmp_path, seed, tasks, buckets):
    path = tmp_path / "data.jsonl"
    written = write_dataset(path, seed, tasks=tasks, buckets=buckets, graphs_per_cell=2)
    assembled, instances = assemble_dataset(seed, tasks=tasks, buckets=buckets,
                                            graphs_per_cell=2)
    for field in dataclasses.fields(ds.DatasetManifest):
        assert getattr(written, field.name) == getattr(assembled, field.name), field.name
    assert written.total == len(instances)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)[1:]
    assert len(lines) == written.total
    assert hashlib.sha256("".join(lines).encode("utf-8")).hexdigest() == written.content_digest


def test_write_dataset_holds_one_cell_at_a_time(tmp_path, monkeypatch):
    """While a cell is built, no instance of a cell two or more back is alive."""
    cells: list[list[weakref.ref]] = []
    build = ds.build_instances

    def tracked(*args, **kwargs):
        for older in cells[:-1]:
            assert all(ref() is None for ref in older), f"cell {cells.index(older)} still alive"
        result = build(*args, **kwargs)
        cells.append([weakref.ref(inst) for inst in result])
        return result

    monkeypatch.setattr(ds, "build_instances", tracked)
    manifest = write_dataset(tmp_path / "data.jsonl", 0, graphs_per_cell=3)
    assert len(cells) == len(ALL_TASKS) * len(ALL_BUCKETS)
    assert manifest.total == sum(len(refs) for refs in cells)


@pytest.mark.parametrize("older", [True, False])
def test_write_dataset_interrupted_partway_leaves_no_partial_file(tmp_path, monkeypatch, older):
    path = tmp_path / "data.jsonl"
    if older:
        write_dataset(path, 1, graphs_per_cell=1)
        before = path.read_bytes()
    build = ds.build_instances
    built = []

    def interrupted(*args, **kwargs):
        if len(built) == 4:  # after several cells' lines were written
            raise KeyboardInterrupt
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(ds, "build_instances", interrupted)
    with pytest.raises(KeyboardInterrupt):
        write_dataset(path, 0, graphs_per_cell=3)
    if older:
        assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == (["data.jsonl"] if older else [])


def test_load_reports_corrupt_line(tmp_path):
    _, instances = assemble_dataset(0, tasks=[Task.NODE_COUNT], buckets=[SMALL],
                                    graphs_per_cell=3)
    path = tmp_path / "data.jsonl"
    save_dataset(instances, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2][: len(lines[2]) // 2]  # truncate mid-JSON
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="line 3"):
        load_dataset(path)


def test_load_rejects_wrong_schema(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"schema_version": 99, "kind": "graphbench-dataset"}\n', encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="schema"):
        load_dataset(path)


@pytest.fixture
def small_saved(tmp_path):
    _, instances = assemble_dataset(0, graphs_per_cell=3)
    path = tmp_path / "data.jsonl"
    save_dataset(instances, path)
    return instances, path


def test_load_shares_one_graph_per_stored_graph(small_saved):
    instances, path = small_saved
    loaded = load_dataset(path)
    assert loaded == instances
    stored = [json.loads(line)["graph"] for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    # Adjacent lines share a Graph exactly when their stored graphs are equal,
    # and each run of such lines has a Graph of its own.
    for i in range(1, len(loaded)):
        assert (loaded[i].graph is loaded[i - 1].graph) == (stored[i] == stored[i - 1])
    runs = 1 + sum(a != b for a, b in zip(stored, stored[1:]))
    assert len({id(i.graph) for i in loaded}) == runs
    # Node-level and pair tasks store each graph once per query.
    assert runs < len(loaded)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("corrupt", [False, True])
def test_load_restores_gc_state(small_saved, monkeypatch, enabled, corrupt):
    _, path = small_saved
    if corrupt:
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[5] = lines[5][:20]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    parse_states, verify_states = [], []
    parse = TaskInstance.from_json_obj

    def spying_parse(cls, obj, graph):
        parse_states.append(gc.isenabled())
        return parse(obj, graph)

    monkeypatch.setattr(TaskInstance, "from_json_obj", classmethod(spying_parse))
    monkeypatch.setattr(ds, "verify_gold_answers",
                        lambda instances: verify_states.append(gc.isenabled()))
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if corrupt:
            with pytest.raises(DatasetFormatError, match="line 6"):
                load_dataset(path)
        else:
            load_dataset(path)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert parse_states and not any(parse_states)
    assert verify_states == ([] if corrupt else [enabled])


class _Cycle:
    def __init__(self):
        self.self = self


def _old_cyclic_garbage():
    """A weakref to a reference cycle that became garbage in the oldest
    generation, which only a full collection reclaims."""
    cycle = _Cycle()
    gc.collect()
    ref = weakref.ref(cycle)
    del cycle
    return ref


def test_load_freezes_what_it_loaded(small_saved):
    instances, path = small_saved
    before = gc.get_freeze_count()
    loaded = load_dataset(path)
    assert len(loaded) == len(instances)
    assert gc.get_freeze_count() >= before + len(loaded)


def test_load_collects_cyclic_garbage_before_freezing(small_saved):
    _, path = small_saved
    ref = _old_cyclic_garbage()
    assert ref() is not None
    load_dataset(path)
    assert ref() is None


def test_load_neither_collects_nor_freezes_with_the_collector_off(small_saved):
    _, path = small_saved
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        ref = _old_cyclic_garbage()
        before = gc.get_freeze_count()
        load_dataset(path)
        assert gc.get_freeze_count() == before
        assert ref() is not None
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_corrupt_line_freezes_nothing(small_saved):
    _, path = small_saved
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[-1] = lines[-1][:20]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    before = gc.get_freeze_count()
    with pytest.raises(DatasetFormatError, match=f"line {len(lines)}"):
        load_dataset(path)
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("task, query", [
    (Task.NODE_DEGREE, []), (Task.NODE_DEGREE, [0, 1]), (Task.SHORTEST_PATH, [0]),
    (Task.EDGE_COUNT, [0]),
])
def test_load_rejects_a_query_of_the_wrong_arity(tmp_path, task, query):
    _, instances = assemble_dataset(0, tasks=[task], buckets=[SMALL], graphs_per_cell=1)
    path = tmp_path / "data.jsonl"
    save_dataset(instances, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[1])
    row["query"] = query
    lines[1] = instance_line(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for verify in (True, False):
        with pytest.raises(DatasetFormatError,
                           match=rf"^line 2: corrupt instance: {task.value} query \["):
            load_dataset(path, verify=verify)


def _bump_gold(row):
    row["gold"]["value"] += 1


def _gold_as_node_seq(row):
    # The right kind for topological sort, the wrong one for node count.
    row["gold"] = {"kind": "node_seq", "value": list(range(row["graph"]["n"]))}


def _gold_as_forest(row):
    # The right kind for MST, the wrong one for cycle check.
    g = Graph.from_edges(row["graph"]["n"], row["graph"]["edges"])
    row["gold"] = answer_to_json(Answer.edge_set(spanning_forest(g)))


def _query_out_of_range(row):
    row["query"] = [99]


@pytest.mark.parametrize("task, tamper, error", [
    (Task.EDGE_COUNT, _bump_gold, "stored gold fails verification"),
    (Task.NODE_COUNT, _gold_as_node_seq, "stored gold fails verification"),
    (Task.CYCLE_CHECK, _gold_as_forest, "stored gold fails verification"),
    (Task.NODE_DEGREE, _query_out_of_range, "node 99 not in graph"),
], ids=["edge_count-off_by_one", "node_count-as_node_seq", "cycle_check-as_forest",
        "node_degree-query_out_of_range"])
def test_verify_catches_tampered_gold(tmp_path, task, tamper, error):
    _, instances = assemble_dataset(0, tasks=[task], buckets=[SMALL], graphs_per_cell=2)
    path = tmp_path / "data.jsonl"
    save_dataset(instances, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[1])
    tamper(row)
    lines[1] = instance_line(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=f"^instance {row['id']}: {error}"):
        load_dataset(path, verify=True)
    assert len(load_dataset(path, verify=False)) == len(instances)


@pytest.mark.parametrize("header", ["[1, 2]", "7", '"graphbench"', "null"])
def test_load_rejects_a_header_that_is_not_an_object(tmp_path, header):
    path = tmp_path / "data.jsonl"
    path.write_text(header + "\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="line 1"):
        load_dataset(path)


def test_verify_accepts_alternate_valid_forest():
    # Gold checking validates spanning trees structurally, so another valid
    # forest for the same graph must pass.
    inst = small_cell(Task.MST, 1)[0]
    g = inst.graph
    forest = set(inst.gold.value)
    alternate = None
    for extra in sorted(set(g.edges) - frozenset(forest)):
        for drop in sorted(forest):
            candidate = (forest - {drop}) | {extra}
            from graphbench import validate_spanning_tree

            if validate_spanning_tree(g, candidate):
                alternate = candidate
                break
        if alternate:
            break
    assert alternate is not None, "dense graph should admit a second forest"
    swapped = TaskInstance(
        id=inst.id, task=inst.task, bucket=inst.bucket, graph=inst.graph,
        query=inst.query, gold=Answer.edge_set(alternate), seed=inst.seed,
    )
    verify_gold_answers([swapped])


def test_manifest_round_trip(tmp_path):
    manifest, _ = assemble_dataset(3, tasks=[Task.CYCLE_CHECK], buckets=[SMALL, MEDIUM],
                                   graphs_per_cell=4)
    path = tmp_path / "manifest.json"
    save_manifest(manifest, path)
    loaded = load_manifest(path)
    assert loaded == manifest
    assert loaded.cycle_check_prior.keys() == {"S", "M"}
    for bucket_counts in loaded.cycle_check_prior.values():
        assert bucket_counts["true"] + bucket_counts["false"] == 4


def test_instances_by_id():
    _, instances = assemble_dataset(0, tasks=[Task.NODE_COUNT], buckets=[SMALL],
                                    graphs_per_cell=3)
    index = instances_by_id(instances)
    assert len(index) == 3
    for inst in instances:
        assert index[inst.id] is inst


def test_instance_json_round_trip():
    for task in (Task.MST, Task.TOPOLOGICAL_SORT, Task.NEIGHBORS, Task.SHORTEST_PATH):
        for inst in small_cell(task, 2):
            row = json.loads(ds._instance_line(inst))
            stored = row.pop("graph")
            graph = Graph.from_edges(stored["n"], stored["edges"], stored["directed"])
            assert TaskInstance.from_json_obj(row, graph) == inst


def test_gold_answers_match_oracles_direct():
    for task in ALL_TASKS:
        for inst in small_cell(task, 3):
            if task in (Task.MST,):
                continue  # forest is one of many valid answers; verified structurally
            assert inst.gold == gold_answer(task, inst.graph, inst.query)


# --- the serializer ------------------------------------------------------------------


def _reference_line(inst):
    """The instance line as one ``json.dumps`` of the whole object."""
    return instance_line({
        "id": inst.id,
        "task": inst.task.value,
        "bucket": {"name": inst.bucket.name, "n_min": inst.bucket.n_min,
                   "n_max": inst.bucket.n_max},
        "graph": {"n": inst.graph.n, "edges": [list(e) for e in sorted(inst.graph.edges)],
                  "directed": inst.graph.directed},
        "query": list(inst.query),
        "gold": answer_to_json(inst.gold),
        "seed": inst.seed,
    })


def _edgeless_instance():
    g = Graph(n=3, edges=frozenset())
    return TaskInstance(id="edge_count-S-999-0", task=Task.EDGE_COUNT, bucket=SMALL, graph=g,
                        query=(), gold=gold_answer(Task.EDGE_COUNT, g, ()), seed=7)


def test_instance_line_matches_one_dump_of_the_whole_object():
    _, instances = assemble_dataset(0, graphs_per_cell=2)
    instances.append(_edgeless_instance())
    assert {inst.task for inst in instances} == set(ALL_TASKS)
    assert {inst.bucket for inst in instances} == set(ALL_BUCKETS)
    assert any(inst.graph.directed for inst in instances)  # the DAGs of topological sort
    assert not instances[-1].graph.edges
    # Free text that needs escapes: a quote, a backslash and non-ASCII.
    instances.append(dataclasses.replace(instances[-1], id='edge_count "ü" \\ 𝔾',
                                         bucket=SizeBucket('S "ü"', 3, 3)))
    for inst in instances:
        assert ds._instance_line(inst) == _reference_line(inst)


def test_directed_and_undirected_graphs_encode_apart():
    edges = [(0, 1), (1, 2)]
    lines = set()
    for directed in (False, True):
        g = Graph.from_edges(3, edges, directed=directed)
        inst = TaskInstance(id="edge_count-S-000-0", task=Task.EDGE_COUNT, bucket=SMALL,
                            graph=g, query=(), gold=gold_answer(Task.EDGE_COUNT, g, ()), seed=0)
        assert ds._instance_line(inst) == _reference_line(inst)
        lines.add(ds._instance_line(inst))
    assert len(lines) == 2


def test_instance_line_holds_across_cache_eviction_and_repeats(monkeypatch):
    monkeypatch.setattr(ds._graph_json, "last", (None, None))
    distinct = small_cell(Task.EDGE_COUNT, 70)
    assert len({inst.graph for inst in distinct}) > 64
    # Equal graphs far apart, as separate objects: the first ones come back
    # after many others have taken the memo's one entry.
    repeats = [TaskInstance(id=i.id, task=i.task, bucket=i.bucket,
                            graph=Graph.from_edges(i.graph.n, i.graph.edges), query=i.query,
                            gold=i.gold, seed=i.seed) for i in distinct[:5]]
    sequence = distinct + repeats + distinct[::-1]
    assert [ds._instance_line(i) for i in sequence] == [_reference_line(i) for i in sequence]
    # The entry is the last graph and its text, served again to that graph.
    held, text = ds._graph_json.last
    assert held is sequence[-1].graph and ds._graph_json(held) is text


def test_shortest_path_pairs_computed_once_per_graph(monkeypatch):
    monkeypatch.setattr(ds._same_component_pairs, "last", (None, None))
    generated, merged = [], []
    gen_er, merge = ds.gen_er, ds.oracles._merge
    monkeypatch.setattr(ds, "gen_er", lambda *a: generated.append(gen_er(*a)) or generated[-1])
    monkeypatch.setattr(ds.oracles, "_merge",
                        lambda parent, edges: merged.append(edges) or merge(parent, edges))
    small_cell(Task.SHORTEST_PATH, 20)
    assert len(merged) == len(generated) > 20
    assert merged == [g.edges for g in generated]


@pytest.mark.parametrize("endpoint", [0.9, 1.0, True, "1"])
def test_load_rejects_an_edge_endpoint_that_is_not_an_int(tmp_path, endpoint):
    _, instances = assemble_dataset(0, tasks=[Task.EDGE_COUNT], buckets=[SMALL],
                                    graphs_per_cell=3)
    path = tmp_path / "data.jsonl"
    save_dataset(instances, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[1])
    row["graph"]["edges"][0][0] = endpoint
    lines[1] = instance_line(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for verify in (True, False):
        with pytest.raises(DatasetFormatError, match="^line 2: corrupt instance: edge .* not an int"):
            load_dataset(path, verify=verify)


def _tampered(tmp_path, task, tamper):
    """A one-graph dataset of ``task`` whose line 2 is rewritten by ``tamper(row)``."""
    _, instances = assemble_dataset(0, tasks=[task], buckets=[SMALL], graphs_per_cell=1)
    path = tmp_path / "data.jsonl"
    save_dataset(instances, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[1])
    tamper(row)
    lines[1] = instance_line(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _set_graph(key, value):
    return lambda row: row["graph"].__setitem__(key, value)


def _set_gold(value):
    return lambda row: row["gold"].__setitem__("value", value)


def _float_node_count(row):
    """A node count and its gold stored as floats: before these checks, the
    line loaded and its prompt read "The graph has 5.0 nodes, numbered 0..4.0"."""
    row["graph"]["n"] = float(row["graph"]["n"])
    row["gold"]["value"] = float(row["gold"]["value"])


@pytest.mark.parametrize("task, tamper, fault", [
    (Task.NODE_COUNT, _float_node_count, r"node count \d+\.0 is not an int"),
    (Task.NODE_COUNT, _set_graph("n", True), "node count True is not an int"),
    (Task.EDGE_COUNT, _set_graph("directed", 0), "directed 0 is not a bool"),
    (Task.EDGE_COUNT, _set_graph("directed", "false"), "directed 'false' is not a bool"),
    (Task.NODE_COUNT, _set_gold(7.0), r"int gold 7\.0 is not an int"),
    (Task.NODE_COUNT, _set_gold(True), "int gold True is not an int"),
    (Task.CYCLE_CHECK, _set_gold("yes"), "bool gold 'yes' is not a bool"),
    (Task.CYCLE_CHECK, _set_gold(1), "bool gold 1 is not a bool"),
    (Task.NEIGHBORS, _set_gold([1.0]), r"node_set gold \[1\.0\] is not a list of ints"),
    (Task.NEIGHBORS, _set_gold("12"), "node_set gold '12' is not a list of ints"),
    (Task.TOPOLOGICAL_SORT, _set_gold([0, "1"]),
     r"node_seq gold \[0, '1'\] is not a list of ints"),
    (Task.MST, _set_gold([[0, 1, 2]]), r"edge_set gold \[\[0, 1, 2\]\] is not a list of int pairs"),
    (Task.MST, _set_gold([[0, True]]), r"edge_set gold \[\[0, True\]\] is not a list of int pairs"),
    (Task.MST, _set_gold(["01"]), r"edge_set gold \['01'\] is not a list of int pairs"),
    (Task.EDGE_COUNT, lambda row: row.__setitem__("seed", 1.5), "seed 1.5 is not an int"),
    (Task.EDGE_COUNT, lambda row: row.__setitem__("seed", "7"), "seed '7' is not an int"),
], ids=["float-n-and-gold", "bool-n", "int-directed", "str-directed", "float-int-gold",
        "bool-int-gold", "str-bool-gold", "int-bool-gold", "float-node-set", "str-node-set",
        "str-node-seq", "triple-edge", "bool-endpoint-edge", "str-edge", "float-seed", "str-seed"])
def test_load_rejects_a_stored_value_of_the_wrong_json_type(tmp_path, task, tamper, fault):
    path = _tampered(tmp_path, task, tamper)
    with pytest.raises(DatasetFormatError, match=f"^line 2: corrupt instance: {fault}$"):
        load_dataset(path)


@pytest.mark.parametrize("bucket, fault", [
    ({"name": 7, "n_min": 5, "n_max": 11}, "name"),
    ({"name": "S", "n_min": 5.5, "n_max": 11}, "float-bound"),
    ({"name": "XS", "n_min": 5, "n_max": True}, "bool-bound"),
    ({"name": 7, "n_min": 5.5, "n_max": 11}, "all"),
], ids=lambda v: v if isinstance(v, str) else "")
def test_load_rejects_a_bucket_that_is_not_a_str_and_two_ints(tmp_path, bucket, fault):
    path = _tampered(tmp_path, Task.NODE_COUNT, lambda row: row.__setitem__("bucket", bucket))
    for verify in (True, False):
        with pytest.raises(DatasetFormatError, match="^line 2: corrupt instance: bucket .* is "
                                                     "not a str name and two int bounds$"):
            load_dataset(path, verify=verify)


@pytest.mark.parametrize("bounds", [(5, 12), (4, 11), (11, 21)])
def test_load_rejects_a_standard_bucket_name_with_other_bounds(tmp_path, bounds):
    bucket = {"name": "S", "n_min": bounds[0], "n_max": bounds[1]}
    path = _tampered(tmp_path, Task.NODE_COUNT, lambda row: row.__setitem__("bucket", bucket))
    with pytest.raises(DatasetFormatError, match=r"^line 2: corrupt instance: bucket S has "
                                                 rf"bounds \[{bounds[0]}, {bounds[1]}\], not "
                                                 r"its standard \[5, 11\]$"):
        load_dataset(path)


@pytest.mark.parametrize("key, value, fault", [
    ("query", [2.0], "query .* not an int"), ("query", [True], "query .* not an int"),
    ("query", ["2"], "query .* not an int"), ("id", 7, "id 7 is not a string"),
], ids=["float-node", "bool-node", "str-node", "int-id"])
def test_load_rejects_a_query_node_that_is_not_an_int_or_an_id_that_is_not_a_string(
        tmp_path, key, value, fault):
    path = _tampered(tmp_path, Task.NODE_DEGREE, lambda row: row.__setitem__(key, value))
    for verify in (True, False):
        with pytest.raises(DatasetFormatError, match=f"^line 2: corrupt instance: {fault}"):
            load_dataset(path, verify=verify)


def test_load_rejects_a_repeated_instance_id_naming_both_lines(tmp_path):
    _, instances = assemble_dataset(0, tasks=[Task.NODE_DEGREE], buckets=[SMALL],
                                    graphs_per_cell=1)
    path = tmp_path / "data.jsonl"
    save_dataset(instances, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[4] = lines[4].replace(instances[3].id, instances[1].id)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError,
                       match=rf"^line 5: instance id '{instances[1].id}' repeats line 3$"):
        load_dataset(path, verify=False)


@pytest.mark.parametrize("header, kind", [
    ({"schema_version": ds.SCHEMA_VERSION, "kind": "not-a-dataset"}, "'not-a-dataset'"),
    ({"schema_version": ds.SCHEMA_VERSION}, "None"),
])
def test_load_rejects_a_header_of_another_kind(small_saved, header, kind):
    _, path = small_saved
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]), encoding="utf-8")
    with pytest.raises(DatasetFormatError,
                       match=f"^line 1: header kind {kind} is not 'graphbench-dataset'$"):
        load_dataset(path)


def _edge_count_file(path, graphs):
    """A hand-written edge_count dataset, one line per stored ``"graph"`` object.
    Each edge list must hold no pair twice, in either order."""
    lines = [json.dumps({"schema_version": ds.SCHEMA_VERSION, "kind": "graphbench-dataset"})]
    for i, graph in enumerate(graphs):
        lines.append(instance_line({
            "bucket": {"name": "S", "n_min": 5, "n_max": 11},
            "gold": {"kind": "int", "value": len(graph["edges"])},
            "graph": graph, "id": f"edge_count-S-{i:03d}-0", "query": [], "seed": i,
            "task": "edge_count"}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _graph(edges, n=5, directed=False):
    return {"n": n, "edges": edges, "directed": directed}


def test_load_builds_equal_graphs_apart_unless_their_lines_are_adjacent_and_equal(tmp_path):
    a, b = _graph([[0, 1], [1, 3]]), _graph([[0, 2]])
    twins = [_graph([[1, 3], [0, 1]]), _graph([[3, 1], [1, 0]])]
    directed = _graph([[1, 0], [3, 1]], directed=True)
    path = _edge_count_file(tmp_path / "data.jsonl", [a, b, a, *twins, directed, a])
    graphs = [i.graph for i in load_dataset(path)]
    assert graphs[0] == graphs[2] == graphs[3] == graphs[4] == graphs[6]
    assert graphs[5] != graphs[0] and graphs[5].edges == ((1, 0), (3, 1))
    assert len({id(g) for g in graphs}) == len(graphs)
    assert _shares_each_equal_pair(graphs)


def _shares_each_equal_pair(graphs):
    return len({id(e) for g in graphs for e in g.edges}) == len({e for g in graphs for e in g.edges})


def test_load_makes_each_distinct_edge_pair_one_object(small_saved, tmp_path):
    _, path = small_saved
    assert _shares_each_equal_pair([i.graph for i in load_dataset(path)])
    path = _edge_count_file(tmp_path / "hand.jsonl", [
        _graph([[0, 1], [1, 3]]), _graph([[3, 1], [2, 4]]),
        _graph([[1, 3], [3, 1]], directed=True), _graph([[1, 0], [4, 2]], n=6)])
    graphs = [i.graph for i in load_dataset(path)]
    assert _shares_each_equal_pair(graphs)
    assert len({e for g in graphs for e in g.edges}) == 4


@pytest.mark.parametrize("endpoint", [True, 1.0])
@pytest.mark.parametrize("spelling", [0, 1])
def test_load_checks_an_endpoint_whose_int_pair_was_loaded_before(tmp_path, endpoint, spelling):
    bad = [[endpoint, 3], [3, endpoint]][spelling]
    path = _edge_count_file(tmp_path / "data.jsonl", [
        _graph([[1, 3], [0, 2]]), _graph([[1, 3], [0, 2]]), _graph([[0, 4]]),
        _graph([bad, [2, 4]])])
    for verify in (True, False):
        with pytest.raises(DatasetFormatError, match="^line 5: corrupt instance: edge .* not an int"):
            load_dataset(path, verify=verify)


def test_load_peak_memory_per_stored_edge(tmp_path):
    """Load holds each distinct edge pair once, builds one graph per run of
    equal stored graphs, and builds no second copy of the edges while it parses."""
    path = tmp_path / "data.jsonl"
    write_dataset(path, 0, graphs_per_cell=10)
    tracemalloc.start()
    try:
        loaded = load_dataset(path, verify=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stored_edges = sum(g.edge_count for g in {i.graph for i in loaded})
    assert stored_edges > 30_000
    assert peak / stored_edges < 100


@pytest.mark.parametrize("spelling, shown", [("true", "True"), ("1.0", "1.0")])
def test_load_checks_a_graph_whose_text_differs_from_the_line_before(tmp_path, spelling, shown):
    # Line 3 stores line 2's graph, equal in value but with an endpoint 1
    # spelled otherwise: its text differs, so it is parsed and checked.
    _, instances = assemble_dataset(0, tasks=[Task.NODE_DEGREE], buckets=[SMALL],
                                    graphs_per_cell=1)
    assert instances[0].graph.edges[0] == (1, 3)
    path = tmp_path / "data.jsonl"
    save_dataset(instances, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2].replace('"edges":[[1,3]', f'"edges":[[{spelling},3]', 1)
    assert lines[2] != lines[3]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for verify in (True, False):
        with pytest.raises(DatasetFormatError, match=rf"^line 3: corrupt instance: edge "
                           rf"\({shown}, 3\) has an endpoint that is not an int"):
            load_dataset(path, verify=verify)


def _compact(obj):
    return json.dumps(obj, separators=(",", ":"))


def _spaced(row):
    return json.dumps(row)


def _keys_reversed(row):
    return _compact(dict(reversed(row.items())))


def _graph_keys_reversed(row):
    row["graph"] = dict(reversed(row["graph"].items()))
    return _compact(row)


def _edges_reversed(row):
    row["graph"]["edges"].reverse()
    return _compact(row)


def _edges_shuffled_and_flipped(row):
    edges = [pair[::-1] for pair in row["graph"]["edges"]]
    random.Random(row["seed"]).shuffle(edges)
    row["graph"]["edges"] = edges
    return _compact(row)


def _edges_duplicated(row):
    row["graph"]["edges"] += row["graph"]["edges"][:2]
    return _compact(row)


def _graph_also_in_gold(row):
    row["gold"] = {"kind": row["gold"]["kind"], "graph": row["graph"], "value": row["gold"]["value"]}
    return _compact(row)


def _graph_only_in_gold(row):
    graph = row.pop("graph")
    row["gold"] = {"kind": row["gold"]["kind"], "graph": graph, "value": row["gold"]["value"]}
    return _compact(row)


def _second_graph_after(row):
    line = _compact(row)
    return line[:-1] + ',"graph":{"directed":false,"edges":[[0,1]],"n":2}}'


def _second_graph_before(row):
    line = _compact(row)
    return '{"graph":{"directed":false,"edges":[[0,1]],"n":2},' + line[1:]


def _brace_in_bucket_name(row):
    row["bucket"]["name"] = "S}"
    return _compact(row)


def _brace_in_graph_string(row):
    row["graph"] = {"a": "}", **row["graph"]}
    return _compact(row)


def _brace_comma_in_graph_string(row):
    row["graph"] = {"a": "},", **row["graph"]}
    return _compact(row)


def _junk_after_graph(row):
    line = _compact(row)
    i = line.index(',"id":')
    return line[:i] + "!" + line[i + 1 :]


def _graph_null(row):
    row["graph"] = None
    return _compact(row)


def _endpoint_true(row):
    row["graph"]["edges"].insert(0, [True, 1])
    return _compact(row)


def _n_as_string(row):
    row["graph"]["n"] = str(row["graph"]["n"])
    return _compact(row)


def _self_loop(row):
    row["graph"]["edges"].append([2, 2])
    return _compact(row)


def _unknown_member(row):
    row["note"] = "x"
    return _compact(row)


#: The message for a line not laid out as ``_instance_line`` writes it.
_LAYOUT = "not laid out as save_dataset writes an instance"

#: Each rewrite of a line, and what loading a file with it gives: the fault
#: named for the first rewritten line, or None when it loads what was saved.
_REWRITES = [
    (_spaced, _LAYOUT),
    (_keys_reversed, _LAYOUT),
    (_graph_keys_reversed, None),
    (_edges_reversed, None),
    (_edges_shuffled_and_flipped, None),
    (_edges_duplicated, None),
    (_graph_also_in_gold, _LAYOUT),
    (_graph_only_in_gold, _LAYOUT),
    (_second_graph_after, _LAYOUT),
    (_second_graph_before, _LAYOUT),
    (_brace_in_bucket_name, None),
    (_brace_in_graph_string, _LAYOUT),
    (_brace_comma_in_graph_string, _LAYOUT),
    (_junk_after_graph, _LAYOUT),
    (_graph_null, _LAYOUT),
    (_endpoint_true, r"edge \(True, 1\) has an endpoint that is not an int"),
    (_n_as_string, "node count '7' is not an int"),
    (_self_loop, r"self-loop \(2, 2\) not allowed"),
    (_unknown_member, _LAYOUT),
]


@pytest.mark.parametrize("which", ["all", "odd"])
@pytest.mark.parametrize("rewrite, fault", _REWRITES,
                         ids=[rewrite.__name__.strip("_") for rewrite, _ in _REWRITES])
def test_load_reads_only_the_writers_layout(tmp_path, rewrite, fault, which):
    """``all`` rewrites every instance line, so each rewritten line follows
    another rewritten one; ``odd`` rewrites every other line from line 3 on,
    so each follows one that loads and whose graph it may or may not share."""
    _, instances = assemble_dataset(0, tasks=[Task.NODE_DEGREE, Task.EDGE_COUNT],
                                    buckets=[SMALL], graphs_per_cell=2)
    path = tmp_path / "data.jsonl"
    save_dataset(instances, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    first, step = (1, 1) if which == "all" else (2, 2)
    for k in range(first, len(lines), step):
        lines[k] = rewrite(json.loads(lines[k]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if fault is not None:
        with pytest.raises(DatasetFormatError,
                           match=f"^line {first + 1}: corrupt instance: {fault}$"):
            load_dataset(path)
        return
    loaded = load_dataset(path)
    if rewrite is _brace_in_bucket_name:
        names = ["S}"] * 12 if which == "all" else ["S", "S}"] * 6
        assert [inst.bucket.name for inst in loaded] == names
        loaded = [dataclasses.replace(inst, bucket=SMALL) for inst in loaded]
    assert loaded == instances


def test_load_names_the_line_column_of_a_graph_that_is_not_json(small_saved):
    _, path = small_saved
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2].replace('"n":', '"n":+', 1)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(json.JSONDecodeError) as whole:
        json.loads(lines[2])
    with pytest.raises(DatasetFormatError) as exc:
        load_dataset(path)
    assert str(exc.value) == f"line 3: corrupt instance: {whole.value}"


def _graph_texts(path):
    return [re.search(r',"graph":(\{[^}]*\})', line).group(1)
            for line in path.read_text(encoding="utf-8").splitlines()[1:]]


def test_load_builds_each_run_of_identical_graph_texts_once(small_saved, monkeypatch):
    instances, path = small_saved
    built = []
    from_edges = Graph.from_edges

    def spy(cls, *args, **kwargs):
        built.append(args)
        return from_edges(*args, **kwargs)

    monkeypatch.setattr(Graph, "from_edges", classmethod(spy))
    assert load_dataset(path) == instances
    texts = _graph_texts(path)
    runs = 1 + sum(a != b for a, b in zip(texts, texts[1:]))
    assert len(built) == runs < len(texts)


def test_load_shares_the_standard_buckets(small_saved):
    _, path = small_saved
    standard = {id(b) for b in ALL_BUCKETS}
    assert {id(inst.bucket) for inst in load_dataset(path)} == standard


@pytest.mark.parametrize("stored, shared", [
    ({"name": "M", "n_min": 11, "n_max": 21}, MEDIUM),
    ({"name": "M", "n_min": 11, "n_max": 22}, ValueError),
    ({"name": "S", "n_min": 4, "n_max": 11}, ValueError),
    ({"name": "XL", "n_min": 51, "n_max": 101}, None),
])
def test_from_json_obj_shares_a_standard_bucket_only_with_its_bounds(stored, shared):
    """A standard name with other bounds is rejected; any other name is a new bucket."""
    inst = small_cell(Task.NODE_COUNT, 1)[0]
    row = json.loads(ds._instance_line(inst))
    row["bucket"] = stored
    if shared is ValueError:
        with pytest.raises(ValueError, match=f"bucket {stored['name']} has bounds"):
            TaskInstance.from_json_obj(row, inst.graph)
        return
    bucket = TaskInstance.from_json_obj(row, inst.graph).bucket
    assert (bucket.name, bucket.n_min, bucket.n_max) == (stored["name"], stored["n_min"],
                                                         stored["n_max"])
    if shared is None:
        assert all(bucket is not b for b in ALL_BUCKETS)
    else:
        assert bucket is shared
