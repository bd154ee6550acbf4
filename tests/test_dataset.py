import gc
import json
import weakref

import pytest

from graphbench import (
    ALL_BUCKETS,
    ALL_TASKS,
    DatasetFormatError,
    GRAPH_LEVEL_TASKS,
    Graph,
    MEDIUM,
    NODE_LEVEL_TASKS,
    SMALL,
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
)
import graphbench.dataset as ds
from graphbench.dataset import TaskInstance, _graph_for_instance, answer_to_json
from graphbench.graphs import derive_instance_seed
from graphbench.oracles import Answer, spanning_forest


def small_cell(task, graphs=10, seed=0):
    return build_instances(task, SMALL, master_seed=seed, graph_count=graphs)


# --- counting ---------------------------------------------------------------------


def test_cell_sizes():
    assert len(small_cell(Task.CYCLE_CHECK)) == 10
    assert len(small_cell(Task.NODE_DEGREE)) == 50
    assert len(small_cell(Task.SHORTEST_PATH)) == 50


def test_full_partition_small_scale():
    manifest, instances = assemble_dataset(0, graphs_per_cell=5)
    graph_level = sum(1 for i in instances if i.task in GRAPH_LEVEL_TASKS)
    node_level = sum(1 for i in instances if i.task in NODE_LEVEL_TASKS)
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
    for task in GRAPH_LEVEL_TASKS:
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
    import hashlib

    _, instances = assemble_dataset(0, tasks=[Task.NODE_COUNT], buckets=[SMALL],
                                    graphs_per_cell=3)
    path = tmp_path / "data.jsonl"
    returned = save_dataset(instances, path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)[1:]
    digest = hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()
    assert returned == digest == content_digest(instances)


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
    for a in loaded:
        for b in loaded:
            assert (a.graph is b.graph) == (a.graph == b.graph)
    # Node-level and pair tasks store each graph once per query.
    assert len({id(i.graph) for i in loaded}) < len(loaded)


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

    def spying_parse(cls, obj, graphs=None):
        parse_states.append(gc.isenabled())
        return parse(obj, graphs)

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
    lines[1] = json.dumps(row)
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
    lines[1] = json.dumps(row, sort_keys=True, separators=(",", ":"))
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
    for extra in sorted(g.edges - frozenset(forest)):
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
            assert TaskInstance.from_json_obj(inst.to_json_obj()) == inst


def test_gold_answers_match_oracles_direct():
    for task in ALL_TASKS:
        for inst in small_cell(task, 3):
            if task in (Task.MST,):
                continue  # forest is one of many valid answers; verified structurally
            assert inst.gold == gold_answer(task, inst.graph, inst.query)
