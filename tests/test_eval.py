import json
import re
import tracemalloc

import pytest

from conftest import make_graph
from graphbench import (
    Answer,
    EvalRecord,
    FailureKind,
    SMALL,
    Strategy,
    Task,
    aggregate_report,
    assemble_dataset,
    build_instances,
    emit_report,
    evaluate_response,
    format_percent,
    load_records,
    read_rows,
    render_csv,
    render_markdown,
    save_records,
    score_instance,
    validate_spanning_tree,
    verify_gold_answers,
    write_rows,
)
from graphbench.dataset import TaskInstance
from graphbench.oracles import gold_answer


def instance_for(task, graphs=1, seed=0):
    return build_instances(task, SMALL, master_seed=seed, graph_count=graphs)[0]


def manual_instance(task, graph, query=(), gold=None):
    return TaskInstance(
        id=f"manual-{task.value}",
        task=task,
        bucket=SMALL,
        graph=graph,
        query=query,
        gold=gold if gold is not None else gold_answer(task, graph, query),
        seed=0,
    )


# --- score_instance -------------------------------------------------------------------


def test_score_int_and_bool():
    inst = instance_for(Task.EDGE_COUNT)
    assert score_instance(inst, inst.gold)
    assert not score_instance(inst, Answer.integer(inst.gold.value + 1))
    cyc = instance_for(Task.CYCLE_CHECK)
    assert score_instance(cyc, cyc.gold)
    assert not score_instance(cyc, Answer.boolean(not cyc.gold.value))


def test_score_node_set():
    inst = instance_for(Task.NEIGHBORS)
    assert score_instance(inst, inst.gold)
    assert not score_instance(inst, Answer.node_set(set(inst.gold.value) ^ {0, 1}))


def test_score_accepts_every_verified_gold():
    # Scoring and gold verification share one rule, so a stored gold that
    # passes verification scores as right on all ten tasks.
    _, instances = assemble_dataset(0, graphs_per_cell=2)
    verify_gold_answers(instances)
    assert {inst.task for inst in instances} == set(Task)
    for inst in instances:
        assert score_instance(inst, inst.gold, label_base=0), inst.id


def test_score_rejects_kind_mismatch():
    inst = instance_for(Task.EDGE_COUNT)
    with pytest.raises(ValueError):
        score_instance(inst, Answer.boolean(True))


def test_score_accepts_any_valid_topo_order():
    dag = make_graph(4, [(0, 2), (1, 3)], directed=True)
    inst = manual_instance(Task.TOPOLOGICAL_SORT, dag)
    # two different valid orders, both 1-based on the surface
    assert score_instance(inst, Answer.node_seq([1, 2, 3, 4]))
    assert score_instance(inst, Answer.node_seq([2, 1, 4, 3]))
    assert not score_instance(inst, Answer.node_seq([3, 1, 2, 4]))
    assert not score_instance(inst, Answer.node_seq([1, 2, 3]))


def test_score_topo_respects_label_base():
    dag = make_graph(3, [(0, 1), (1, 2)], directed=True)
    inst = manual_instance(Task.TOPOLOGICAL_SORT, dag)
    assert score_instance(inst, Answer.node_seq([1, 2, 3]))  # default base 1
    assert score_instance(inst, Answer.node_seq([0, 1, 2]), label_base=0)
    assert not score_instance(inst, Answer.node_seq([0, 1, 2]))


def test_score_accepts_any_valid_spanning_tree():
    square = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    inst = manual_instance(Task.MST, square)
    assert score_instance(inst, Answer.edge_set([(0, 1), (1, 2), (2, 3)]))
    assert score_instance(inst, Answer.edge_set([(0, 1), (1, 2), (0, 3)]))
    assert not score_instance(inst, Answer.edge_set([(0, 1), (1, 2), (2, 3), (0, 3)]))
    assert not score_instance(inst, Answer.edge_set([(0, 1), (1, 2)]))
    assert validate_spanning_tree(square, set(inst.gold.value))


def test_score_node_set_with_label_base_one():
    path = make_graph(3, [(0, 1), (1, 2)])
    inst = manual_instance(Task.NEIGHBORS, path, query=(1,))
    assert score_instance(inst, Answer.node_set({0, 2}))
    assert score_instance(inst, Answer.node_set({1, 3}), label_base=1)
    assert not score_instance(inst, Answer.node_set({1, 3}))


# --- evaluate_response -----------------------------------------------------------------


def test_evaluate_response_outcomes():
    inst = instance_for(Task.EDGE_COUNT)
    gold = inst.gold.value
    ok = evaluate_response(inst, Strategy.zero_shot(), f"Answer: {gold}")
    assert ok.correct and ok.failure is FailureKind.NONE
    wrong = evaluate_response(inst, Strategy.zero_shot(), f"Answer: {gold + 3}")
    assert not wrong.correct and wrong.failure is FailureKind.WRONG_ANSWER
    garbled = evaluate_response(inst, Strategy.zero_shot(), "no digits here")
    assert garbled.failure is FailureKind.EXTRACTION_FAILED
    down = evaluate_response(inst, Strategy.zero_shot(), None, backend_error="boom")
    assert down.failure is FailureKind.BACKEND_ERROR and down.detail == "boom"


def test_record_invariant():
    for failure in FailureKind:
        record = EvalRecord(instance_id="x", task=Task.EDGE_COUNT, bucket="S",
                            strategy="0-shot", failure=failure)
        assert record.correct is (failure is FailureKind.NONE)
        assert record.to_json_obj()["correct"] is record.correct


def test_records_round_trip(tmp_path):
    inst = instance_for(Task.CYCLE_CHECK)
    records = [
        evaluate_response(inst, Strategy.zero_shot(), "Answer: Yes"),
        evaluate_response(inst, Strategy.bag(), None, backend_error="down"),
    ]
    path = tmp_path / "records.jsonl"
    save_records(records, path)
    assert load_records(path) == records


def test_write_rows_writes_one_sorted_key_line_per_row(tmp_path):
    path = tmp_path / "new" / "rows.jsonl"
    write_rows(({"b": i, "a": [i]} for i in range(2)), path)
    assert path.read_text(encoding="utf-8") == '{"a": [0], "b": 0}\n{"a": [1], "b": 1}\n'


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_write_rows_replaces_the_file_whole_or_not_at_all(tmp_path, error):
    path = tmp_path / "rows.jsonl"
    path.write_text("keep\n")

    def rows():
        yield from ({"a": i} for i in range(1000))
        raise error

    with pytest.raises(error):
        write_rows(rows(), path)
    assert path.read_text() == "keep\n"
    assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]


@pytest.mark.parametrize("bad", ['{"b": 3}', "[1]", '{"a": ', '{"a": -1}'])
def test_read_rows_skips_blank_lines_but_counts_them(tmp_path, bad):
    def parse(obj):
        if obj["a"] < 0:
            raise ValueError("negative")
        return obj["a"]

    path = tmp_path / "rows.jsonl"
    path.write_text(f'\n{{"a": 1}}\n  \n{{"a": 2}}\n{bad}\n{{"a": 3}}\n', encoding="utf-8")
    rows = read_rows(path, parse, "thing")
    assert [next(rows), next(rows)] == [(2, 1), (4, 2)]
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:5: not a thing$"):
        next(rows)


@pytest.mark.parametrize("correct", ["false", "true", 0, 1, None])
def test_load_records_rejects_a_correct_that_is_not_a_bool(tmp_path, correct):
    inst = instance_for(Task.CYCLE_CHECK)
    path = tmp_path / "records.jsonl"
    save_records([evaluate_response(inst, Strategy.zero_shot(), "Answer: Yes")], path)
    row = json.loads(path.read_text(encoding="utf-8"))
    assert row["correct"] is True
    row["correct"] = correct
    path.write_text("\n" + json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: not a records row$"):
        load_records(path)


@pytest.mark.parametrize("key", ["instance_id", "bucket", "strategy"])
@pytest.mark.parametrize("value", [["S"], 5])
def test_load_records_rejects_a_name_that_is_not_a_string(tmp_path, key, value):
    inst = instance_for(Task.CYCLE_CHECK)
    path = tmp_path / "records.jsonl"
    save_records([evaluate_response(inst, Strategy.zero_shot(), "Answer: Yes")], path)
    row = json.loads(path.read_text(encoding="utf-8"))
    row[key] = value
    path.write_text("\n" + json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: not a records row$"):
        load_records(path)


def test_load_records_rejects_an_incorrect_row_with_no_failure_kind(tmp_path):
    inst = instance_for(Task.CYCLE_CHECK)
    path = tmp_path / "records.jsonl"
    save_records([evaluate_response(inst, Strategy.zero_shot(), "Answer: Yes")], path)
    row = json.loads(path.read_text(encoding="utf-8"))
    assert row["failure"] == "none"
    row["correct"] = False
    path.write_text("\n" + json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: not a records row$"):
        load_records(path)


# --- aggregation ------------------------------------------------------------------------


def rec(instance_id, task, bucket, strategy, correct):
    return EvalRecord(
        instance_id=instance_id, task=task, bucket=bucket, strategy=strategy,
        failure=FailureKind.NONE if correct else FailureKind.WRONG_ANSWER,
    )


def test_aggregate_counts_cells():
    records = [
        rec("a", Task.MST, "S", "0-shot", True),
        rec("b", Task.MST, "S", "0-shot", False),
        rec("c", Task.MST, "M", "0-shot", True),
        rec("a", Task.MST, "S", "BaG", True),
    ]
    report = aggregate_report(records)
    assert report.cells[("mst", "S", "0-shot")] == (1, 2)
    assert report.cells[("mst", "M", "0-shot")] == (1, 1)
    assert report.accuracy(Task.MST, "S", "0-shot") == 0.5
    assert report.accuracy(Task.MST, "L", "0-shot") is None
    assert report.failures["wrong_answer"] == 1


def test_aggregate_rejects_duplicates():
    records = [rec("a", Task.MST, "S", "0-shot", True),
               rec("a", Task.MST, "S", "0-shot", False)]
    with pytest.raises(ValueError, match="duplicate"):
        aggregate_report(records)


def test_aggregate_keeps_one_set_of_instance_ids_per_strategy():
    """Fed a stream, aggregate_report holds no record, and its repeat check
    holds one set of instance ids per strategy: 59 B per record on Python
    3.10-3.12, nearly all set slots. One set of (instance_id, strategy)
    tuples held 181 B."""
    ids = [f"edge_count-S-{k:05d}-0" for k in range(10_000)]
    strategies = ("0-shot", "BaG")

    def records():
        for strategy in strategies:
            for instance_id in ids:
                yield rec(instance_id, Task.EDGE_COUNT, "S", strategy, True)

    aggregate_report(records())  # fills the process's memos
    tracemalloc.start()
    try:
        report = aggregate_report(records())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.cells[("edge_count", "S", "BaG")] == (10_000, 10_000)
    per_record = peak / (len(ids) * len(strategies))
    assert per_record < 80, per_record


def test_aggregate_orders_buckets_small_to_large():
    records = [
        rec("a", Task.MST, "L", "0-shot", True),
        rec("b", Task.MST, "S", "0-shot", True),
        rec("c", Task.MST, "M", "0-shot", True),
    ]
    assert aggregate_report(records).buckets == ["S", "M", "L"]


# --- formatting -------------------------------------------------------------------------


def test_format_percent_half_up():
    assert format_percent(0.905) == "91"
    assert format_percent(0.5) == "50"
    assert format_percent(0.005) == "1"
    assert format_percent(0.004) == "0"
    assert format_percent(1.0) == "100"
    assert format_percent(0.0) == "0"
    assert format_percent(181 / 200) == "91"  # 90.5 rounds away from zero


def test_markdown_empty_cells_and_bolding():
    records = [
        rec("a1", Task.MST, "S", "0-shot", True),
        rec("a2", Task.MST, "S", "0-shot", False),
        rec("b1", Task.MST, "S", "BaG", True),
        rec("c1", Task.CYCLE_CHECK, "S", "0-shot", True),
    ]
    table = render_markdown(aggregate_report(records))
    lines = table.splitlines()
    # columns follow canonical task order regardless of record order
    assert lines[0] == "| strategy | bucket | Cycle check | MST |"
    assert "| 0-shot | S | **100** | 50 |" in table
    assert "| BaG | S | — | **100** |" in table


def test_markdown_bolds_all_ties():
    records = [
        rec("a", Task.MST, "S", "0-shot", True),
        rec("b", Task.MST, "M", "0-shot", True),
    ]
    table = render_markdown(aggregate_report(records))
    assert table.count("**100**") == 2


def test_markdown_without_flagging():
    records = [rec("a", Task.MST, "S", "0-shot", True)]
    table = render_markdown(aggregate_report(records), flag_best=False)
    assert "**" not in table


def test_csv_is_numeric_only():
    records = [
        rec("a1", Task.MST, "S", "0-shot", True),
        rec("a2", Task.MST, "S", "0-shot", False),
        rec("c1", Task.CYCLE_CHECK, "S", "0-shot", True),
    ]
    csv = render_csv(aggregate_report(records))
    assert csv.splitlines()[0] == "strategy,bucket,task,correct,total,accuracy_pct"
    assert "0-shot,S,mst,1,2,50" in csv
    assert "**" not in csv and "—" not in csv


def test_emit_report_dispatch():
    report = aggregate_report([rec("a", Task.MST, "S", "0-shot", True)])
    assert emit_report(report, "markdown").startswith("| strategy |")
    assert emit_report(report, "csv").startswith("strategy,")
    with pytest.raises(ValueError):
        emit_report(report, "pdf")


def test_report_emission_is_deterministic():
    records = [rec("a", Task.MST, "S", "0-shot", True),
               rec("b", Task.CYCLE_CHECK, "M", "BaG", False)]
    r1 = emit_report(aggregate_report(records))
    r2 = emit_report(aggregate_report(records))
    assert r1 == r2  # no timestamps or other varying content
