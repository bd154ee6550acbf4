import json
import string

import pytest

from graphbench import TASK_SPECS, Answer, AnswerKind, Task, assemble_dataset
from graphbench.dataset import answer_from_json, answer_to_json
from graphbench.evaluate import extract_answer
from graphbench.prompts import format_answer
from graphbench.tasks import ALL_TASKS, KIND_SPECS, QUERIES_PER_GRAPH, KindSpec


def test_ten_tasks():
    assert len(ALL_TASKS) == 10
    assert len(set(ALL_TASKS)) == 10


def _tasks_of_arity(arity):
    return {task for task, spec in TASK_SPECS.items() if spec.arity == arity}


def test_levels_partition_tasks():
    combined = _tasks_of_arity(0) | _tasks_of_arity(1) | _tasks_of_arity(2)
    assert combined == set(ALL_TASKS)
    assert len(_tasks_of_arity(0)) == 7
    assert _tasks_of_arity(1) == {Task.NODE_DEGREE, Task.NEIGHBORS}
    assert _tasks_of_arity(2) == {Task.SHORTEST_PATH}


def test_query_arity():
    for task in ALL_TASKS:
        expected = {Task.NODE_DEGREE: 1, Task.NEIGHBORS: 1, Task.SHORTEST_PATH: 2}.get(task, 0)
        assert TASK_SPECS[task].arity == expected


def test_queries_per_graph():
    assert QUERIES_PER_GRAPH == 5


def test_label_base_defaults():
    # Only topological sorting renders 1-based labels.
    for task in ALL_TASKS:
        expected = 1 if task is Task.TOPOLOGICAL_SORT else 0
        assert TASK_SPECS[task].label_base == expected


def test_task_string_round_trip():
    for task in ALL_TASKS:
        assert Task(str(task)) is task


def test_task_specs_table():
    assert set(TASK_SPECS) == set(Task)
    for spec in TASK_SPECS.values():
        fields = [name for _, name, _, _ in string.Formatter().parse(spec.question)
                  if name is not None]
        assert fields == [str(i) for i in range(spec.arity)]
        assert spec.label_base in (0, 1)


# --- the answer-kind table -------------------------------------------------------

def _answers_of_every_kind():
    """Each task's golds over one graph per cell, plus the empty sets; no
    graph is empty, so neither is any node ordering."""
    _, instances = assemble_dataset(0, graphs_per_cell=1)
    answers = [inst.gold for inst in instances]
    answers += [Answer.of(AnswerKind.NODE_SET, []), Answer.of(AnswerKind.EDGE_SET, [])]
    assert {a.kind for a in answers} == set(AnswerKind)
    return answers


ANSWERS = _answers_of_every_kind()
TASK_OF_KIND = {spec.answer_kind: task for task, spec in TASK_SPECS.items()}


def test_every_answer_kind_has_one_row():
    assert list(KIND_SPECS) == list(AnswerKind)
    assert all(isinstance(spec, KindSpec) for spec in KIND_SPECS.values())
    assert set(TASK_OF_KIND) == set(AnswerKind)


def test_kind_rows_describe_the_values():
    for answer in ANSWERS:
        spec = KIND_SPECS[answer.kind]
        if spec.labels == 0:
            assert type(answer.value) is spec.scalar
            continue
        assert type(answer.value) is (tuple if spec.ordered else frozenset)
        for element in answer.value:
            labels = (element,) if spec.labels == 1 else element
            assert type(labels) is tuple and len(labels) == spec.labels
            assert all(type(u) is spec.scalar for u in labels)


@pytest.mark.parametrize("label_base", [0, 1])
def test_kind_round_trips(label_base):
    for answer in ANSWERS:
        stored = json.loads(json.dumps(answer_to_json(answer)))
        assert _same(answer_from_json(stored), answer)
        listed = answer.listed(label_base)
        assert _same(Answer.of(answer.kind, listed, label_base), answer)
        extracted = extract_answer(TASK_OF_KIND[answer.kind],
                                   f"Answer: {format_answer(answer, label_base)}")
        assert _same(Answer.of(extracted.kind, extracted.value, label_base), answer)


def test_listed_is_the_stored_order():
    for answer in ANSWERS:
        spec, listed = KIND_SPECS[answer.kind], answer.listed()
        if spec.labels:
            assert type(listed) is list
            assert listed == (list(answer.value) if spec.ordered else sorted(answer.value))
    seq = Answer.of(AnswerKind.NODE_SEQ, [3, 0, 2])
    assert seq.listed(1) == [4, 1, 3]
    assert Answer.of(AnswerKind.NODE_SET, [3, 0, 2]).listed(1) == [1, 3, 4]
    assert Answer.of(AnswerKind.EDGE_SET, [(2, 3), (0, 1)]).listed(1) == [(1, 2), (3, 4)]


def _same(a, b):
    """Equal answers whose values are of one type (``True == 1`` otherwise)."""
    return a == b and type(a.value) is type(b.value)
