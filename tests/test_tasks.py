import string

from graphbench import ALL_TASKS, QUERIES_PER_GRAPH, TASK_SPECS, Task


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
