import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from graphbench import ALL_TASKS, AnswerKind, ExtractionFailed, Task, extract_answer
from graphbench.oracles import TASK_ANSWER_KINDS


def load_corpus():
    rows = []
    with (FIXTURES / "extraction_corpus.jsonl").open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


CORPUS = load_corpus()


def expected_value(kind, value):
    if kind == "node_set":
        return frozenset(value)
    if kind == "node_seq":
        return tuple(value)
    if kind == "edge_set":
        return frozenset((u, v) for u, v in value)
    return value


def test_corpus_is_large_enough():
    assert len(CORPUS) >= 50
    # every answer kind is exercised, including failures
    kinds = {row["expect"]["kind"] for row in CORPUS if row["expect"]}
    assert kinds == {k.value for k in AnswerKind}
    assert sum(1 for row in CORPUS if row["expect"] is None) >= 5


@pytest.mark.parametrize(
    "row", CORPUS, ids=[f"{r['task']}-{i:02d}" for i, r in enumerate(CORPUS)]
)
def test_corpus_row(row):
    task = Task(row["task"])
    if row["expect"] is None:
        with pytest.raises(ExtractionFailed):
            extract_answer(task, row["text"])
        return
    answer = extract_answer(task, row["text"])
    assert answer.kind.value == row["expect"]["kind"]
    assert answer.value == expected_value(row["expect"]["kind"], row["expect"]["value"])


def test_empty_and_whitespace_fail():
    for text in ("", "   ", "\n\n"):
        with pytest.raises(ExtractionFailed):
            extract_answer(Task.NODE_COUNT, text)


def test_answer_kind_matches_task():
    for row in CORPUS:
        if row["expect"] is None:
            continue
        task = Task(row["task"])
        assert TASK_ANSWER_KINDS[task].value == row["expect"]["kind"]


# --- fuzzing: anything in, Answer or ExtractionFailed out -----------------------------


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=600), st.sampled_from(list(ALL_TASKS)))
def test_fuzz_never_crashes(text, task):
    try:
        answer = extract_answer(task, text)
    except ExtractionFailed:
        return
    assert answer.kind is TASK_ANSWER_KINDS[task]


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=-10**6, max_value=10**6), st.text(max_size=200))
def test_sentinel_int_always_wins(value, noise):
    text = f"{noise}\nAnswer: {value}"
    answer = extract_answer(Task.EDGE_COUNT, text)
    assert answer.value == value


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=99), min_size=1, max_size=8))
def test_sentinel_bracketed_list_always_wins(nodes):
    text = "Some reasoning first.\nAnswer: [" + ", ".join(map(str, nodes)) + "]"
    assert extract_answer(Task.NEIGHBORS, text).value == frozenset(nodes)
    assert extract_answer(Task.TOPOLOGICAL_SORT, text).value == tuple(nodes)


# --- region precedence: one case per rule, so a change to any rule fails here ----------

_PAIR_LIST_80 = ", ".join(f"({i}, {i + 1})" for i in range(80))

PRECEDENCE = [
    # (id, task, text, expected value)
    ("int-first-in-tail", Task.NODE_COUNT,
     "Counted 9 lines.\nAnswer: 7 nodes, not 8.", 7),
    ("int-last-in-whole-text", Task.NODE_COUNT,
     "First guess 5, then 6, finally 7 nodes.", 7),
    ("int-crossing-512-from-the-end-read-whole", Task.NODE_COUNT,
     "123456" + "." * 509, 123456),
    ("node-set-first-valid-bracket-in-tail", Task.NEIGHBORS,
     "Scratch [9].\nAnswer: [a, b] then [1, 2], later [3]", {1, 2}),
    ("node-set-last-valid-bracket-outside-tail", Task.NEIGHBORS,
     "Maybe [1, 2]. No: [3, 4]. Not [x].", {3, 4}),
    ("node-set-empty-bracket-outside-tail", Task.NEIGHBORS,
     "Maybe [1, 2]. Actually it has none: [].", set()),
    ("edge-set-empty-bracket-in-tail", Task.MST,
     "Edges seen: (0, 1), (1, 2).\nAnswer: []", set()),
    ("edge-set-empty-bracket-skipped-outside-tail", Task.MST,
     "The tree is [(0, 1), (1, 2)]; the leftover set is [].", {(0, 1), (1, 2)}),
    ("edge-set-bracket-before-bare-run-in-tail", Task.MST,
     "Answer: (5, 6) or [(0, 1)]", {(0, 1)}),
    ("edge-set-first-bare-run-in-tail", Task.MST,
     "Answer: (0, 1), (1, 2). Not (5, 6).", {(0, 1), (1, 2)}),
    ("edge-set-last-bare-run-outside-tail", Task.MST,
     "First try (0, 1), (1, 2). Corrected: (0, 2), (2, 3).", {(0, 2), (2, 3)}),
    ("edge-set-run-crossing-512-from-the-end-read-whole", Task.MST,
     _PAIR_LIST_80, {(i, i + 1) for i in range(80)}),
    ("node-seq-comma-chain-in-tail", Task.TOPOLOGICAL_SORT,
     "Sorting by in-degree.\nAnswer: 2, 0, 1", (2, 0, 1)),
    ("node-seq-comma-chain-ignored-outside-tail", Task.TOPOLOGICAL_SORT,
     "Try [0, 1, 2]. Then the order 2, 0, 1 fails.", (0, 1, 2)),
    ("node-seq-earliest-candidate-in-tail", Task.TOPOLOGICAL_SORT,
     "Answer: 0 -> 1 -> 2, check [2, 1, 0]", (0, 1, 2)),
    ("node-seq-latest-candidate-outside-tail", Task.TOPOLOGICAL_SORT,
     "First 0 -> 1 -> 2, then [2, 1, 0]", (2, 1, 0)),
    ("last-sentinel-wins", Task.NODE_COUNT,
     "Answer: 3. Wait, recount.\nAnswer: 4", 4),
    ("last-sentinel-wins-bool", Task.CYCLE_CHECK,
     "Answer: yes. On reflection the graph is acyclic.\nAnswer: no", False),
    # 512 characters from the end falls inside "does not contain a cycle".
    ("bool-verdict-crossing-512-from-the-end-read-whole", Task.CYCLE_CHECK,
     "Checked every vertex; it does n" + "ot contain a cycle" + "." * (512 - 18), False),
    ("bool-falls-back-to-whole-text", Task.BIPARTITE_CHECK,
     "Two-colouring works, so it is bipartite.\nAnswer: see above", True),
]


@pytest.mark.parametrize(
    "task,text,expected", [row[1:] for row in PRECEDENCE], ids=[row[0] for row in PRECEDENCE]
)
def test_region_precedence(task, text, expected):
    answer = extract_answer(task, text)
    assert answer.kind is TASK_ANSWER_KINDS[task]
    assert answer.value == expected_value(answer.kind.value, expected)


@pytest.mark.parametrize(
    "task,text,message",
    [
        (Task.NODE_COUNT, " \n", "empty response"),
        (Task.NODE_COUNT, "no digits here", "no integer found"),
        (Task.CYCLE_CHECK, "cannot tell", "no yes/no verdict found"),
        (Task.NEIGHBORS, "Answer: [a, b]", "no bracketed node list found"),
        (Task.MST, "Answer: [x]", "no edge list found"),
        (Task.TOPOLOGICAL_SORT, "Order: 2, 0, 1", "no node ordering found"),
    ],
)
def test_failure_messages(task, text, message):
    with pytest.raises(ExtractionFailed) as info:
        extract_answer(task, text)
    assert str(info.value) == message
