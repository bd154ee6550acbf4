"""Seeded round-trip properties of ``extract_answer`` (stdlib ``random`` only).

Every gold answer of a small dataset is rendered with ``format_answer`` under
label base 0 and 1, wrapped in random prose that holds no answer-like token,
and extracted again. Placements:

- ``sentinel``: after an "Answer:" line, with prose after it too;
- ``window``: bare, wholly inside the last 512 characters;
- ``before-window``: bare, wholly before the last 512 characters;
- ``straddle``: bare, starting before the last 512 characters and ending
  inside them.

Without a sentinel, extraction reads the last candidate of the whole text,
so every bare placement must return the whole answer.
"""
import random

import pytest

from graphbench import Answer, AnswerKind, assemble_dataset
from graphbench.client import MockAdversaryBackend
from graphbench.evaluate import extract_answer, score_instance
from graphbench.prompts import format_answer
from graphbench.tasks import ALL_TASKS

SEED = 20240
LABEL_BASES = (0, 1)
PLACEMENTS = ("sentinel", "window", "before-window", "straddle")
_WINDOW = 512  # the bare placements guard against a trailing window coming back

# No digits, brackets, arrows, "answer", yes/no/true/false, or cycle and
# bipartite vocabulary, so no word can be read as an answer of any kind.
_WORDS = (
    "the graph we check each vertex edge then so hence walk list carefully step "
    "visit mark queue stack label result below above done reading input scan "
    "every neighbour frontier pass again first last order colour weight sum"
).split()

_, _INSTANCES = assemble_dataset(0, graphs_per_cell=2)
_BY_TASK = {task: [inst for inst in _INSTANCES if inst.task is task] for task in ALL_TASKS}


def _prose(rng, length):
    """Random filler of exactly ``length`` characters."""
    out = ""
    while True:
        word = rng.choice(_WORDS)
        if rng.random() < 0.1:
            word = word.capitalize()
        sep = rng.choice(" \n" if out else " ")
        if len(out) + len(sep) + len(word) > length:
            return out + "." * (length - len(out))
        out += (sep if out else "") + word


def _wrap(rng, rendered, placement):
    """``rendered`` in prose at ``placement``, or None where it cannot go."""
    head = _prose(rng, rng.randrange(0, 700))
    if placement == "sentinel":
        return f"{head}\nAnswer: {rendered}\n{_prose(rng, rng.randrange(0, 700))}"
    # The text is head, " ", rendered, " ", tail; the window starts at
    # len(text) - _WINDOW, which is len(tail) + 1 characters past the answer's end.
    lo, hi = {
        "window": (0, _WINDOW - 1 - len(rendered)),
        "before-window": (_WINDOW - 1, _WINDOW + 300),
        "straddle": (_WINDOW - len(rendered), _WINDOW - 2),
    }[placement]
    if lo > hi:
        return None
    return f"{head} {rendered} {_prose(rng, rng.randint(lo, hi))}"


def _cases():
    return [pytest.param(task, base, placement, id=f"{task.value}-base{base}-{placement}")
            for task in ALL_TASKS for base in LABEL_BASES for placement in PLACEMENTS]


def _texts(task, base, placement, answer_of):
    """``(instance, text)`` for each instance of the task; seeded per case."""
    rng = random.Random(f"{SEED}-{task.value}-{base}-{placement}")
    texts = []
    for inst in _BY_TASK[task]:
        text = _wrap(rng, format_answer(answer_of(inst), base), placement)
        if text is not None:
            texts.append((inst, text))
    if not texts and placement == "straddle":
        pytest.skip("every answer is one character long, so none can straddle")
    assert texts, "no instance fits this placement"
    return texts


@pytest.mark.parametrize("task, base, placement", _cases())
def test_extraction_returns_the_rendered_gold(task, base, placement):
    for inst, text in _texts(task, base, placement, lambda inst: inst.gold):
        answer = extract_answer(task, text)
        assert format_answer(answer) == format_answer(inst.gold, base)
        assert score_instance(inst, answer, base)


@pytest.mark.parametrize("task, base, placement", _cases())
def test_adversary_answer_always_scores_wrong(task, base, placement):
    for inst, text in _texts(task, base, placement, MockAdversaryBackend._corrupt):
        assert not score_instance(inst, extract_answer(task, text), base)


def test_prose_holds_no_answer():
    rng = random.Random(SEED)
    for task in ALL_TASKS:
        text = _prose(rng, 2000)
        assert len(text) == 2000
        with pytest.raises(ValueError):
            extract_answer(task, text)


def test_placements_put_the_answer_where_they_say():
    rng = random.Random(SEED)
    rendered = format_answer(Answer.of(AnswerKind.INT, 123456))
    for _ in range(200):
        for placement in ("window", "before-window", "straddle"):
            text = _wrap(rng, rendered, placement)
            start = text.index(rendered)
            window_start = max(0, len(text) - _WINDOW)
            end = start + len(rendered)
            inside = {"window": window_start <= start,
                      "before-window": end <= window_start,
                      "straddle": start < window_start < end}[placement]
            assert inside, (placement, start, end, window_start)
