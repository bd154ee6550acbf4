"""Answer extraction from model text, scoring, and report tables."""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Optional, TypeVar

from .dataset import TaskInstance, _replacing
from .graphs import ALL_BUCKETS
from .oracles import Answer, is_right_answer
from .prompts import Strategy
from .tasks import ALL_TASKS, KIND_SPECS, TASK_SPECS, AnswerKind, Task


class ExtractionFailed(ValueError):
    """No well-formed answer of the expected kind could be located."""


_T = TypeVar("_T")
_SENTINEL = re.compile(r"answer\s*:", re.IGNORECASE)

# Comma-grouped form first so "1,275" is taken whole, not as 1 and 275.
_INT = re.compile(r"-?\d{1,3}(?:,\d{3})+|-?\d+")
_PAIR = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)")
_BRACKET = re.compile(r"[\[{]([^\[\]{}]*)[\]}]", re.DOTALL)
_ARROW_CHAIN = re.compile(r"\d+(?:\s*(?:->|=>|→|⇒)\s*\d+)+")
_COMMA_CHAIN = re.compile(r"\d+(?:\s*,\s*\d+)+")
_PAIR_GAP = re.compile(r"[\s,;]*(?:and\s+)?\Z", re.IGNORECASE)

# Boolean vocabulary. Matches are resolved by taking the one that ends last,
# breaking ties toward the longer match, so "does not contain a cycle" beats
# the "contain a cycle" embedded inside it.
_BOOL_GENERIC = [
    (re.compile(r"\byes\b", re.IGNORECASE), True),
    (re.compile(r"\btrue\b", re.IGNORECASE), True),
    (re.compile(r"\bno\b", re.IGNORECASE), False),
    (re.compile(r"\bfalse\b", re.IGNORECASE), False),
]
_BOOL_TASK = {
    Task.CYCLE_CHECK: [
        (re.compile(r"(?:contains?|has|have)\s+(?:a|at\s+least\s+one)\s+cycle", re.IGNORECASE), True),
        (re.compile(r"there\s+is\s+a\s+cycle", re.IGNORECASE), True),
        (re.compile(r"cycle\s+exists", re.IGNORECASE), True),
        (re.compile(r"n[o']t\s+contain\s+a\s+cycle", re.IGNORECASE), False),
        (re.compile(r"no\s+cycles?\b", re.IGNORECASE), False),
        (re.compile(r"contains?\s+no\s+cycles?", re.IGNORECASE), False),
        (re.compile(r"\bacyclic\b", re.IGNORECASE), False),
        (re.compile(r"cycle[-\s]free", re.IGNORECASE), False),
        (re.compile(r"without\s+(?:any\s+)?cycles?", re.IGNORECASE), False),
    ],
    Task.BIPARTITE_CHECK: [
        (re.compile(r"(?:is|are)\s+(?:indeed\s+)?bipartite", re.IGNORECASE), True),
        (re.compile(r"(?:not|n't|cannot\s+be|can't\s+be)\s+bipartite", re.IGNORECASE), False),
    ],
}


def _regions(text: str) -> Iterator[tuple[str, bool]]:
    """Yield ``(region, is_tail)`` in precedence order: the text after the
    last "Answer:" sentinel (if there is one), then the whole text."""
    last = None
    for last in _SENTINEL.finditer(text):
        pass
    if last is not None:
        yield text[last.end():], True
    yield text, False


def _pick(candidates: Iterable[_T], is_tail: bool) -> Optional[_T]:
    """The first candidate after the sentinel, the last one anywhere else."""
    found = None
    for found in candidates:
        if is_tail:
            break
    return found


def _block_ints(content: str) -> Optional[list[int]]:
    """Integers inside a bracket block, or None if any token is not one."""
    stripped = content.strip()
    if not stripped:
        return []
    values = []
    for token in re.split(r"[,\s]+", stripped):
        if not re.fullmatch(r"-?\d+", token):
            return None
        values.append(int(token))
    return values


def _bracket_blocks(region: str, parse: Callable[[str], Optional[_T]]) -> Iterator[tuple[int, _T]]:
    """``(start, parsed content)`` of each bracket block that ``parse`` accepts."""
    for m in _BRACKET.finditer(region):
        value = parse(m.group(1))
        if value is not None:
            yield m.start(), value


def _find_int(region: str, is_tail: bool) -> Optional[int]:
    m = _pick(_INT.finditer(region), is_tail)
    return None if m is None else int(m.group().replace(",", ""))


def _bool_finder(task: Task) -> Callable[[str, bool], Optional[bool]]:
    patterns = _BOOL_GENERIC + _BOOL_TASK.get(task, [])

    def find(region: str, is_tail: bool) -> Optional[bool]:
        best: Optional[tuple[int, int, bool]] = None
        for pattern, value in patterns:
            for m in pattern.finditer(region):
                key = (m.end(), m.end() - m.start())
                if best is None or key > best[:2]:
                    best = (key[0], key[1], value)
        return None if best is None else best[2]

    return find


def _find_node_set(region: str, is_tail: bool) -> Optional[frozenset[int]]:
    found = _pick(_bracket_blocks(region, _block_ints), is_tail)
    return None if found is None else frozenset(found[1])


def _pair_runs(region: str) -> list[list[tuple[int, int]]]:
    """Maximal runs of adjacent (u, v) tokens separated only by filler."""
    runs: list[list[tuple[int, int]]] = []
    prev_end = None
    for m in _PAIR.finditer(region):
        pair = (int(m.group(1)), int(m.group(2)))
        gap_ok = prev_end is not None and _PAIR_GAP.fullmatch(region[prev_end:m.start()])
        if runs and gap_ok:
            runs[-1].append(pair)
        else:
            runs.append([pair])
        prev_end = m.end()
    return runs


def _edge_block(content: str) -> Optional[list[tuple[int, int]]]:
    pairs = [(int(a), int(b)) for a, b in _PAIR.findall(content)]
    if pairs or not content.strip():
        return pairs
    return None


def _find_edge_set(region: str, is_tail: bool) -> Optional[frozenset[tuple[int, int]]]:
    """A bracketed pair list, else a bare run of pairs. An empty block is an
    answer only after the sentinel."""
    blocks = (pairs for _, pairs in _bracket_blocks(region, _edge_block) if pairs or is_tail)
    found = _pick(blocks, is_tail)
    if found is None:
        found = _pick(_pair_runs(region), is_tail)
    return None if found is None else frozenset(found)


def _find_node_seq(region: str, is_tail: bool) -> Optional[tuple[int, ...]]:
    """Non-empty bracket blocks and arrow chains, plus bare comma chains after
    the sentinel, ordered by where they start."""
    candidates = [
        (start, tuple(values))
        for start, values in _bracket_blocks(region, _block_ints)
        if values
    ]
    chains = (_ARROW_CHAIN, _COMMA_CHAIN) if is_tail else (_ARROW_CHAIN,)
    candidates += [
        (m.start(), tuple(int(t) for t in re.findall(r"\d+", m.group())))
        for chain in chains
        for m in chain.finditer(region)
    ]
    found = _pick(sorted(candidates), is_tail)
    return None if found is None else found[1]


_FINDERS = {
    AnswerKind.INT: _find_int,
    AnswerKind.NODE_SET: _find_node_set,
    AnswerKind.EDGE_SET: _find_edge_set,
    AnswerKind.NODE_SEQ: _find_node_seq,
}


def extract_answer(task: Task, text: str) -> Answer:
    """Pull the task's answer out of free-form response text.

    Precedence: the first candidate after the last "Answer:" sentinel, else
    the last candidate in the whole text, read uncut however long the text
    is. A yes/no verdict is the one that ends last in either region. A
    bare comma chain counts as a node ordering, and an empty ``[]`` as an
    edge list, only after the sentinel. Node labels are returned exactly as
    written; any base shift happens at scoring time.
    """
    if not isinstance(text, str) or not text.strip():
        raise ExtractionFailed("empty response")
    kind = TASK_SPECS[task].answer_kind
    find = _bool_finder(task) if kind is AnswerKind.BOOL else _FINDERS[kind]
    for region, is_tail in _regions(text):
        value = find(region, is_tail)
        if value is not None:
            return Answer(kind, value)
    raise ExtractionFailed(KIND_SPECS[kind].not_found)


def score_instance(
    inst: TaskInstance,
    answer: Answer,
    label_base: Optional[int] = None,
) -> bool:
    """Decide whether an extracted answer is correct for this instance.

    Surface labels are shifted back to 0-based ones, then judged by
    ``is_right_answer``, the rule that also verifies stored golds: any valid
    spanning tree or topological order is accepted, not just the oracle's.
    """
    if label_base is None:
        label_base = TASK_SPECS[inst.task].label_base
    if answer.kind is not TASK_SPECS[inst.task].answer_kind:
        raise ValueError(f"answer kind {answer.kind} does not match task {inst.task}")
    shifted = Answer.of(answer.kind, answer.value, label_base)
    return is_right_answer(inst.task, inst.graph, inst.query, shifted, inst.gold)


class FailureKind(str, Enum):
    NONE = "none"
    WRONG_ANSWER = "wrong_answer"
    EXTRACTION_FAILED = "extraction_failed"
    BACKEND_ERROR = "backend_error"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class EvalRecord:
    """Outcome of one (instance, strategy) evaluation; it is correct exactly
    when its failure kind is none."""

    instance_id: str
    task: Task
    bucket: str
    strategy: str
    failure: FailureKind
    extracted: Optional[str] = None
    detail: str = ""

    @property
    def correct(self) -> bool:
        return self.failure is FailureKind.NONE

    def to_json_obj(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "task": self.task.value,
            "bucket": self.bucket,
            "strategy": self.strategy,
            "correct": self.correct,
            "failure": self.failure.value,
            "extracted": self.extracted,
            "detail": self.detail,
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "EvalRecord":
        """Read a row; raise unless ``instance_id``, ``bucket`` and ``strategy``
        are strings and ``correct`` is the bool that ``failure`` implies. Every
        record read shares one ``strategy`` string per name."""
        failure = FailureKind(obj["failure"])
        if obj["correct"] is not (failure is FailureKind.NONE):
            raise ValueError(f"correct {obj['correct']!r} does not match failure {failure}")
        if not all(isinstance(obj[key], str) for key in ("instance_id", "bucket", "strategy")):
            raise TypeError("instance_id, bucket and strategy must be strings")
        return cls(
            instance_id=obj["instance_id"],
            task=Task(obj["task"]),
            bucket=obj["bucket"],
            strategy=sys.intern(obj["strategy"]),  # one string per name, not per row
            failure=failure,
            extracted=obj.get("extracted"),
            detail=obj.get("detail", ""),
        )


def evaluate_response(
    inst: TaskInstance,
    strategy: Strategy,
    text: Optional[str],
    label_base: Optional[int] = None,
    backend_error: str = "",
) -> EvalRecord:
    """Turn raw response text (or a backend failure) into a record."""
    base = dict(
        instance_id=inst.id,
        task=inst.task,
        bucket=inst.bucket.name,
        strategy=strategy.display_name,
    )
    if text is None:
        return EvalRecord(failure=FailureKind.BACKEND_ERROR, detail=backend_error, **base)
    try:
        answer = extract_answer(inst.task, text)
    except ExtractionFailed as exc:
        return EvalRecord(failure=FailureKind.EXTRACTION_FAILED, detail=str(exc), **base)
    correct = score_instance(inst, answer, label_base)
    return EvalRecord(
        failure=FailureKind.NONE if correct else FailureKind.WRONG_ANSWER,
        extracted=json.dumps(answer.listed()),
        **base,
    )


@dataclass
class Report:
    """Accuracy broken down by task, size bucket, and prompting strategy."""

    tasks: list[Task]
    buckets: list[str]
    strategies: list[str]
    cells: dict[tuple[str, str, str], tuple[int, int]]
    failures: dict[str, int] = field(default_factory=dict)

    def accuracy(self, task: Task, bucket: str, strategy: str) -> Optional[float]:
        correct, total = self.cells.get((task.value, bucket, strategy), (0, 0))
        return None if total == 0 else correct / total


def aggregate_report(records: Iterable[EvalRecord]) -> Report:
    """Group records into per-cell counts, rejecting duplicates.

    ``records`` is read once, as it comes, and none is kept: a stream over
    the record files serves as well as a list. The duplicate check keeps
    one set of instance ids per strategy."""
    seen: dict[str, set[str]] = {}  # instance ids per strategy
    cells: dict[tuple[str, str, str], list[int]] = {}
    failures: dict[str, int] = {kind.value: 0 for kind in FailureKind}
    tasks: list[Task] = []
    buckets: list[str] = []
    strategies: list[str] = []
    for rec in records:
        ids = seen.setdefault(rec.strategy, set())
        if rec.instance_id in ids:
            raise ValueError(f"duplicate record for {(rec.instance_id, rec.strategy)}")
        ids.add(rec.instance_id)
        cell = cells.setdefault((rec.task.value, rec.bucket, rec.strategy), [0, 0])
        cell[0] += int(rec.correct)
        cell[1] += 1
        failures[rec.failure.value] += 1
        if rec.task not in tasks:
            tasks.append(rec.task)
        if rec.bucket not in buckets:
            buckets.append(rec.bucket)
        if rec.strategy not in strategies:
            strategies.append(rec.strategy)
    tasks.sort(key=lambda t: [x.value for x in ALL_TASKS].index(t.value))
    bucket_order = [b.name for b in ALL_BUCKETS]
    buckets.sort(key=lambda b: bucket_order.index(b) if b in bucket_order else len(bucket_order))
    return Report(
        tasks=tasks,
        buckets=buckets,
        strategies=strategies,
        cells={k: (v[0], v[1]) for k, v in cells.items()},
        failures=failures,
    )


def format_percent(fraction: float) -> str:
    """Integer percent with exact half-up rounding (0.905 -> \"91\")."""
    value = Decimal(str(fraction)) * 100
    return str(value.quantize(Decimal("1"), rounding=ROUND_HALF_UP))


_EMPTY_CELL = "—"


def _cell_text(report: Report, task: Task, bucket: str, strategy: str) -> str:
    acc = report.accuracy(task, bucket, strategy)
    return _EMPTY_CELL if acc is None else format_percent(acc)


def _best_rows(report: Report, task: Task) -> set[tuple[str, str]]:
    """Row keys achieving the best accuracy in this task's column."""
    best: Optional[float] = None
    rows: set[tuple[str, str]] = set()
    for strategy in report.strategies:
        for bucket in report.buckets:
            acc = report.accuracy(task, bucket, strategy)
            if acc is None:
                continue
            if best is None or acc > best:
                best = acc
                rows = {(strategy, bucket)}
            elif acc == best:
                rows.add((strategy, bucket))
    return rows


def render_markdown(report: Report, flag_best: bool = True) -> str:
    """Accuracy table with one row per (strategy, bucket) pair.

    The best cell in each task column is bolded; ties are all bolded.
    """
    headers = ["strategy", "bucket"] + [TASK_SPECS[t].display_name for t in report.tasks]
    lines = ["| " + " | ".join(headers) + " |",
             "| " + " | ".join("---" for _ in headers) + " |"]
    best = {t: _best_rows(report, t) if flag_best else set() for t in report.tasks}
    for strategy in report.strategies:
        for bucket in report.buckets:
            row = [strategy, bucket]
            for task in report.tasks:
                text = _cell_text(report, task, bucket, strategy)
                if text != _EMPTY_CELL and (strategy, bucket) in best[task]:
                    text = f"**{text}**"
                row.append(text)
            lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def render_csv(report: Report) -> str:
    """Long-form CSV: one row per populated cell, numbers only."""
    lines = ["strategy,bucket,task,correct,total,accuracy_pct"]
    for strategy in report.strategies:
        for bucket in report.buckets:
            for task in report.tasks:
                correct, total = report.cells.get((task.value, bucket, strategy), (0, 0))
                if total == 0:
                    continue
                pct = format_percent(correct / total)
                lines.append(f"{strategy},{bucket},{task.value},{correct},{total},{pct}")
    return "\n".join(lines) + "\n"


def emit_report(report: Report, fmt: str = "markdown", flag_best: bool = True) -> str:
    if fmt in ("markdown", "md"):
        return render_markdown(report, flag_best=flag_best)
    if fmt == "csv":
        return render_csv(report)
    raise ValueError(f"unknown report format {fmt!r}")


def write_rows(rows: Iterable[Mapping], path) -> None:
    """Write one sorted-key JSON line per row as it comes. ``path`` is replaced
    whole once the last is written: if ``rows`` raises, a file there keeps its bytes."""
    with _replacing(path) as fh:
        fh.writelines(map(row_line, rows))


def row_line(row: Mapping) -> str:
    """One row as a line of a row file: sorted-key JSON and a newline."""
    return json.dumps(row, sort_keys=True) + "\n"


def read_rows(path, parse: Callable[[object], _T], what: str) -> Iterator[tuple[int, _T]]:
    """Yield ``(lineno, parse(obj))`` for each non-blank line; a line that is
    not JSON, or that ``parse`` rejects, raises ``ValueError`` naming ``FILE:LINE``."""
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                row = parse(json.loads(line))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: not a {what}") from exc
            yield lineno, row


def save_records(records: Iterable[EvalRecord], path) -> None:
    write_rows((rec.to_json_obj() for rec in records), path)


def iter_records(path) -> Iterator[EvalRecord]:
    """Yield the records of a file as they are read; a line that is not a
    record raises ``ValueError`` naming ``FILE:LINE``."""
    return (rec for _, rec in read_rows(path, EvalRecord.from_json_obj, "records row"))


def load_records(path) -> list[EvalRecord]:
    """Read a records file whole, as ``iter_records`` reads it."""
    return list(iter_records(path))
