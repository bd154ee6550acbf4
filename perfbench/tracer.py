"""In-memory span recorder for the traced run.

Spans are recorded from outside the program: each public function of interest
is replaced, in every graphbench module that binds it, by a wrapper that
records one span per call.  A span holds its name, start, end and parent (the
innermost open span on the same thread), plus the time its direct children
covered, so self time is the span's duration minus that.  Nothing is written
to disk; the per-layer metrics are computed from the spans when the run ends.
"""
from __future__ import annotations

import functools
import statistics
import sys
import threading
from time import perf_counter

# Span fields.
NAME, START, END, PARENT, CHILD_S, RAISED = range(6)

#: (span name, module, attribute) for functions; the wrapper is installed in
#: every graphbench module that binds the same function object, because
#: ``cli`` and ``prompts`` import names with ``from ... import``.
FUNCTION_SPANS = (
    ("cli.main", "graphbench.cli", "main"),
    ("graphs.gen", "graphbench.graphs", "gen_er"),
    ("graphs.gen", "graphbench.graphs", "gen_er_dag"),
    ("graphs.gen", "graphbench.graphs", "gen_random_bipartite"),
    ("oracles.gold_answer", "graphbench.oracles", "gold_answer"),
    ("dataset.build_instances", "graphbench.dataset", "build_instances"),
    ("dataset.content_digest", "graphbench.dataset", "content_digest"),
    ("dataset.save_dataset", "graphbench.dataset", "save_dataset"),
    ("dataset.load_dataset", "graphbench.dataset", "load_dataset"),
    ("dataset.verify_gold_answers", "graphbench.dataset", "verify_gold_answers"),
    ("prompts.render_prompt", "graphbench.prompts", "render_prompt"),
    ("prompts.build_exemplars", "graphbench.prompts", "build_exemplars"),
    ("prompts.pseudocode_for", "graphbench.prompts", "pseudocode_for"),
    ("client.run_prompts", "graphbench.client", "run_prompts"),
    ("client.complete", "graphbench.client", "complete"),
    ("client.cache_key", "graphbench.client", "cache_key"),
    ("evaluate.extract_answer", "graphbench.evaluate", "extract_answer"),
    ("evaluate.score_instance", "graphbench.evaluate", "score_instance"),
    ("evaluate.save_records", "graphbench.evaluate", "save_records"),
    ("evaluate.load_records", "graphbench.evaluate", "load_records"),
    ("evaluate.aggregate_report", "graphbench.evaluate", "aggregate_report"),
    ("evaluate.emit_report", "graphbench.evaluate", "emit_report"),
)

#: (span name, module, class, method).
METHOD_SPANS = (
    ("client.cache.load", "graphbench.client", "ResponseCache", "__init__"),
    ("client.cache.get", "graphbench.client", "ResponseCache", "get"),
    ("client.cache.put", "graphbench.client", "ResponseCache", "put"),
    ("client.backend.complete_text", "graphbench.client", "MockOracleBackend", "complete_text"),
    ("client.backend.complete_text", "graphbench.client", "HttpChatBackend", "complete_text"),
    ("client.backend.complete_text", "graphbench.client", "ReplayBackend", "complete_text"),
)

_LOAD_TO_REPORT = {
    "dataset.load_dataset", "dataset.verify_gold_answers", "oracles.gold_answer",
    "prompts.render_prompt", "client.run_prompts", "client.complete", "client.cache_key",
    "client.cache.load", "client.cache.get", "client.cache.put",
    "client.backend.complete_text", "evaluate.extract_answer", "evaluate.score_instance",
    "evaluate.save_records", "evaluate.load_records", "evaluate.aggregate_report",
    "evaluate.emit_report",
}
#: Spans that must record at least one call on each workload, because the
#: workload runs their layer.  A span that reads zero there means a wrapper
#: sits where the program no longer looks the name up.
REQUIRED_SPANS = {
    "generate": {
        "cli.main", "graphs.gen", "oracles.gold_answer", "dataset.build_instances",
        "dataset.content_digest", "dataset.save_dataset",
    },
    "run-0shot": _LOAD_TO_REPORT | {"cli.main"},
    "run-pseudo5shot": _LOAD_TO_REPORT | {
        "cli.main", "prompts.build_exemplars", "prompts.pseudocode_for", "graphs.gen",
        "dataset.build_instances",
    },
    "http-record-replay": _LOAD_TO_REPORT | {"stub.post"},
}


class Tracer:
    """Collects spans from every thread into one in-memory list."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()

    def wrap(self, name, fn, observe=None):
        """Return ``fn`` wrapped so that each call records a span.

        ``observe(args, kwargs, result)`` runs after a call that returned,
        outside the span, to count what the call produced.
        """
        spans = self.spans
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            span = [name, 0.0, 0.0, parent, 0.0, False]
            stack.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
                spans.append(span)
                if parent is not None:
                    parent[CHILD_S] += span[END] - span[START]
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def install(self, observers) -> None:
        """Wrap every function in FUNCTION_SPANS and method in METHOD_SPANS.

        ``observers`` maps a span name to an observe callback.
        """
        for name, module, attr in FUNCTION_SPANS:
            original = getattr(sys.modules[module], attr)
            wrapped = self.wrap(name, original, observers.get(name))
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "graphbench" or mod_name.startswith("graphbench."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
        for name, module, cls_name, method in METHOD_SPANS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self.wrap(name, original, observers.get(name)))

    # --- aggregation ---------------------------------------------------------

    def outermost(self, name: str) -> list[list]:
        """Spans called ``name`` with no ancestor of the same name."""
        out = []
        for span in self.spans:
            if span[NAME] != name:
                continue
            parent = span[PARENT]
            while parent is not None and parent[NAME] != name:
                parent = parent[PARENT]
            if parent is None:
                out.append(span)
        return out

    def calls(self, name: str) -> int:
        return len(self.outermost(name))

    def busy_s(self, name: str) -> float:
        return sum(s[END] - s[START] for s in self.outermost(name))

    def self_s(self, name: str) -> float:
        return sum(s[END] - s[START] - s[CHILD_S] for s in self.spans if s[NAME] == name)

    def raised(self, name: str) -> int:
        return sum(1 for s in self.spans if s[NAME] == name and s[RAISED])

    def missing(self, workload: str) -> list[str]:
        """Required spans of ``workload`` that recorded no call."""
        seen = {s[NAME] for s in self.spans}
        return sorted(REQUIRED_SPANS[workload] - seen)


def percentile_ms(durations_s: list[float], pct: int) -> float:
    """The ``pct``-th percentile of a list of durations, in milliseconds."""
    if len(durations_s) < 2:
        return sum(durations_s) * 1000.0
    return statistics.quantiles(durations_s, n=100)[pct - 1] * 1000.0
