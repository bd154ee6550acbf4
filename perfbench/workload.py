"""One iteration of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per iteration so that every iteration pays
its own interpreter start and import (``setup_s``) and has its own peak
resident set size.  The last line of standard output is one JSON object with
the iteration's timings, counts, output digests and check results.

    python3 perfbench/workload.py --workload run-0shot --seed 0 \
        --dataset DIR/dataset.jsonl --work DIR/iter-1 --spawned-at <monotonic>

``--spawned-at`` is ``time.monotonic()`` read by the parent just before it
started this process; CLOCK_MONOTONIC is shared by all processes on Linux.
"""
from __future__ import annotations

import time
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import graphbench.cli  # noqa: E402  (the import is what setup_s measures)

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import threading  # noqa: E402
from time import perf_counter  # noqa: E402

from graphbench import client, evaluate, prompts  # noqa: E402
from graphbench import dataset as ds  # noqa: E402

from tracer import START, END, NAME, PARENT, Tracer, percentile_ms  # noqa: E402

PINNED = json.loads((Path(__file__).parent / "pinned.json").read_text(encoding="utf-8"))
INSTANCES = 6600
#: The scripted endpoint's latency per post, and the client's base backoff.
LATENCY_S = 0.001
PARALLEL = 2
#: One scripted 503 for each distinct prompt whose sha256 is 0 mod FAULT_MOD.
FAULT_MOD = 40
RUN_ARGS = {
    "run-0shot": ["--strategy", "0-shot"],
    "run-pseudo5shot": ["--strategy", "pseudo+5-shot", "--style", "plain"],
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sha256_file_lines(path: Path, skip: int = 0) -> str:
    """sha256 over a file's lines after the first ``skip`` ones."""
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for _ in range(skip):
            fh.readline()
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def prompts_sha256(texts) -> str:
    """sha256 over prompt texts in order, each followed by a NUL byte."""
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def line_count(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for line in fh if line.strip())


class Ctx:
    """What one iteration needs and what it reports."""

    def __init__(self, args, tracer):
        self.workload = args.workload
        self.seed = args.seed
        self.dataset = Path(args.dataset) if args.dataset else None
        self.work = Path(args.work)
        self.tracer = tracer
        self.pinned = PINNED.get(str(args.seed))
        self.checks: dict[str, bool] = {}
        self.digests: dict[str, str] = {}
        self.out = {"attempted": 0, "failed": 0}

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok)

    def check_pinned(self, name: str, value) -> None:
        """Compare with the value pinned for this seed, if there is one."""
        self.digests[name] = value
        if self.pinned is not None:
            want = self.pinned[name]
            if isinstance(want, dict):  # pinned per workload
                want = want[self.workload]
            self.check(f"pinned {name}", value == want)


def quiet_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return graphbench.cli.main(argv)


def check_dataset(ctx: Ctx, path: Path, rc: int) -> None:
    manifest = json.loads(path.with_suffix(".manifest.json").read_text(encoding="utf-8"))
    ctx.check("exit code 0", rc == 0)
    ctx.check("instance count", manifest["total"] == INSTANCES)
    ctx.check("file lines match manifest digest",
              sha256_file_lines(path, skip=1) == manifest["content_digest"])
    ctx.check_pinned("content_digest", manifest["content_digest"])
    ctx.check_pinned("dataset_bytes", path.stat().st_size)


# --- workloads ----------------------------------------------------------------


def prepare(ctx: Ctx) -> None:
    """Generate the dataset the run workloads load; untimed."""
    rc = quiet_cli(["generate", "--seed", str(ctx.seed), "--out", str(ctx.dataset)])
    check_dataset(ctx, ctx.dataset, rc)


def generate(ctx: Ctx) -> None:
    out = ctx.work / "dataset.jsonl"
    start = perf_counter()
    rc = quiet_cli(["generate", "--seed", str(ctx.seed), "--out", str(out)])
    ctx.out["wall_s"] = perf_counter() - start
    ctx.out["peak_rss_mb"] = peak_rss_mb()
    ctx.out["items"] = INSTANCES
    ctx.out["items_wall_s"] = ctx.out["wall_s"]
    ctx.out["attempted"] = INSTANCES
    check_dataset(ctx, out, rc)


def run_cli(ctx: Ctx) -> None:
    """``graphbench run`` under the oracle backend, then ``graphbench report``."""
    captured = []
    dispatch = graphbench.cli.run_prompts

    def capture(bundles, *args, **kwargs):
        captured.append(bundles)
        return dispatch(bundles, *args, **kwargs)

    graphbench.cli.run_prompts = capture
    out, cache, report = ctx.work / "out", ctx.work / "cache.jsonl", ctx.work / "report.md"
    start = perf_counter()
    rc_run = quiet_cli(["run", "--dataset", str(ctx.dataset), "--backend", "mock:oracle",
                        "--cache", str(cache), "--out", str(out), *RUN_ARGS[ctx.workload]])
    rc_report = quiet_cli(["report", "--records", str(out / "records.jsonl"),
                           "--out", str(report)])
    ctx.out["wall_s"] = perf_counter() - start
    ctx.out["peak_rss_mb"] = peak_rss_mb()
    ctx.out["items"] = INSTANCES
    ctx.out["items_wall_s"] = ctx.out["wall_s"]

    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    records = evaluate.load_records(out / "records.jsonl")
    texts = [b.text for b in captured[0]] if len(captured) == 1 else []
    distinct = len(set(texts))
    ctx.out["attempted"] = len(records)
    ctx.out["failed"] = sum(not r.correct for r in records)
    ctx.check("exit codes 0", rc_run == 0 and rc_report == 0)
    ctx.check("one dispatch of every instance", len(texts) == INSTANCES)
    ctx.check("oracle scores every instance",
              len(records) == INSTANCES and ctx.out["failed"] == 0
              and summary["correct"] == summary["total"] == INSTANCES)
    ctx.check("cache holds one line per distinct prompt", line_count(cache) == distinct)
    ctx.check("cache hits are the duplicate prompts",
              summary["cache_hits"] == INSTANCES - distinct)
    ctx.check_pinned("prompts_sha256", prompts_sha256(texts))
    ctx.check_pinned("report_sha256", hashlib.sha256(report.read_bytes()).hexdigest())


class _Reply:
    def __init__(self, status_code: int, payload=None):
        self.status_code = status_code
        self._payload = payload

    def json(self):
        return self._payload


class ScriptedSession:
    """In-process stand-in for ``requests.Session``.

    Each post sleeps LATENCY_S and answers with the gold answer, except the
    first post of each prompt in ``faulty``, which gets a 503.
    """

    def __init__(self, answers: dict[str, str], faulty: set[str]):
        self._answers = answers
        self._faulty = faulty
        self._faulted: set[str] = set()
        self._lock = threading.Lock()
        self.posts = 0

    def post(self, url, json=None, headers=None, timeout=None):
        text = json["messages"][0]["content"]
        time.sleep(LATENCY_S)
        with self._lock:
            self.posts += 1
            fault = text in self._faulty and text not in self._faulted
            if fault:
                self._faulted.add(text)
        if fault:
            return _Reply(503)
        return _Reply(200, {"choices": [{"message": {"content": self._answers[text]}}]})


def _score(instances, strategy, outcomes, path: Path):
    records = [
        evaluate.evaluate_response(
            inst, strategy, transcript.text if transcript is not None else None,
            backend_error=str(error) if error is not None else "")
        for inst, (transcript, error) in zip(instances, outcomes)
    ]
    evaluate.save_records(records, path)
    report = evaluate.emit_report(evaluate.aggregate_report(evaluate.load_records(path)))
    path.with_suffix(".md").write_text(report, encoding="utf-8")
    return records, report


def http_record_replay(ctx: Ctx) -> None:
    """Record through the HTTP backend against a scripted session, then replay."""
    strategy = prompts.Strategy.zero_shot()
    cfg = client.ModelConfig(model="scripted", endpoint="http://scripted.invalid/v1/chat")
    cache_path = ctx.work / "cache.jsonl"

    start = perf_counter()
    instances = ds.load_dataset(ctx.dataset)
    bundles = [prompts.render_prompt(inst, strategy) for inst in instances]
    rendered = perf_counter()

    # The scripted endpoint's own set-up is not part of the harness's wall.
    answers: dict[str, str] = {}
    for inst, bundle in zip(instances, bundles):
        answer = "Answer: " + prompts.format_answer(inst.gold, bundle.label_base)
        if answers.setdefault(bundle.text, answer) != answer:
            raise SystemExit(f"two gold answers for one prompt ({inst.id})")
    faulty = {t for t in answers
              if int(hashlib.sha256(t.encode("utf-8")).hexdigest(), 16) % FAULT_MOD == 0}
    session = ScriptedSession(answers, faulty)
    if ctx.tracer is not None:
        session.post = ctx.tracer.wrap("stub.post", session.post)
    stub_ready = perf_counter()

    backend = client.HttpChatBackend(session=session, base_delay=LATENCY_S)
    record_start = perf_counter()
    recorded = client.run_prompts(bundles, backend, cfg, client.ResponseCache(cache_path),
                                  parallel=PARALLEL)
    record_end = perf_counter()
    rec_records, rec_report = _score(instances, strategy, recorded, ctx.work / "record.jsonl")

    replay = client.make_backend("replay", cache_path=str(cache_path))
    replayed = client.run_prompts(bundles, replay, cfg)
    rep_records, rep_report = _score(instances, strategy, replayed, ctx.work / "replay.jsonl")
    end = perf_counter()

    ctx.out["wall_s"] = (end - start) - (stub_ready - rendered)
    ctx.out["peak_rss_mb"] = peak_rss_mb()
    ctx.out["items"] = len(bundles)
    ctx.out["items_wall_s"] = record_end - record_start
    ctx.out["record_window"] = [record_start, record_end]
    # Injected: one LATENCY_S sleep per post, plus one first backoff per fault.
    injected_s = (session.posts + len(faulty)) * LATENCY_S
    record_s = record_end - record_start
    ctx.out["overhead_ms_per_req"] = (record_s * PARALLEL - injected_s) / len(bundles) * 1000.0
    ctx.out["parallel_efficiency"] = len(bundles) * LATENCY_S / PARALLEL / record_s
    all_records = rec_records + rep_records
    ctx.out["attempted"] = len(all_records)
    ctx.out["failed"] = sum(not r.correct for r in all_records)

    ctx.check("every request completed in both passes",
              all(e is None for _, e in recorded + replayed))
    ctx.check("oracle scores every instance in both passes",
              len(rec_records) == len(rep_records) == INSTANCES and ctx.out["failed"] == 0)
    ctx.check("replay report bytes equal record report bytes", rec_report == rep_report)
    ctx.check("cache holds one line per distinct prompt", line_count(cache_path) == len(answers))
    # Every request that missed the cache ended in one successful post, so the
    # posts beyond those are retries.
    misses = sum(1 for t, _ in recorded if t is not None and not t.cached)
    ctx.check("one retry per scripted fault", session.posts - misses == len(faulty))
    ctx.check_pinned("scripted_faults", len(faulty))
    ctx.check_pinned("prompts_sha256", prompts_sha256(b.text for b in bundles))
    ctx.check_pinned("report_sha256", hashlib.sha256(rec_report.encode("utf-8")).hexdigest())


WORKLOADS = {
    "prepare": prepare,
    "generate": generate,
    "run-0shot": run_cli,
    "run-pseudo5shot": run_cli,
    "http-record-replay": http_record_replay,
}


# --- traced run ------------------------------------------------------------------


class Observed:
    """Counts taken from call results while tracing."""

    def __init__(self):
        self.stored_graphs = 0
        self.distinct_graphs: set = set()
        self.saved_bytes = 0
        self.exemplar_keys: set = set()
        self.rendered_bytes = 0
        self.cache_gets = 0
        self.cache_hits = 0
        self._exemplar_sig = inspect.signature(prompts.build_exemplars)

    def callbacks(self):
        def loaded(args, kwargs, result):
            # Stored graphs are the Graph objects held, so sharing one object
            # among instances raises the ratio; distinct is by content.
            self.stored_graphs += len({id(i.graph) for i in result})
            self.distinct_graphs.update(
                (i.graph.n, i.graph.directed, i.graph.edges) for i in result)

        def saved(args, kwargs, result):
            path = kwargs.get("path", args[1] if len(args) > 1 else None)
            self.saved_bytes += os.path.getsize(path)

        def exemplars(args, kwargs, result):
            bound = self._exemplar_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.exemplar_keys.add(tuple(bound.arguments.values()))

        def rendered(args, kwargs, result):
            self.rendered_bytes += len(result.text.encode("utf-8"))

        def cache_get(args, kwargs, result):
            self.cache_gets += 1
            self.cache_hits += result is not None

        return {
            "dataset.load_dataset": loaded,
            "dataset.save_dataset": saved,
            "prompts.build_exemplars": exemplars,
            "prompts.render_prompt": rendered,
            "client.cache.get": cache_get,
        }


def layer_metrics(ctx: Ctx, obs: Observed) -> dict[str, float]:
    t = ctx.tracer
    exemplar_calls = t.calls("prompts.build_exemplars")
    complete_spans = t.outermost("client.complete")
    window = ctx.out.get("record_window")
    if window is not None:
        complete_spans = [s for s in complete_spans
                          if window[0] <= s[START] and s[END] <= window[1]]
    durations = [s[END] - s[START] for s in complete_spans]
    posts_per_call: dict[int, int] = {}
    for span in t.spans:
        if span[NAME] == "stub.post" and span[PARENT] is not None:
            posts_per_call[id(span[PARENT])] = posts_per_call.get(id(span[PARENT]), 0) + 1
    return {
        "graphs.gen_calls": t.calls("graphs.gen"),
        "graphs.gen.busy_s": t.busy_s("graphs.gen"),
        "oracles.gold_answer.calls": t.calls("oracles.gold_answer"),
        "oracles.gold_answer.busy_s": t.busy_s("oracles.gold_answer"),
        "dataset.build_instances.calls": t.calls("dataset.build_instances"),
        "dataset.build_instances.self_s": t.self_s("dataset.build_instances"),
        "dataset.content_digest.busy_s": t.busy_s("dataset.content_digest"),
        "dataset.save_dataset.busy_s": t.busy_s("dataset.save_dataset"),
        "dataset.save_dataset.bytes": obs.saved_bytes,
        "dataset.load_dataset.self_s": t.self_s("dataset.load_dataset"),
        "dataset.verify_gold_answers.busy_s": t.busy_s("dataset.verify_gold_answers"),
        "dataset.unique_graph_ratio":
            len(obs.distinct_graphs) / obs.stored_graphs if obs.stored_graphs else 0.0,
        "prompts.render_prompt.self_s": t.self_s("prompts.render_prompt"),
        "prompts.build_exemplars.calls": exemplar_calls,
        "prompts.build_exemplars.busy_s": t.busy_s("prompts.build_exemplars"),
        "prompts.exemplar_useful_ratio":
            len(obs.exemplar_keys) / exemplar_calls if exemplar_calls else 0.0,
        "prompts.pseudocode_for.calls": t.calls("prompts.pseudocode_for"),
        "prompts.bytes_rendered": obs.rendered_bytes,
        "client.run_prompts.busy_s": t.busy_s("client.run_prompts"),
        "client.cache_key.busy_s": t.busy_s("client.cache_key"),
        "client.cache.put.calls": t.calls("client.cache.put"),
        "client.cache.put.busy_s": t.busy_s("client.cache.put"),
        "client.cache.load_s": t.busy_s("client.cache.load"),
        "client.cache.get.busy_s": t.busy_s("client.cache.get"),
        "client.cache.hit_ratio": obs.cache_hits / obs.cache_gets if obs.cache_gets else 0.0,
        "client.backend.self_s": t.self_s("client.backend.complete_text"),
        "client.http.posts": t.calls("stub.post"),
        "client.http.retries": sum(n - 1 for n in posts_per_call.values()),
        "client.req_p50_ms": percentile_ms(durations, 50),
        "client.req_p99_ms": percentile_ms(durations, 99),
        "evaluate.extract_answer.busy_s": t.busy_s("evaluate.extract_answer"),
        "evaluate.score_instance.busy_s": t.busy_s("evaluate.score_instance"),
        "evaluate.extraction_failures": t.raised("evaluate.extract_answer"),
        "evaluate.save_records.busy_s": t.busy_s("evaluate.save_records"),
        "evaluate.load_records.busy_s": t.busy_s("evaluate.load_records"),
        "evaluate.aggregate_report.busy_s": t.busy_s("evaluate.aggregate_report"),
        "evaluate.emit_report.busy_s": t.busy_s("evaluate.emit_report"),
        "cli.self_s": t.self_s("cli.main"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["setup", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dataset", default=None)
    parser.add_argument("--work", default=".")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    result = {"setup_s": IMPORTED_AT - args.spawned_at}
    if args.workload != "setup":
        tracer = obs = None
        if args.trace:
            tracer, obs = Tracer(), Observed()
            tracer.install(obs.callbacks())
        ctx = Ctx(args, tracer)
        ctx.work.mkdir(parents=True, exist_ok=True)
        WORKLOADS[args.workload](ctx)
        if tracer is not None:
            ctx.out["layers"] = layer_metrics(ctx, obs)
            missing = tracer.missing(args.workload)
            ctx.check("every required span recorded a call", not missing)
            if missing:
                print(f"spans with no calls: {', '.join(missing)}", file=sys.stderr)
        ctx.out.pop("record_window", None)
        result.update(ctx.out, checks=ctx.checks, digests=ctx.digests)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
