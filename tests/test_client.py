import dataclasses
import hashlib
import json
import random
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing

import pytest
import requests

import graphbench.client as client
from graphbench import (
    CacheMissError,
    ClientError,
    HttpChatBackend,
    MalformedResponseError,
    MockAdversaryBackend,
    MockOracleBackend,
    ModelConfig,
    PromptBundle,
    PseudocodeStyle,
    RateLimitedError,
    ReplayBackend,
    RequestTimeout,
    ResponseCache,
    SMALL,
    Strategy,
    Task,
    Transcript,
    build_instances,
    cache_key,
    complete,
    evaluate_response,
    extract_answer,
    make_backend,
    render_prompt,
    run_prompts,
)

from conftest import subprocess_env


@pytest.fixture(scope="module")
def instances():
    out = []
    for task in (Task.EDGE_COUNT, Task.CYCLE_CHECK, Task.NEIGHBORS,
                 Task.MST, Task.TOPOLOGICAL_SORT, Task.SHORTEST_PATH):
        out.extend(build_instances(task, SMALL, master_seed=0, graph_count=2))
    return out


@pytest.fixture(scope="module")
def bundles(instances):
    return [render_prompt(i, Strategy.zero_shot()) for i in instances]


# --- cache keys -----------------------------------------------------------------


def test_cache_key_deterministic(bundles):
    cfg = ModelConfig()
    assert cache_key(bundles[0], cfg) == cache_key(bundles[0], cfg)


def test_cache_key_sensitive_to_inputs(bundles):
    base = cache_key(bundles[0], ModelConfig())
    assert cache_key(bundles[1], ModelConfig()) != base
    assert cache_key(bundles[0], ModelConfig(model="other")) != base
    assert cache_key(bundles[0], ModelConfig(temperature=0.7)) != base
    assert cache_key(bundles[0], ModelConfig(max_tokens=128)) != base


def whole_json_key(bundle, cfg):
    """The key as it was first defined: sha256 of the whole payload's JSON."""
    payload = {"prompt": bundle.text, "model": cfg.model,
               "temperature": cfg.temperature, "max_tokens": cfg.max_tokens}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class EscapeHeavyBundle(PromptBundle):
    """A bundle whose tail, unlike any rendered one, needs JSON escapes."""

    @property
    def tail(self):
        return 'tail: naïve — 𝔾𝕣𝕒𝕡𝕙 "quoted" back\\slash\ttab\x00 \ud800 end'


CONFIGS = [
    ModelConfig(),
    ModelConfig(temperature=0),
    ModelConfig(temperature=1),
    ModelConfig(temperature=0.7),
    ModelConfig(temperature=-0.0),
    ModelConfig(temperature=1e-7),
    ModelConfig(max_tokens=1),
    ModelConfig(max_tokens=True),  # equal to 1 as a dict key, but encodes as true
    ModelConfig(model="mödel-𝔾 “v2”", max_tokens=128),
]


def test_cache_key_matches_whole_json_formula(instances):
    strategies = [Strategy.zero_shot(), Strategy.bag(),
                  Strategy.pseudo_k_shot(PseudocodeStyle.PYTHON, 2)]
    bundles = [render_prompt(inst, strategy) for inst in instances for strategy in strategies]
    bundles += [
        EscapeHeavyBundle(head="head: ünïcode ✓ 😀 \"q\" \\ \x7f\u2028", instance=instances[0],
                          strategy=Strategy.zero_shot(), label_base=0),
        PromptBundle(head="𝔾 astral head", instance=instances[1], strategy=Strategy.bag(),
                     label_base=1),
        PromptBundle(head="", instance=instances[2], strategy=Strategy.zero_shot(), label_base=0),
    ]
    # Each config is tried before and after the others, so a head state cached
    # under one config can never answer for another.
    for cfg in CONFIGS + CONFIGS[::-1]:
        for bundle in bundles:
            assert cache_key(bundle, cfg) == whole_json_key(bundle, cfg), (bundle.head[:20], cfg)


def test_cache_key_from_four_threads_matches_whole_json_formula(instances):
    bundles = [render_prompt(inst, strategy) for inst in instances
               for strategy in (Strategy.k_shot(2), Strategy.zero_cot())]
    jobs = [(b, cfg) for cfg in CONFIGS for b in bundles] * 3
    want = [whole_json_key(b, cfg) for b, cfg in jobs]
    client._head_state.cache_clear()  # so the threads race to build each state
    start = threading.Barrier(4, timeout=60)

    def keys(part):
        start.wait()
        return [cache_key(b, cfg) for b, cfg in jobs[part::4]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(keys, part) for part in range(4)]
            parts = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for part, got in enumerate(parts):
        assert got == want[part::4]


# --- response cache ----------------------------------------------------------------


def test_cache_put_get_persists(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(path)
    assert len(cache) == 0
    cache.put("k1", "hello")
    cache.put("k1", "ignored duplicate")
    cache.close()
    assert cache.get("k1") == "hello"
    assert "k1" in cache
    reopened = ResponseCache(path)
    assert reopened.get("k1") == "hello"
    assert len(reopened) == 1


def test_cache_concurrent_writers(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(path)

    def writer(base):
        for i in range(25):
            cache.put(f"key-{base}-{i}", f"text-{base}-{i}")

    threads = [threading.Thread(target=writer, args=(t,)) for t in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    cache.close()
    reopened = ResponseCache(path)
    assert len(reopened) == 200
    for line in path.read_text(encoding="utf-8").splitlines():
        json.loads(line)  # every line intact


def test_cache_opens_one_handle_and_flushes_each_record(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    opened = []
    real_open = type(path).open

    def counting_open(self, *args, **kwargs):
        opened.append(args[0] if args else kwargs.get("mode", "r"))
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(type(path), "open", counting_open)
    cache = ResponseCache(path)
    for i in range(5):
        cache.put(f"k{i}", f"text {i}")
        # A second reader opened mid-run sees every record flushed so far.
        assert len(ResponseCache(path)) == i + 1
    assert opened.count("a") == 1
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["key"] for line in lines] == [f"k{i}" for i in range(5)]
    cache.close()
    cache.close()  # idempotent
    cache.put("k5", "text 5")  # a put after close reopens the file
    cache.close()
    assert opened.count("a") == 2
    assert len(ResponseCache(path)) == 6


def _record(key, text):
    return json.dumps({"key": key, "text": text}) + "\n"


def test_cache_resumes_after_torn_trailing_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    whole = _record("k1", "one") + _record("k2", "two")
    torn = whole + _record("k3", "three")[:-9]
    path.write_text(torn, encoding="utf-8")
    resumed = ResponseCache(path)
    assert len(resumed) == 2 and "k3" not in resumed
    assert path.read_text(encoding="utf-8") == torn  # loading writes nothing
    resumed.put("k3", "three")
    resumed.close()
    # The first put cuts the torn record and appends on a fresh line.
    assert path.read_text(encoding="utf-8") == whole + _record("k3", "three")
    reopened = ResponseCache(path)
    assert [reopened.get(k) for k in ("k1", "k2", "k3")] == ["one", "two", "three"]


def test_cache_completes_unterminated_final_record(tmp_path):
    path = tmp_path / "cache.jsonl"
    unterminated = _record("k1", "one") + _record("k2", "two")[:-1]
    path.write_text(unterminated, encoding="utf-8")
    resumed = ResponseCache(path)
    assert resumed.get("k2") == "two"
    assert path.read_text(encoding="utf-8") == unterminated  # loading writes nothing
    resumed.put("k3", "three")
    resumed.close()
    assert path.read_text(encoding="utf-8") == unterminated + "\n" + _record("k3", "three")
    assert len(ResponseCache(path)) == 3


@pytest.mark.parametrize("corrupt_at", [0, 1])
def test_cache_rejects_corrupt_line_before_the_end(tmp_path, corrupt_at):
    lines = [_record("k1", "one"), _record("k2", "two")]
    lines[corrupt_at] = lines[corrupt_at][:-9] + "\n"
    path = tmp_path / "cache.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{path}:{corrupt_at + 1}: not a response cache record$"):
        ResponseCache(path)
    assert path.read_text(encoding="utf-8") == "".join(lines)  # left untouched


@pytest.mark.parametrize("line", [
    '{"instance_id": "mst-S-000-0", "strategy": "0-shot", "text": "Answer: 1"}',
    '{"key": 7, "text": "seven"}',
    '{"key": "k2", "text": null}',
    '["k2", "two"]',
    '"k2"',
], ids=["transcripts-row", "int-key", "null-text", "list", "string"])
@pytest.mark.parametrize("newline", ["\n", ""], ids=["ended", "unended"])
def test_cache_rejects_a_line_that_is_not_a_record(tmp_path, line, newline):
    path = tmp_path / "cache.jsonl"
    whole = _record("k1", "one") + line + newline
    path.write_text(whole, encoding="utf-8")
    with pytest.raises(ValueError, match=f"{path}:2: not a response cache record"):
        ResponseCache(path)
    assert path.read_text(encoding="utf-8") == whole  # left untouched


# --- mock backends -----------------------------------------------------------------


def test_mock_oracle_is_always_correct(instances, bundles):
    backend = MockOracleBackend()
    for inst, bundle in zip(instances, bundles):
        text = backend.complete_text(bundle, ModelConfig())
        assert "Answer:" in text
        rec = evaluate_response(inst, Strategy.zero_shot(), text)
        assert rec.correct, f"{inst.id}: {text!r}"


def test_mock_adversary_is_never_correct_but_parseable(instances, bundles):
    backend = MockAdversaryBackend()
    for inst, bundle in zip(instances, bundles):
        text = backend.complete_text(bundle, ModelConfig())
        extract_answer(inst.task, text)  # must parse
        rec = evaluate_response(inst, Strategy.zero_shot(), text)
        assert not rec.correct, f"{inst.id}: {text!r}"
        assert rec.failure.value == "wrong_answer"


# --- http backend -----------------------------------------------------------------


class StubResponse:
    def __init__(self, status_code=200, payload=None, bad_json=False):
        self.status_code = status_code
        self._payload = payload
        self._bad_json = bad_json

    def json(self):
        if self._bad_json:
            raise ValueError("not json")
        return self._payload


class StubSession:
    """Scripted replacement for requests.Session."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def chat_payload(text):
    return {"choices": [{"message": {"content": text}}]}


CFG = ModelConfig(model="m", endpoint="https://example.test/v1/chat", max_retries=3)


def make_http(script):
    sleeps = []
    backend = HttpChatBackend(session=StubSession(script), sleeper=sleeps.append)
    return backend, sleeps


def test_http_success_chat_shape(bundles):
    backend, _ = make_http([StubResponse(payload=chat_payload("Answer: 3"))])
    assert backend.complete_text(bundles[0], CFG) == "Answer: 3"
    call = backend.session.calls[0]
    assert call["json"]["model"] == "m"
    assert call["json"]["temperature"] == 0.0
    assert call["json"]["messages"][0]["content"] == bundles[0].text


def test_http_success_legacy_text_shape(bundles):
    backend, _ = make_http([StubResponse(payload={"choices": [{"text": "Answer: 4"}]})])
    assert backend.complete_text(bundles[0], CFG) == "Answer: 4"


def test_http_retries_429_with_exponential_backoff(bundles):
    backend, sleeps = make_http([
        StubResponse(status_code=429),
        StubResponse(status_code=429),
        StubResponse(payload=chat_payload("ok")),
    ])
    assert backend.complete_text(bundles[0], CFG) == "ok"
    assert sleeps == [1.0, 2.0]


def test_http_retries_server_errors_and_timeouts(bundles):
    backend, sleeps = make_http([
        StubResponse(status_code=503),
        requests.Timeout("slow"),
        StubResponse(payload=chat_payload("ok")),
    ])
    assert backend.complete_text(bundles[0], CFG) == "ok"
    assert len(sleeps) == 2


def test_http_gives_up_after_max_retries(bundles):
    backend, sleeps = make_http([StubResponse(status_code=429)] * 4)
    with pytest.raises(RateLimitedError):
        backend.complete_text(bundles[0], CFG)
    assert sleeps == [1.0, 2.0, 4.0]


def test_http_timeout_exhaustion_raises_timeout(bundles):
    backend, _ = make_http([requests.Timeout("slow")] * 4)
    with pytest.raises(RequestTimeout):
        backend.complete_text(bundles[0], CFG)


def test_http_client_error_fails_fast(bundles):
    backend, sleeps = make_http([StubResponse(status_code=400)])
    with pytest.raises(ClientError):
        backend.complete_text(bundles[0], CFG)
    assert sleeps == []
    assert len(backend.session.calls) == 1


def test_http_malformed_payloads(bundles):
    backend, _ = make_http([StubResponse(bad_json=True)])
    with pytest.raises(MalformedResponseError):
        backend.complete_text(bundles[0], CFG)
    backend, _ = make_http([StubResponse(payload={"unexpected": True})])
    with pytest.raises(MalformedResponseError):
        backend.complete_text(bundles[0], CFG)
    backend, _ = make_http([StubResponse(payload={"choices": [{"message": {"content": 5}}]})])
    with pytest.raises(MalformedResponseError):
        backend.complete_text(bundles[0], CFG)


def test_http_requires_endpoint(bundles):
    backend, _ = make_http([])
    with pytest.raises(ClientError):
        backend.complete_text(bundles[0], ModelConfig(endpoint=""))


def test_http_api_key_from_env_only(bundles, monkeypatch):
    monkeypatch.delenv("GRAPHBENCH_API_KEY", raising=False)
    backend, _ = make_http([StubResponse(payload=chat_payload("ok"))])
    backend.complete_text(bundles[0], CFG)
    assert "Authorization" not in backend.session.calls[0]["headers"]

    monkeypatch.setenv("GRAPHBENCH_API_KEY", "sk-test")
    backend, _ = make_http([StubResponse(payload=chat_payload("ok"))])
    backend.complete_text(bundles[0], CFG)
    assert backend.session.calls[0]["headers"]["Authorization"] == "Bearer sk-test"


def test_http_retries_connection_errors_as_transport_failures(bundles):
    backend, sleeps = make_http([requests.ConnectionError("refused"),
                                 StubResponse(payload=chat_payload("ok"))])
    assert backend.complete_text(bundles[0], CFG) == "ok"
    assert sleeps == [1.0]

    backend, sleeps = make_http([requests.ConnectionError("refused")] * 4)
    with pytest.raises(ClientError, match="^transport failure: refused$") as info:
        backend.complete_text(bundles[0], CFG)
    assert type(info.value) is ClientError
    assert sleeps == [1.0, 2.0, 4.0]


@pytest.mark.parametrize("error", [
    requests.exceptions.MissingSchema("Invalid URL '/v1/chat': No scheme supplied"),
    requests.exceptions.InvalidJSONError("Out of range float values are not JSON compliant"),
], ids=["MissingSchema", "InvalidJSONError"])
def test_http_request_that_cannot_be_sent_fails_without_retry(bundles, error):
    # Raised while the request is built: every retry would raise it again.
    backend, sleeps = make_http([error, StubResponse(payload=chat_payload("ok"))])
    fault = f"^request failed, not retried: {type(error).__name__}"
    with pytest.raises(ClientError, match=fault) as info:
        backend.complete_text(bundles[0], CFG)
    assert type(info.value) is ClientError and info.value.__cause__ is error
    assert len(backend.session.calls) == 1
    assert sleeps == []


def test_http_retries_a_body_torn_mid_read(bundles):
    backend, sleeps = make_http([requests.exceptions.ChunkedEncodingError("torn"),
                                 StubResponse(payload=chat_payload("ok"))])
    assert backend.complete_text(bundles[0], CFG) == "ok"
    assert sleeps == [1.0]


def test_http_other_exceptions_propagate_without_retry(bundles):
    boom = RuntimeError("boom")
    backend, sleeps = make_http([boom, StubResponse(payload=chat_payload("ok"))])
    with pytest.raises(RuntimeError) as info:
        backend.complete_text(bundles[0], CFG)
    assert info.value is boom
    assert len(backend.session.calls) == 1
    assert sleeps == []


def test_http_backend_without_requests_is_a_client_error(monkeypatch):
    monkeypatch.setitem(sys.modules, "requests", None)  # makes `import requests` fail
    with pytest.raises(ClientError, match="needs the requests package"):
        make_backend("http")
    backend = make_backend("http", session=StubSession([]))  # a given session needs none
    assert backend.session.calls == []


def test_requests_is_imported_only_when_used_and_a_thread_pool_never():
    # A fresh interpreter, so no other test's imports count.
    script = """
import sys
import graphbench.cli
from graphbench import SMALL, Strategy, Task, build_instances, client, render_prompt
assert "requests" not in sys.modules and "concurrent.futures" not in sys.modules

class Reply:
    status_code = 200

    def json(self):
        return {"choices": [{"message": {"content": "Answer: 1"}}]}

class Session:
    def __init__(self, error=None):
        self.error = error

    def post(self, url, json=None, headers=None, timeout=None):
        if self.error is not None:
            raise self.error
        return Reply()

bundles = [render_prompt(inst, Strategy.zero_shot())
           for inst in build_instances(Task.EDGE_COUNT, SMALL, 0, 2)]
assert len(bundles) == 2
cfg = client.ModelConfig(endpoint="https://example.test/v1/chat")
backend = client.HttpChatBackend(session=Session())
assert [t.text for t, _ in client.run_prompts(bundles, backend, cfg)] == ["Answer: 1"] * 2
try:  # the except path looks the requests classes up; it must not import them
    client.HttpChatBackend(session=Session(KeyError("k"))).complete_text(bundles[0], cfg)
except KeyError:
    pass
assert "requests" not in sys.modules and "concurrent.futures" not in sys.modules
outcomes = client.run_prompts(bundles, backend, cfg, parallel=2)
assert [t.text for t, _ in outcomes] == ["Answer: 1"] * 2
assert "requests" not in sys.modules and "concurrent.futures" not in sys.modules

backend = client.make_backend("http")
import requests
assert isinstance(backend.session, requests.Session)
"""
    proc = subprocess.run([sys.executable, "-c", script], env=subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# --- complete() and caching ----------------------------------------------------------


class CountingBackend:
    name = "counting"

    def __init__(self, text="Answer: 1"):
        self.calls = 0
        self.text = text

    def complete_text(self, bundle, cfg):
        self.calls += 1
        return self.text


def test_complete_uses_cache(tmp_path, bundles):
    cache = ResponseCache(tmp_path / "cache.jsonl")
    backend = CountingBackend()
    first = complete(bundles[0], backend, ModelConfig(), cache)
    second = complete(bundles[0], backend, ModelConfig(), cache)
    cache.close()
    assert backend.calls == 1
    assert not first.cached and second.cached
    assert first.text == second.text
    assert second.latency_ms == 0.0


def test_complete_records_metadata(instances):
    bundle = render_prompt(instances[2], Strategy.pseudo_k_shot(PseudocodeStyle.MULTI, 2),
                           label_base=1)
    backend = CountingBackend()
    t = complete(bundle, backend, ModelConfig(model="m2"))
    assert t.model == "m2"
    assert t.backend == "counting"
    assert t.instance_id == bundle.instance_id
    assert t.strategy == "Pseudo+2-shot"
    assert t.label_base == 1
    assert t.prompt_hash == cache_key(bundle, ModelConfig(model="m2"))
    assert t.error is None


# --- transcripts rows ---------------------------------------------------------------


def test_transcript_rows_round_trip(tmp_path, bundles):
    cache_path = tmp_path / "cache.jsonl"
    with closing(ResponseCache(cache_path)) as cache:
        answered = complete(bundles[0], CountingBackend(), ModelConfig(), cache)
        cached = complete(bundles[0], CountingBackend(), ModelConfig(), cache)
    replayed = complete(bundles[0], ReplayBackend(cache_path), ModelConfig())
    failed = Transcript(bundles[1].instance_id, "0-shot", 0, "mock", "replay",
                        error="no recorded response")
    assert cached.cached and replayed.backend == "replay"
    for t in (answered, cached, replayed, failed):
        row = t.to_row()
        assert "latency_ms" not in row and "cached" not in row
        assert Transcript.from_row(json.loads(json.dumps(row))) == \
            dataclasses.replace(t, latency_ms=0.0, cached=False)
    common = {"instance_id", "strategy", "label_base", "model", "backend"}
    assert set(failed.to_row()) == common | {"error"}
    assert set(answered.to_row()) == common | {"prompt_hash", "text"}


@pytest.mark.parametrize("row", [
    {"instance_id": "i", "strategy": "0-shot", "text": "t"},
    {"instance_id": "i", "strategy": "0-shot", "text": "t", "label_base": None},
    {"instance_id": "i", "strategy": "0-shot", "error": "e", "label_base": 1},
    {"instance_id": "i", "strategy": "0-shot", "text": "t", "error": 5, "label_base": 0},
])
def test_transcript_from_row_accepts(row):
    t = Transcript.from_row(row)
    assert (t.instance_id, t.text, t.label_base) == ("i", row.get("text"), row.get("label_base"))
    assert (t.error is None) == ("text" in row)


# --- replay -------------------------------------------------------------------------


def test_replay_serves_recorded_responses(tmp_path, bundles):
    cache_path = tmp_path / "cache.jsonl"
    cache = ResponseCache(cache_path)
    cfg = ModelConfig()
    cache.put(cache_key(bundles[0], cfg), "recorded text")
    cache.close()
    replay = ReplayBackend(cache_path)
    assert replay.complete_text(bundles[0], cfg) == "recorded text"
    with pytest.raises(CacheMissError):
        replay.complete_text(bundles[1], cfg)


def test_replay_requires_existing_file(tmp_path):
    with pytest.raises(CacheMissError):
        ReplayBackend(tmp_path / "missing.jsonl")


# --- run_prompts ---------------------------------------------------------------------


def test_run_prompts_preserves_order(instances, bundles):
    backend = MockOracleBackend()
    results = run_prompts(bundles, backend, ModelConfig(), parallel=4)
    assert len(results) == len(bundles)
    for bundle, (transcript, error) in zip(bundles, results):
        assert error is None
        assert transcript.instance_id == bundle.instance_id


class FailingBackend(CountingBackend):
    """Fails on one instance and answers every other."""

    def __init__(self, failing_id):
        super().__init__()
        self.failing_id = failing_id

    def complete_text(self, bundle, cfg):
        if bundle.instance_id == self.failing_id:
            raise ClientError(f"cannot answer {self.failing_id}")
        return super().complete_text(bundle, cfg)


def test_run_prompts_isolates_failures(bundles):
    backend = FailingBackend(bundles[1].instance_id)
    results = run_prompts(bundles[:3], backend, ModelConfig(model="m"), parallel=2)
    (first, first_error), (failed, error), (last, last_error) = results
    assert first_error is None and last_error is None and isinstance(error, ClientError)
    assert [first.instance_id, last.instance_id] == [bundles[0].instance_id, bundles[2].instance_id]
    assert first.error is None and last.error is None
    # The failed prompt's transcript is built where it failed, and holds no answer.
    assert failed.error == str(error) == f"cannot answer {bundles[1].instance_id}"
    assert failed.to_row() == {
        "instance_id": bundles[1].instance_id,
        "strategy": bundles[1].strategy.display_name,
        "label_base": bundles[1].label_base,
        "model": "m",
        "backend": backend.name,
        "error": str(error),
    }
    assert failed.prompt_hash is None and failed.text is None


def test_run_prompts_rejects_bad_parallel(bundles):
    with pytest.raises(ValueError):
        run_prompts(bundles, CountingBackend(), parallel=0)


def numbered(bundles, count):
    """``count`` distinct bundles, the k-th with head ``str(k)``."""
    return [dataclasses.replace(bundles[k % len(bundles)], head=str(k)) for k in range(count)]


class ScriptedBackend:
    """Answers each prompt with its head after ``delay(call)`` seconds, where
    ``call`` is the 1-based order in which calls started; counts the calls
    in flight at once, and the calls made for each head."""

    name = "scripted"

    def __init__(self, delay):
        self.delay = delay
        self.lock = threading.Lock()
        self.started = self.in_flight = self.peak = 0
        self.heads = []

    def complete_text(self, bundle, cfg):
        with self.lock:
            self.started += 1
            call = self.started
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            self.heads.append(bundle.head)
        try:
            time.sleep(self.delay(call))
            return bundle.head
        finally:
            with self.lock:
                self.in_flight -= 1


@pytest.mark.parametrize("parallel", [2, 4, 8])
def test_run_prompts_keeps_order_and_at_most_parallel_in_flight(bundles, parallel):
    batch = numbered(bundles, 300)
    rng = random.Random(parallel)
    backend = ScriptedBackend(lambda call: rng.random() * 0.002)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # so a lost update of the shared index shows
    try:
        results = run_prompts(batch, backend, ModelConfig(), parallel=parallel)
    finally:
        sys.setswitchinterval(interval)
    assert [(t.text, error) for t, error in results] == [(b.head, None) for b in batch]
    assert sorted(backend.heads, key=int) == [b.head for b in batch]  # each sent once
    assert 1 < backend.peak <= parallel


@pytest.mark.parametrize("parallel", [2, 4])
def test_run_prompts_stops_dispatch_after_a_backend_bug(bundles, parallel):
    before = set(threading.enumerate())

    def delay(call):
        if call == 10:
            raise RuntimeError("backend bug")
        return 0.002

    backend = ScriptedBackend(delay)
    with pytest.raises(RuntimeError, match="backend bug"):
        run_prompts(numbered(bundles, 300), backend, ModelConfig(), parallel=parallel)
    assert backend.started <= 10 + parallel
    assert set(threading.enumerate()) <= before


@pytest.mark.parametrize("parallel", [2, 4])
def test_run_prompts_stops_dispatch_on_an_interrupt(bundles, parallel):
    before = set(threading.enumerate())

    def delay(call):
        if call == 5:
            signal.raise_signal(signal.SIGINT)
        # Each later request outlasts the calling thread's wake period, so a
        # worker can start at most one more before the interrupt is seen.
        return 0.0 if call <= 5 else 0.25

    backend = ScriptedBackend(delay)
    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            run_prompts(numbered(bundles, 100), backend, ModelConfig(), parallel=parallel)
    finally:
        signal.signal(signal.SIGINT, handler)
    assert 5 <= backend.started <= 5 + parallel
    assert set(threading.enumerate()) <= before


@pytest.mark.parametrize("parallel", [1, 2, 4, 8])
def test_run_prompts_hands_each_pair_to_the_sink_in_order(bundles, parallel):
    batch = numbered(bundles, 300)
    rng = random.Random(parallel)
    backend = ScriptedBackend(lambda call: rng.random() * 0.002)
    handed = []
    assert run_prompts(batch, backend, ModelConfig(), parallel=parallel,
                       sink=lambda pair: handed.append(pair[0].text)) is None
    assert handed == [b.head for b in batch]
    assert sorted(backend.heads, key=int) == handed  # each sent once


@pytest.mark.parametrize("sink", [False, True])
def test_run_prompts_bounds_the_pairs_that_wait_for_a_slow_one(bundles, sink):
    """While the first prompt is in flight, the other workers run ahead by at
    most ``_AHEAD_PER_WORKER`` pairs per worker when a sink takes the pairs,
    and through the whole batch when a list keeps them anyway."""
    batch = numbered(bundles, 200)
    release = threading.Event()
    ahead = client._AHEAD_PER_WORKER * 4

    def delay(call):
        if call == 1:
            release.wait(10)
        return 0.0

    backend = ScriptedBackend(delay)
    handed = []
    run = threading.Thread(target=run_prompts, args=(batch, backend, ModelConfig()),
                           kwargs={"parallel": 4, "sink": handed.append if sink else None})
    run.start()
    try:
        deadline = time.monotonic() + 10
        want = ahead if sink else len(batch)
        while backend.started < want and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.05)  # time enough to start one more, were it allowed
        assert backend.started == want
        assert handed == []
    finally:
        release.set()
        run.join()
    assert [t.text for t, _ in handed] == ([b.head for b in batch] if sink else [])


@pytest.mark.parametrize("parallel", [1, 2, 4])
def test_run_prompts_stops_dispatch_when_the_sink_fails(bundles, parallel):
    before = set(threading.enumerate())
    backend = ScriptedBackend(lambda call: 0.001)
    handed = []

    def sink(pair):
        if len(handed) == 10:
            raise OSError("disk full")
        handed.append(pair)

    with pytest.raises(OSError, match="disk full"):
        run_prompts(numbered(bundles, 300), backend, ModelConfig(), parallel=parallel,
                    sink=sink)
    assert len(handed) == 10
    assert backend.started <= 11 + client._AHEAD_PER_WORKER * parallel
    assert set(threading.enumerate()) <= before


def test_run_prompts_dispatch_state_does_not_grow_with_the_batch(bundles):
    batch = numbered(bundles, 2000)
    backend = ScriptedBackend(lambda call: 0.0)
    tracemalloc.start()
    try:
        results = run_prompts(batch, backend, ModelConfig(), parallel=4)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [t.text for t, _ in results] == [b.head for b in batch]
    # About 1.4 KB per prompt when each prompt had its own future.
    assert peak - retained < 500_000


# --- make_backend --------------------------------------------------------------------


def test_make_backend_dispatch(tmp_path):
    assert isinstance(make_backend("mock:oracle"), MockOracleBackend)
    assert isinstance(make_backend("mock:adversary"), MockAdversaryBackend)
    assert isinstance(make_backend("http"), HttpChatBackend)
    cache_path = tmp_path / "c.jsonl"
    with closing(ResponseCache(cache_path)) as cache:
        cache.put("k", "v")
    assert isinstance(make_backend("replay", cache_path=str(cache_path)), ReplayBackend)
    with pytest.raises(ClientError):
        make_backend("replay")
    with pytest.raises(ClientError):
        make_backend("nonsense")
