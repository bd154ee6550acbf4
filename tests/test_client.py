import json
import threading
from contextlib import closing

import pytest
import requests

from graphbench import (
    CacheMissError,
    ClientError,
    HttpChatBackend,
    MalformedResponseError,
    MockAdversaryBackend,
    MockOracleBackend,
    ModelConfig,
    RateLimitedError,
    ReplayBackend,
    RequestTimeout,
    ResponseCache,
    SMALL,
    Strategy,
    Task,
    build_instances,
    cache_key,
    complete,
    evaluate_response,
    extract_answer,
    make_backend,
    render_prompt,
    run_prompts,
)


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
    backend = MockOracleBackend(instances)
    for inst, bundle in zip(instances, bundles):
        text = backend.complete_text(bundle, ModelConfig())
        assert "Answer:" in text
        rec = evaluate_response(inst, Strategy.zero_shot(), text)
        assert rec.correct, f"{inst.id}: {text!r}"


def test_mock_adversary_is_never_correct_but_parseable(instances, bundles):
    backend = MockAdversaryBackend(instances)
    for inst, bundle in zip(instances, bundles):
        text = backend.complete_text(bundle, ModelConfig())
        extract_answer(inst.task, text)  # must parse
        rec = evaluate_response(inst, Strategy.zero_shot(), text)
        assert not rec.correct, f"{inst.id}: {text!r}"
        assert rec.failure.value == "wrong_answer"


def test_mock_backend_unknown_instance(bundles):
    backend = MockOracleBackend([])
    with pytest.raises(ClientError):
        backend.complete_text(bundles[0], ModelConfig())


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


def test_complete_records_metadata(bundles):
    backend = CountingBackend()
    t = complete(bundles[0], backend, ModelConfig(model="m2"))
    assert t.model == "m2"
    assert t.backend == "counting"
    assert t.instance_id == bundles[0].instance_id
    assert t.prompt_hash == cache_key(bundles[0], ModelConfig(model="m2"))


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
    backend = MockOracleBackend(instances)
    results = run_prompts(bundles, backend, ModelConfig(), parallel=4)
    assert len(results) == len(bundles)
    for bundle, (transcript, error) in zip(bundles, results):
        assert error is None
        assert transcript.instance_id == bundle.instance_id


def test_run_prompts_isolates_failures(instances, bundles):
    backend = MockOracleBackend(instances[1:])  # first instance unknown
    results = run_prompts(bundles[:3], backend, ModelConfig(), parallel=2)
    assert results[0][0] is None and isinstance(results[0][1], ClientError)
    assert results[1][1] is None and results[2][1] is None


def test_run_prompts_rejects_bad_parallel(bundles):
    with pytest.raises(ValueError):
        run_prompts(bundles, CountingBackend(), parallel=0)


# --- make_backend --------------------------------------------------------------------


def test_make_backend_dispatch(tmp_path, instances):
    assert isinstance(make_backend("mock:oracle", instances), MockOracleBackend)
    assert isinstance(make_backend("mock:adversary", instances), MockAdversaryBackend)
    assert isinstance(make_backend("http"), HttpChatBackend)
    cache_path = tmp_path / "c.jsonl"
    with closing(ResponseCache(cache_path)) as cache:
        cache.put("k", "v")
    assert isinstance(make_backend("replay", cache_path=str(cache_path)), ReplayBackend)
    with pytest.raises(ClientError):
        make_backend("replay")
    with pytest.raises(ClientError):
        make_backend("nonsense")
