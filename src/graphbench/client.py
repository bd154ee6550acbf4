"""Model backends, response caching, and batched prompt execution.

The HTTP backend targets any chat-completions style endpoint. Mock backends
answer from the gold labels (perfectly or adversarially) so the whole harness
can be exercised offline, and the replay backend serves responses from a
previously recorded cache only.

Only the HTTP backend needs ``requests``, and it is imported only when that
backend opens its default session; every other backend, and an HTTP backend
given its own session, runs on the standard library alone.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence, TextIO

from .dataset import TaskInstance
from .oracles import Answer, AnswerKind, validate_topo_order
from .prompts import PromptBundle, format_answer

if TYPE_CHECKING:
    import requests


class ClientError(RuntimeError):
    """Base class for model-client failures."""


class RequestTimeout(ClientError):
    """The endpoint did not answer within the configured budget."""


class RateLimitedError(ClientError):
    """The endpoint kept returning 429 after all retries."""


class MalformedResponseError(ClientError):
    """The endpoint answered with a payload we cannot interpret."""


class CacheMissError(ClientError):
    """Replay mode was asked for a prompt that was never recorded."""


@dataclass(frozen=True)
class ModelConfig:
    """Connection and sampling settings for one evaluated model."""

    model: str = "mock"
    endpoint: str = ""
    temperature: float = 0.0
    max_tokens: int = 4096
    timeout: float = 60.0
    max_retries: int = 5
    api_key_env: str = "GRAPHBENCH_API_KEY"


@dataclass(frozen=True, slots=True)
class Transcript:
    """One resolved prompt, and one row of ``transcripts.jsonl``.

    An answered transcript has ``prompt_hash`` and ``text``; a failed one has
    ``error`` instead. ``latency_ms`` and ``cached`` are never written.
    """

    instance_id: str
    strategy: str  # the strategy's display name
    label_base: Optional[int] = None
    model: Optional[str] = None
    backend: Optional[str] = None
    prompt_hash: Optional[str] = None
    text: Optional[str] = None
    error: Optional[str] = None
    latency_ms: float = 0.0
    cached: bool = False

    def to_row(self) -> dict:
        row = {"instance_id": self.instance_id, "strategy": self.strategy,
               "label_base": self.label_base, "model": self.model, "backend": self.backend}
        if self.error is None:
            row.update(prompt_hash=self.prompt_hash, text=self.text)
        else:
            row["error"] = self.error
        return row

    @classmethod
    def from_row(cls, row: object) -> "Transcript":
        """Read a row; raise ValueError unless ``instance_id``, ``strategy`` and
        ``text`` (or, if absent, ``error``) are strings and ``label_base`` is
        missing, null or the int 0 or 1 (not a bool or float, which equal 0 or 1)."""
        if not (isinstance(row, dict) and row.get("label_base") in (None, 0, 1)
                and type(row.get("label_base")) in (int, type(None))
                and all(isinstance(row.get(key), str) for key in
                        ("instance_id", "strategy", "text" if "text" in row else "error"))):
            raise ValueError("not a transcripts row")
        text = row.get("text")
        return cls(row["instance_id"], row["strategy"], row.get("label_base"), row.get("model"),
                   row.get("backend"), row.get("prompt_hash"), text,
                   None if text is not None else row["error"])


@functools.lru_cache(maxsize=None, typed=True)
def _head_state(head: str, model: str, max_tokens: int):
    """sha256 fed the key's JSON up to and including the escaped ``head + "\n\n"``.

    Shared by every prompt of the cell and never updated once built; callers
    hash on a copy. typed=True keeps max_tokens True and 1 apart, which
    encode differently.
    """
    blob = json.dumps({"max_tokens": max_tokens, "model": model, "prompt": head + "\n\n"},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob[:-len('"}')].encode("ascii"))


def cache_key(bundle: PromptBundle, cfg: ModelConfig) -> str:
    """Digest of everything that influences the response text.

    The sha256 of ``json.dumps({"max_tokens", "model", "prompt",
    "temperature"}, sort_keys=True, separators=(",", ":"))``. The JSON is
    hashed in two pieces: the cell's head state, then the rest. ASCII
    escaping works per code point, so the escaped head and tail join to the
    escaped prompt.
    """
    h = _head_state(bundle.head, cfg.model, cfg.max_tokens).copy()
    h.update(f'{json.dumps(bundle.tail)[1:]},"temperature":{json.dumps(cfg.temperature)}}}'
             .encode("ascii"))
    return h.hexdigest()


class ResponseCache:
    """Append-only JSONL store keyed by prompt digest.

    Safe for concurrent use within one process; writes are serialized by a
    lock and flushed per record so an interrupted run loses at most the
    record being written. The first ``put`` opens one append handle, which
    stays open until ``close``. Reading never writes to the file.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: dict[str, str] = {}
        self._fh: Optional[TextIO] = None
        self._tail: Optional[tuple[int, str]] = None  # (length to keep, text to add)
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        """Read every record; note the tail that an interrupted ``put`` leaves.

        Only the final line can lack its newline. If it does not parse, it is
        a torn record: it is skipped, and the first ``put`` cuts it. If it
        parses, that ``put`` adds the newline. Any other line that does not
        parse to a ``key``/``text`` record raises ``ValueError`` naming
        ``FILE:LINE``.
        """
        whole = 0  # length of the file's prefix whose lines all parsed
        ends_line = True
        with self.path.open("rb") as fh:
            for lineno, raw in enumerate(fh, 1):
                if raw.strip():
                    try:
                        obj = json.loads(raw)
                    except ValueError as exc:
                        if raw.endswith(b"\n"):
                            raise ValueError(
                                f"{self.path}:{lineno}: not a response cache record") from exc
                        self._tail = (whole, "")
                        break
                    if not (isinstance(obj, dict) and isinstance(obj.get("key"), str)
                            and isinstance(obj.get("text"), str)):
                        raise ValueError(f"{self.path}:{lineno}: not a response cache record")
                    self._entries[obj["key"]] = obj["text"]
                whole += len(raw)
                ends_line = raw.endswith(b"\n")
        if not ends_line:
            self._tail = (whole, "\n")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[str]:
        return self._entries.get(key)

    def put(self, key: str, text: str) -> None:
        with self._lock:
            if key in self._entries:
                return
            self._entries[key] = text
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = self.path.open("a", encoding="utf-8")
                if self._tail is not None:  # repair the tail _load found
                    self._fh.truncate(self._tail[0])
                    self._fh.write(self._tail[1])
                    self._tail = None
            self._fh.write(json.dumps({"key": key, "text": text}) + "\n")
            self._fh.flush()

    def close(self) -> None:
        """Close the append handle, if open; a later ``put`` reopens it."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


class Backend:
    """Interface: turn a prompt bundle into raw response text."""

    name = "backend"

    def complete_text(self, bundle: PromptBundle, cfg: ModelConfig) -> str:
        raise NotImplementedError


class HttpChatBackend(Backend):
    """Chat-completions client with exponential backoff.

    Retries timeouts, connection failures, torn bodies, 429s and 5xx; any
    other status or ``requests`` error fails immediately. The API key is
    read from the environment variable named in the config, never from disk.
    The default session keeps ``parallel`` connections per host, and never
    fewer than ``requests``' own 10, so that many threads can share it.
    """

    name = "http"

    RETRY_STATUSES = frozenset({429, 500, 502, 503, 504})

    def __init__(
        self,
        session: Optional[requests.Session] = None,
        sleeper: Callable[[float], None] = time.sleep,
        base_delay: float = 1.0,
        parallel: int = 1,
    ):
        if session is None:
            try:
                import requests
            except ImportError as exc:
                raise ClientError(
                    f"the http backend needs the requests package: {exc}") from exc
            session = requests.Session()
            adapter = requests.adapters.HTTPAdapter(
                pool_maxsize=max(parallel, requests.adapters.DEFAULT_POOLSIZE))
            session.mount("http://", adapter)
            session.mount("https://", adapter)
        self.session = session
        self.sleeper = sleeper
        self.base_delay = base_delay

    def _headers(self, cfg: ModelConfig) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(cfg.api_key_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def complete_text(self, bundle: PromptBundle, cfg: ModelConfig) -> str:
        if not cfg.endpoint:
            raise ClientError("http backend requires an endpoint URL")
        body = {
            "model": cfg.model,
            "messages": [{"role": "user", "content": bundle.text}],
            "temperature": cfg.temperature,
            "max_tokens": cfg.max_tokens,
        }
        last_error: Optional[ClientError] = None
        for attempt in range(cfg.max_retries + 1):
            if attempt > 0:
                self.sleeper(self.base_delay * (2 ** (attempt - 1)))
            try:
                resp = self.session.post(
                    cfg.endpoint,
                    json=body,
                    headers=self._headers(cfg),
                    timeout=cfg.timeout,
                )
            except Exception as exc:
                # A requests exception exists only once requests is imported,
                # so its classes are looked up here, never imported.
                req = sys.modules.get("requests")
                if req is None or not isinstance(exc, req.RequestException):
                    raise
                if isinstance(exc, req.Timeout):
                    last_error = RequestTimeout(f"timed out after {cfg.timeout}s")
                elif isinstance(exc, (req.ConnectionError, req.exceptions.ChunkedEncodingError)):
                    last_error = ClientError(f"transport failure: {exc}")
                else:  # another try would fail the same way
                    raise ClientError(f"request failed, not retried: {exc!r}") from exc
                continue
            if resp.status_code == 429:
                last_error = RateLimitedError("rate limited (429)")
                continue
            if resp.status_code in self.RETRY_STATUSES:
                last_error = ClientError(f"server error {resp.status_code}")
                continue
            if resp.status_code != 200:
                raise ClientError(f"request failed with status {resp.status_code}")
            return self._extract_text(resp)
        assert last_error is not None
        raise last_error

    @staticmethod
    def _extract_text(resp: requests.Response) -> str:
        try:
            payload = resp.json()
        except ValueError as exc:
            raise MalformedResponseError(f"non-JSON response: {exc}") from exc
        try:
            choice = payload["choices"][0]
            if "message" in choice:
                text = choice["message"]["content"]
            else:
                text = choice["text"]
        except (KeyError, IndexError, TypeError) as exc:
            raise MalformedResponseError(f"unexpected payload shape: {exc}") from exc
        if not isinstance(text, str):
            raise MalformedResponseError("response content is not a string")
        return text


class MockOracleBackend(Backend):
    """Always answers correctly, in the requested output format."""

    name = "mock:oracle"

    def complete_text(self, bundle: PromptBundle, cfg: ModelConfig) -> str:
        rendered = format_answer(bundle.instance.gold, bundle.label_base)
        return f"Working through the graph as described.\nAnswer: {rendered}"


class MockAdversaryBackend(Backend):
    """Always answers incorrectly, but in a well-formed way.

    Useful as the floor of the harness: every response must parse, and every
    parsed answer must score as wrong.
    """

    name = "mock:adversary"

    def complete_text(self, bundle: PromptBundle, cfg: ModelConfig) -> str:
        rendered = format_answer(self._corrupt(bundle.instance), bundle.label_base)
        return f"Working through the graph as described.\nAnswer: {rendered}"

    @staticmethod
    def _corrupt(inst: TaskInstance) -> Answer:
        gold = inst.gold
        if gold.kind is AnswerKind.INT:
            return Answer.integer(int(gold.value) + 1)
        if gold.kind is AnswerKind.BOOL:
            return Answer.boolean(not gold.value)
        if gold.kind is AnswerKind.NODE_SET:
            # Toggle membership of a node that is not the queried node, so
            # the result is never accidentally equal to the true set.
            queried = set(inst.query)
            flip = 0 if 0 not in queried else 1
            members = set(gold.value)
            members.symmetric_difference_update({flip})
            return Answer.node_set(members)
        if gold.kind is AnswerKind.NODE_SEQ:
            return MockAdversaryBackend._corrupt_order(inst)
        if gold.kind is AnswerKind.EDGE_SET:
            edges = set(gold.value)
            if edges:
                edges.remove(min(edges))
            else:
                edges.add((0, 1))
            return Answer.edge_set(edges)
        raise ClientError(f"unsupported answer kind {gold.kind}")

    @staticmethod
    def _corrupt_order(inst: TaskInstance) -> Answer:
        g = inst.graph
        order = inst.gold.value
        if g.edge_count > 0:
            # Reversing a valid order violates at least one edge.
            bad = tuple(reversed(order))
            assert not validate_topo_order(g, bad)
            return Answer.node_seq(bad)
        # No edges: every permutation is valid, so break the permutation
        # property instead.
        bad = (order[0],) + order[:-1] if len(order) > 1 else (order[0], order[0])
        return Answer.node_seq(bad)


class ReplayBackend(Backend):
    """Serves only previously cached responses; never calls a model."""

    name = "replay"

    def __init__(self, cache_path: str | Path):
        path = Path(cache_path)
        if not path.exists():
            raise CacheMissError(f"replay cache not found: {path}")
        self._cache = ResponseCache(path)

    def complete_text(self, bundle: PromptBundle, cfg: ModelConfig) -> str:
        key = cache_key(bundle, cfg)
        text = self._cache.get(key)
        if text is None:
            raise CacheMissError(f"no recorded response for key {key[:12]}...")
        return text


def make_backend(
    spec: str,
    cache_path: Optional[str] = None,
    session: Optional[requests.Session] = None,
    parallel: int = 1,
) -> Backend:
    """Build a backend from its CLI name; ``parallel`` sizes the HTTP
    backend's default connection pool."""
    if spec == "mock:oracle":
        return MockOracleBackend()
    if spec == "mock:adversary":
        return MockAdversaryBackend()
    if spec == "replay":
        if not cache_path:
            raise ClientError("replay backend requires a cache path")
        return ReplayBackend(cache_path)
    if spec == "http":
        return HttpChatBackend(session=session, parallel=parallel)
    raise ClientError(f"unknown backend {spec!r}")


def complete(
    bundle: PromptBundle,
    backend: Backend,
    cfg: Optional[ModelConfig] = None,
    cache: Optional[ResponseCache] = None,
) -> Transcript:
    """Resolve one prompt, consulting and populating the cache."""
    cfg = cfg or ModelConfig()
    key = cache_key(bundle, cfg)
    text = None if cache is None else cache.get(key)
    cached = text is not None
    latency_ms = 0.0
    if not cached:
        start = time.monotonic()
        text = backend.complete_text(bundle, cfg)
        latency_ms = (time.monotonic() - start) * 1000.0
        if cache is not None:
            cache.put(key, text)
    return Transcript(bundle.instance_id, bundle.strategy.display_name, bundle.label_base,
                      cfg.model, backend.name, key, text, latency_ms=latency_ms, cached=cached)


#: How often the calling thread of a parallel run wakes while its workers run;
#: it bounds how late that thread sees a signal delivered to a worker thread.
_WAIT_PERIOD_S = 0.05
#: With a sink, how many results per worker may be done but not yet handed
#: out, while an earlier prompt is still in flight.
_AHEAD_PER_WORKER = 16

Outcome = tuple[Transcript, Optional[ClientError]]


def run_prompts(
    bundles: Sequence[PromptBundle],
    backend: Backend,
    cfg: Optional[ModelConfig] = None,
    cache: Optional[ResponseCache] = None,
    parallel: int = 1,
    sink: Optional[Callable[[Outcome], None]] = None,
) -> Optional[list[Outcome]]:
    """Resolve many prompts, preserving input order.

    Makes one (transcript, error) pair per bundle. ``error`` is set exactly
    when the prompt failed with a ``ClientError``, and then the transcript
    carries its message; such a failure never aborts the batch. Each pair
    goes to ``sink`` in input order, as soon as it and every earlier one are
    done. Without a sink, the pairs are appended to a list that is returned;
    with one, none is kept and None is returned, and at most
    ``_AHEAD_PER_WORKER`` pairs per worker wait for an earlier prompt to
    finish: a worker that would make one more waits too.

    With ``parallel == 1`` the calling thread sends each prompt, so an
    interrupt stops the request in flight. With ``parallel > 1``,
    ``min(parallel, len(bundles))`` worker threads each take the next bundle
    from one shared index, so at most ``parallel`` requests are in flight,
    and the calling thread only waits. The worker that finishes the next
    pair in order hands it out, and any done after it, one worker at a
    time. Any other exception in a worker or in ``sink``, or an interrupt in
    the calling thread, stops every worker from starting another prompt; all
    workers are joined, and the first such exception is raised.
    """
    if parallel < 1:
        raise ValueError("parallel must be at least 1")
    cfg = cfg or ModelConfig()

    def one(bundle: PromptBundle) -> Outcome:
        try:
            return complete(bundle, backend, cfg, cache), None
        except ClientError as exc:
            return Transcript(bundle.instance_id, bundle.strategy.display_name, bundle.label_base,
                              cfg.model, backend.name, error=str(exc)), exc

    results: list[Outcome] = []
    keep = sink is None
    if keep:
        sink = results.append

    if parallel == 1 or len(bundles) <= 1:
        for b in bundles:
            sink(one(b))
        return results if keep else None
    workers = min(parallel, len(bundles))
    # A returned list holds every pair anyway, so its workers never wait.
    ahead = len(bundles) if keep else _AHEAD_PER_WORKER * workers
    ready: dict[int, Outcome] = {}  # done but not handed out, by position
    lock = threading.Lock()
    done = threading.Condition(lock)  # notified as each worker returns
    room = threading.Condition(lock)  # notified as pairs go out
    taken = handed = 0  # bundles handed to workers, and pairs handed out
    handing = False  # a worker is handing pairs out
    started = finished = 0  # workers started, and workers returned
    raised: list[BaseException] = []  # non-empty stops every worker

    def hand_out(i: int, outcome: Outcome) -> None:
        nonlocal handed, handing
        with lock:
            ready[i] = outcome
            if handing:  # that worker takes this one too, in turn
                return
            handing = True
        while True:
            with lock:
                outcome = ready.pop(handed, None)
                if outcome is None:
                    handing = False
                    return
                if taken - handed >= ahead:  # a worker may wait for room
                    room.notify_all()
                handed += 1
            sink(outcome)

    def work() -> None:
        nonlocal taken, finished
        try:
            while True:
                with lock:
                    while not raised and taken < len(bundles) and taken - handed >= ahead:
                        room.wait()
                    if raised or taken == len(bundles):
                        return
                    i = taken
                    taken += 1
                hand_out(i, one(bundles[i]))
        except BaseException as exc:  # raised again in the calling thread
            with lock:
                raised.append(exc)
                room.notify_all()
        finally:
            with done:
                finished += 1
                done.notify()

    threads = [threading.Thread(target=work, name=f"run_prompts-{k}") for k in range(workers)]
    # The calling thread waits on ``done``, never in a join of a live worker:
    # on Python 3.11 an interrupt inside ``Thread.join`` can mark the thread
    # stopped while it still runs. The wait is timed, so a signal delivered to
    # a worker thread (signal.raise_signal there) is handled within a period.
    try:
        with done:  # no prompt starts until every worker has
            for thread in threads:
                thread.start()
                started += 1
            while finished < started:
                done.wait(_WAIT_PERIOD_S)
    except BaseException as exc:
        with done:
            raised.append(exc)
            room.notify_all()
            while finished < started:
                done.wait()
    for thread in threads[:started]:
        thread.join()
    if raised:
        raise raised[0]
    return results if keep else None
