"""Model backends, response caching, and batched prompt execution.

The HTTP backend targets any chat-completions style endpoint. Mock backends
answer from the gold labels (perfectly or adversarially) so the whole harness
can be exercised offline, and the replay backend serves responses from a
previously recorded cache only.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence

import requests

from .dataset import TaskInstance
from .oracles import Answer, AnswerKind, adjacency, topo_order, validate_topo_order
from .prompts import PromptBundle, format_answer


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


@dataclass(frozen=True)
class Transcript:
    """One resolved prompt: what was asked, what came back, and from where."""

    instance_id: str
    prompt_hash: str
    model: str
    text: str
    backend: str
    latency_ms: float
    cached: bool = False


def cache_key(bundle: PromptBundle, cfg: ModelConfig) -> str:
    """Digest of everything that influences the response text."""
    payload = {
        "prompt": bundle.text,
        "model": cfg.model,
        "temperature": cfg.temperature,
        "max_tokens": cfg.max_tokens,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResponseCache:
    """Append-only JSONL store keyed by prompt digest.

    Safe for concurrent use within one process; writes are serialized by a
    lock and flushed per record so an interrupted run loses at most the
    record being written.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: dict[str, str] = {}
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        """Read every record; repair the tail that an interrupted ``put`` leaves.

        Only the final line can lack its newline. If it does not parse, it is
        a torn record: it is skipped and cut from the file. If it parses, the
        newline is added. Either way the next ``put`` starts a fresh line. A
        line that does not parse anywhere else means corruption and raises.
        """
        whole = 0  # length of the file's prefix whose lines all parsed
        ends_line = True
        torn = False
        with self.path.open("rb") as fh:
            for raw in fh:
                if raw.strip():
                    try:
                        obj = json.loads(raw)
                    except ValueError:
                        if raw.endswith(b"\n"):
                            raise
                        torn = True
                        break
                    self._entries[obj["key"]] = obj["text"]
                whole += len(raw)
                ends_line = raw.endswith(b"\n")
        if torn or not ends_line:
            with self.path.open("r+b") as fh:
                fh.truncate(whole)
                if not ends_line:
                    fh.seek(whole)
                    fh.write(b"\n")

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
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps({"key": key, "text": text}) + "\n")
                fh.flush()


class Backend:
    """Interface: turn a prompt bundle into raw response text."""

    name = "backend"

    def complete_text(self, bundle: PromptBundle, cfg: ModelConfig) -> str:
        raise NotImplementedError


class HttpChatBackend(Backend):
    """Chat-completions client with exponential backoff.

    Retries timeouts, 429s, and 5xx responses; 4xx responses other than 429
    fail immediately. The API key is read from the environment variable named
    in the config, never from disk.
    """

    name = "http"

    RETRY_STATUSES = frozenset({429, 500, 502, 503, 504})

    def __init__(
        self,
        session: Optional[requests.Session] = None,
        sleeper: Callable[[float], None] = time.sleep,
        base_delay: float = 1.0,
    ):
        self.session = session or requests.Session()
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
            except requests.Timeout:
                last_error = RequestTimeout(f"timed out after {cfg.timeout}s")
                continue
            except requests.RequestException as exc:
                last_error = ClientError(f"transport failure: {exc}")
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


class _InstanceBackedBackend(Backend):
    """Shared lookup for backends that answer from the gold labels."""

    def __init__(self, instances: Iterable[TaskInstance]):
        self._by_id = {inst.id: inst for inst in instances}

    def _lookup(self, bundle: PromptBundle) -> TaskInstance:
        inst = self._by_id.get(bundle.instance_id)
        if inst is None:
            raise ClientError(f"no instance with id {bundle.instance_id!r}")
        return inst


class MockOracleBackend(_InstanceBackedBackend):
    """Always answers correctly, in the requested output format."""

    name = "mock:oracle"

    def complete_text(self, bundle: PromptBundle, cfg: ModelConfig) -> str:
        inst = self._lookup(bundle)
        rendered = format_answer(inst.gold, bundle.label_base)
        return f"Working through the graph as described.\nAnswer: {rendered}"


class MockAdversaryBackend(_InstanceBackedBackend):
    """Always answers incorrectly, but in a well-formed way.

    Useful as the floor of the harness: every response must parse, and every
    parsed answer must score as wrong.
    """

    name = "mock:adversary"

    def complete_text(self, bundle: PromptBundle, cfg: ModelConfig) -> str:
        inst = self._lookup(bundle)
        wrong = self._corrupt(inst)
        rendered = format_answer(wrong, bundle.label_base)
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
        order = topo_order(g)
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

    def complete_for_key(self, key: str) -> str:
        text = self._cache.get(key)
        if text is None:
            raise CacheMissError(f"no recorded response for key {key[:12]}...")
        return text

    def complete_text(self, bundle: PromptBundle, cfg: ModelConfig) -> str:
        return self.complete_for_key(cache_key(bundle, cfg))


def make_backend(
    spec: str,
    instances: Sequence[TaskInstance] = (),
    cache_path: Optional[str] = None,
    session: Optional[requests.Session] = None,
) -> Backend:
    """Build a backend from its CLI name."""
    if spec == "mock:oracle":
        return MockOracleBackend(instances)
    if spec == "mock:adversary":
        return MockAdversaryBackend(instances)
    if spec == "replay":
        if not cache_path:
            raise ClientError("replay backend requires a cache path")
        return ReplayBackend(cache_path)
    if spec == "http":
        return HttpChatBackend(session=session)
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
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            return Transcript(
                instance_id=bundle.instance_id,
                prompt_hash=key,
                model=cfg.model,
                text=hit,
                backend=backend.name,
                latency_ms=0.0,
                cached=True,
            )
    start = time.monotonic()
    text = backend.complete_text(bundle, cfg)
    latency_ms = (time.monotonic() - start) * 1000.0
    if cache is not None:
        cache.put(key, text)
    return Transcript(
        instance_id=bundle.instance_id,
        prompt_hash=key,
        model=cfg.model,
        text=text,
        backend=backend.name,
        latency_ms=latency_ms,
        cached=False,
    )


def run_prompts(
    bundles: Sequence[PromptBundle],
    backend: Backend,
    cfg: Optional[ModelConfig] = None,
    cache: Optional[ResponseCache] = None,
    parallel: int = 1,
) -> list[tuple[Optional[Transcript], Optional[ClientError]]]:
    """Resolve many prompts, preserving input order.

    Returns one (transcript, error) pair per bundle; exactly one side is
    set. A failing prompt never aborts the batch.
    """
    if parallel < 1:
        raise ValueError("parallel must be at least 1")
    cfg = cfg or ModelConfig()

    def one(bundle: PromptBundle) -> tuple[Optional[Transcript], Optional[ClientError]]:
        try:
            return complete(bundle, backend, cfg, cache), None
        except ClientError as exc:
            return None, exc

    if parallel == 1 or len(bundles) <= 1:
        return [one(b) for b in bundles]
    with ThreadPoolExecutor(max_workers=parallel) as pool:
        return list(pool.map(one, bundles))
