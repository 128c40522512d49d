"""LLM transport: HTTP backend, retries, response cache, concurrency cap.

A transient transport failure (timeout, connection error, HTTP 429 or 5xx)
is retried on a fixed schedule: at most MAX_ATTEMPTS = 4 attempts, 1, 2 and
4 s apart. Other failures are not retried.

The HTTP backend speaks the common chat-completions JSON shape. API keys
come from the environment only (TRAVELSAT_API_KEY, falling back to
DEEPSEEK_API_KEY); they are never read from config files and never written
to the cache. Cached responses are content-addressed by a digest of
(model, temperature, output-token limit, endpoint, prompt bytes, trial
index), one JSON file per digest, so a cache directory can be renamed or
copied freely.

LlmClient.complete_many looks each job up in the cache in the caller's
thread, as it pulls the job: a hit goes straight into the result and never
enters the thread pool. Only a miss takes a pool slot, where it is sent with
retries and its reply stored under the key already computed.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Protocol

from .errors import (
    CredentialError,
    DatasetError,
    TransientTransportError,
    TransportError,
    TravelSatError,
)
from .prompting import Prompt

logger = logging.getLogger(__name__)

API_KEY_ENV = "TRAVELSAT_API_KEY"
_FALLBACK_KEY_ENVS = ("DEEPSEEK_API_KEY", "OPENAI_API_KEY")

MAX_ATTEMPTS = 4


@dataclass(frozen=True)
class LlmParams:
    model_name: str = "deepseek-reasoner"
    temperature: float = 0.7
    max_output_tokens: int = 8192
    endpoint: str = "https://api.deepseek.com/v1"
    request_timeout: float = 120.0

    def __post_init__(self):
        if not 0.0 <= self.temperature <= 2.0:
            raise DatasetError(f"temperature {self.temperature} outside [0, 2]")
        if self.request_timeout <= 0:
            raise DatasetError("request_timeout must be positive")
        if self.max_output_tokens <= 0:
            raise DatasetError("max_output_tokens must be positive")


@dataclass(frozen=True)
class LlmResponse:
    content: str
    # separate reasoning channel, when the provider exposes one
    reasoning: str = ""


class Backend(Protocol):
    def complete(self, prompt: Prompt, params: LlmParams) -> LlmResponse: ...


def _api_key() -> str:
    for env in (API_KEY_ENV, *_FALLBACK_KEY_ENVS):
        key = os.environ.get(env)
        if key:
            return key
    raise CredentialError(
        f"no API key found; set {API_KEY_ENV} in the environment"
    )


class HttpChatBackend:
    """Chat-completions POST transport over requests."""

    def complete(self, prompt: Prompt, params: LlmParams) -> LlmResponse:
        # imported here: no offline run needs it, and importing it is slow
        import requests

        url = params.endpoint.rstrip("/") + "/chat/completions"
        payload = {
            "model": params.model_name,
            "temperature": params.temperature,
            "max_tokens": params.max_output_tokens,
            "messages": [
                {"role": "system", "content": prompt.system_text},
                {"role": "user", "content": prompt.user_text},
            ],
        }
        headers = {"Authorization": f"Bearer {_api_key()}"}
        try:
            response = requests.post(url, json=payload, headers=headers,
                                     timeout=params.request_timeout)
        except (requests.Timeout, requests.ConnectionError) as exc:
            raise TransientTransportError(f"transport failure: {exc}") from exc
        if response.status_code in (401, 403):
            raise CredentialError(f"API rejected credentials ({response.status_code})")
        if response.status_code == 429 or response.status_code >= 500:
            raise TransientTransportError(f"HTTP {response.status_code}")
        if response.status_code != 200:
            raise TransportError(f"HTTP {response.status_code}: {response.text[:500]}")
        try:
            body = response.json()
            message = body["choices"][0]["message"]
            content = message["content"] or ""
            reasoning = message.get("reasoning_content") or ""
            # a lone surrogate has no UTF-8 form to cache or archive
            content.encode("utf-8"), reasoning.encode("utf-8")
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            raise TransportError(f"malformed API response: {exc}") from exc
        return LlmResponse(content=content, reasoning=reasoning)


def cache_key(params: LlmParams, prompt: Prompt, trial_index: int) -> str:
    """Digest identifying one (model, temperature, output-token limit,
    endpoint, prompt, trial) request."""
    h = hashlib.sha256()
    h.update(params.model_name.encode("utf-8"))
    h.update(b"\x00")
    h.update(repr(params.temperature).encode("ascii"))
    h.update(b"\x00")
    h.update(str(params.max_output_tokens).encode("ascii"))
    h.update(b"\x00")
    h.update(params.endpoint.encode("utf-8"))
    h.update(b"\x00")
    h.update(prompt.as_bytes())
    h.update(b"\x00")
    h.update(str(trial_index).encode("ascii"))
    return h.hexdigest()


class ResponseCache:
    """One JSON file per request digest, written atomically."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> LlmResponse | None:
        path = self._path(key)
        try:
            body = json.loads(path.read_text("utf-8"))
        except FileNotFoundError:
            return None
        except ValueError:
            body = None
        if isinstance(body, dict):
            content = body.get("content")
            reasoning = body.get("reasoning", "")
            if isinstance(content, str) and isinstance(reasoning, str):
                return LlmResponse(content=content, reasoning=reasoning)
        # unreadable entry: treat as a miss, refetch will overwrite it
        logger.warning("discarding corrupted cache entry %s", path.name)
        return None

    def put(self, key: str, response: LlmResponse) -> None:
        payload = json.dumps(
            {"content": response.content, "reasoning": response.reasoning},
            ensure_ascii=False,
        )
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
            os.replace(tmp, self._path(key))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


class LlmClient:
    """Retrying, caching, concurrency-bounded front end over a backend."""

    def __init__(self, backend: Backend, params: LlmParams,
                 cache_dir=None, max_in_flight: int = 4,
                 sleep: Callable[[float], None] = time.sleep):
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")
        self.backend = backend
        self.params = params
        self.cache = ResponseCache(cache_dir) if cache_dir else None
        self.max_in_flight = max_in_flight
        self._sleep = sleep
        # complete_many's pool threads count transport calls, and any thread
        # may call cached_complete
        self._count_lock = threading.Lock()
        self.transport_calls = 0
        self.cache_hits = 0
        self.cache_misses = 0

    def complete(self, prompt: Prompt) -> LlmResponse:
        """One completion with retries on transient transport failures."""
        last: Exception | None = None
        for attempt in range(MAX_ATTEMPTS):
            try:
                with self._count_lock:
                    self.transport_calls += 1
                return self.backend.complete(prompt, self.params)
            except TransientTransportError as exc:
                last = exc
                if attempt + 1 < MAX_ATTEMPTS:
                    delay = 2.0 ** attempt
                    logger.warning("transient failure (%s), retrying in %.1fs", exc, delay)
                    self._sleep(delay)
        raise TransportError(f"gave up after {MAX_ATTEMPTS} attempts: {last}") from last

    def _lookup(self, prompt: Prompt, trial_index: int
                ) -> tuple[str | None, LlmResponse | None]:
        """A job's cache key and cached reply; (None, None) without a cache.
        Counts the hit or miss."""
        if self.cache is None:
            return None, None
        key = cache_key(self.params, prompt, trial_index)
        hit = self.cache.get(key)
        with self._count_lock:
            if hit is None:
                self.cache_misses += 1
            else:
                self.cache_hits += 1
        return key, hit

    def _send(self, prompt: Prompt, key: str | None) -> LlmResponse:
        """Send a job that missed the cache, and store its reply under key."""
        response = self.complete(prompt)
        if key is not None:
            self.cache.put(key, response)
        return response

    def cached_complete(self, prompt: Prompt, trial_index: int) -> LlmResponse:
        key, hit = self._lookup(prompt, trial_index)
        return hit if hit is not None else self._send(prompt, key)

    def complete_many(self, jobs: Iterable[tuple[Prompt, int]]
                      ) -> list[LlmResponse | TravelSatError]:
        """Run (prompt, trial_index) jobs concurrently, preserving order.

        Each job is looked up in the cache once, in the calling thread, as it
        is taken from the iterable; a hit is its own result and never enters
        the pool. Only misses are sent, at most max_in_flight at a time
        across every job of the call. A miss is submitted only once fewer
        than 2 * max_in_flight submitted jobs are unfinished, so a lazy
        iterable holds only that many prompts at once. A job that fails with
        a TravelSatError has that error in its place in the result, and the
        other jobs still complete; any other exception propagates.
        """
        results: list = []
        pending: set = set()
        with ThreadPoolExecutor(max_workers=self.max_in_flight) as pool:
            for prompt, trial in jobs:
                key, hit = self._lookup(prompt, trial)
                if hit is not None:
                    results.append(hit)
                    continue
                if len(pending) >= 2 * self.max_in_flight:
                    _, pending = wait(pending, return_when=FIRST_COMPLETED)
                future = pool.submit(self._send, prompt, key)
                results.append(future)
                pending.add(future)
        return [_outcome(r) for r in results]


def _outcome(result: LlmResponse | Future) -> LlmResponse | TravelSatError:
    if not isinstance(result, Future):
        return result
    try:
        return result.result()
    except TravelSatError as exc:
        return exc
