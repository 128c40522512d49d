import json
import logging
import sys
import tempfile
import threading
import time

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from travelsat.client import (
    API_KEY_ENV,
    HttpChatBackend,
    LlmClient,
    LlmParams,
    LlmResponse,
    MAX_ATTEMPTS,
    ResponseCache,
    cache_key,
)
from travelsat.errors import (
    CredentialError,
    DatasetError,
    ParseError,
    TransientTransportError,
    TransportError,
)
from travelsat.prompting import Prompt

PROMPT = Prompt(system_text="score travelers", user_text="Traveler q1")
PARAMS = LlmParams()


class FakeBackend:
    """Scriptable backend: pops one planned outcome per call."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = 0

    def complete(self, prompt, params):
        self.calls += 1
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def test_params_validation():
    with pytest.raises(DatasetError):
        LlmParams(temperature=2.5)
    with pytest.raises(DatasetError):
        LlmParams(request_timeout=0.0)
    with pytest.raises(DatasetError):
        LlmParams(max_output_tokens=0)
    assert PARAMS.temperature == 0.7
    assert PARAMS.model_name == "deepseek-reasoner"


def test_retry_policy_backoff():
    # the fixed schedule: 2 ** attempt seconds between MAX_ATTEMPTS = 4 tries
    backend = FakeBackend([TransientTransportError("HTTP 503")] * 4)
    delays = []
    client = LlmClient(backend, PARAMS, sleep=delays.append)
    with pytest.raises(TransportError):
        client.complete(PROMPT)
    assert MAX_ATTEMPTS == 4
    assert delays == [1.0, 2.0, 4.0]


def test_retries_then_succeeds():
    backend = FakeBackend([
        TransientTransportError("HTTP 429"),
        TransientTransportError("HTTP 503"),
        LlmResponse(content="ok"),
    ])
    delays = []
    client = LlmClient(backend, PARAMS, sleep=delays.append)
    assert client.complete(PROMPT).content == "ok"
    assert backend.calls == 3
    assert delays == [1.0, 2.0]


def test_gives_up_after_max_attempts():
    backend = FakeBackend([TransientTransportError("down")] * 5)
    client = LlmClient(backend, PARAMS, sleep=lambda _: None)
    with pytest.raises(TransportError) as excinfo:
        client.complete(PROMPT)
    assert "4 attempts" in str(excinfo.value)
    assert backend.calls == 4


def test_credential_errors_are_not_retried():
    backend = FakeBackend([CredentialError("bad key")])
    client = LlmClient(backend, PARAMS, sleep=lambda _: None)
    with pytest.raises(CredentialError):
        client.complete(PROMPT)
    assert backend.calls == 1


def test_hard_transport_errors_are_not_retried():
    backend = FakeBackend([TransportError("HTTP 400")])
    client = LlmClient(backend, PARAMS, sleep=lambda _: None)
    with pytest.raises(TransportError):
        client.complete(PROMPT)
    assert backend.calls == 1


def test_cache_round_trip(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    key = cache_key(PARAMS, PROMPT, 0)
    assert cache.get(key) is None
    cache.put(key, LlmResponse(content="body", reasoning="why"))
    hit = cache.get(key)
    assert hit == LlmResponse(content="body", reasoning="why")


def test_cache_corrupt_entry_is_a_miss(tmp_path):
    cache = ResponseCache(tmp_path)
    key = cache_key(PARAMS, PROMPT, 0)
    (tmp_path / f"{key}.json").write_text("{not json", encoding="utf-8")
    assert cache.get(key) is None


@pytest.mark.parametrize("stored", [
    {"content": 5},
    {"content": "kept", "reasoning": 5},
    ["content", "kept"],
], ids=["content-not-str", "reasoning-not-str", "not-an-object"])
def test_cache_entry_of_wrong_shape_is_a_miss_and_refetched(tmp_path, caplog, stored):
    key = cache_key(PARAMS, PROMPT, 0)
    (tmp_path / f"{key}.json").write_text(json.dumps(stored), encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="travelsat.client"):
        assert ResponseCache(tmp_path).get(key) is None
    assert "corrupted cache entry" in caplog.text
    backend = FakeBackend([LlmResponse(content="fresh", reasoning="why")])
    client = LlmClient(backend, PARAMS, cache_dir=tmp_path)
    assert client.cached_complete(PROMPT, trial_index=0).content == "fresh"
    assert (client.cache_misses, backend.calls) == (1, 1)
    # the re-fetch overwrote the entry
    assert client.cache.get(key) == LlmResponse(content="fresh", reasoning="why")


def _refuse_replace(src, dst):
    raise OSError("no space left on device")


@pytest.mark.parametrize("content, patch, error", [
    # a lone surrogate has no UTF-8 form, so the write itself fails
    ("\ud800", None, UnicodeEncodeError),
    ("body", _refuse_replace, OSError),
], ids=["write-fails", "replace-fails"])
def test_failed_cache_put_removes_its_temp_file_and_reraises(tmp_path, monkeypatch,
                                                              content, patch, error):
    if patch is not None:
        monkeypatch.setattr("travelsat.client.os.replace", patch)
    cache = ResponseCache(tmp_path)
    key = cache_key(PARAMS, PROMPT, 0)
    with pytest.raises(error):
        cache.put(key, LlmResponse(content=content))
    assert list(tmp_path.iterdir()) == []


def test_cache_directory_is_relocatable(tmp_path):
    cache = ResponseCache(tmp_path / "a")
    key = cache_key(PARAMS, PROMPT, 2)
    cache.put(key, LlmResponse(content="kept"))
    (tmp_path / "a").rename(tmp_path / "b")
    moved = ResponseCache(tmp_path / "b")
    assert moved.get(key).content == "kept"


def test_cache_files_hold_no_credentials(tmp_path, monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "sk-secret-123")
    cache = ResponseCache(tmp_path)
    key = cache_key(PARAMS, PROMPT, 0)
    cache.put(key, LlmResponse(content="score block"))
    stored = (tmp_path / f"{key}.json").read_text("utf-8")
    assert "sk-secret-123" not in stored
    assert set(json.loads(stored)) == {"content", "reasoning"}


def test_cached_complete_uses_cache(tmp_path):
    backend = FakeBackend([LlmResponse(content="first")])
    client = LlmClient(backend, PARAMS, cache_dir=tmp_path)
    first = client.cached_complete(PROMPT, trial_index=0)
    second = client.cached_complete(PROMPT, trial_index=0)
    assert first == second
    assert backend.calls == 1
    assert client.cache_misses == 1 and client.cache_hits == 1


def test_trial_index_separates_cache_slots(tmp_path):
    backend = FakeBackend([LlmResponse(content="a"), LlmResponse(content="b")])
    client = LlmClient(backend, PARAMS, cache_dir=tmp_path)
    assert client.cached_complete(PROMPT, trial_index=0).content == "a"
    assert client.cached_complete(PROMPT, trial_index=1).content == "b"
    assert backend.calls == 2


def test_cache_key_sensitivity():
    base = cache_key(PARAMS, PROMPT, 0)
    assert cache_key(PARAMS, PROMPT, 1) != base
    other_prompt = Prompt(system_text="score travelers", user_text="Traveler q2")
    assert cache_key(PARAMS, other_prompt, 0) != base
    other_model = LlmParams(model_name="deepseek-chat")
    assert cache_key(other_model, PROMPT, 0) != base
    warmer = LlmParams(temperature=0.8)
    assert cache_key(warmer, PROMPT, 0) != base
    shorter = LlmParams(max_output_tokens=1024)
    assert cache_key(shorter, PROMPT, 0) != base
    elsewhere = LlmParams(endpoint="http://localhost:8000/v1")
    assert cache_key(elsewhere, PROMPT, 0) != base
    # a longer request timeout does not change the answer
    patient = LlmParams(request_timeout=600.0)
    assert cache_key(patient, PROMPT, 0) == base
    # split point between system and user text matters
    shifted = Prompt(system_text="score travelers ", user_text="Traveler q1")
    assert cache_key(PARAMS, shifted, 0) != base


class EchoBackend:
    def complete(self, prompt, params):
        return LlmResponse(content=prompt.user_text)


def test_complete_many_preserves_order(tmp_path):
    client = LlmClient(EchoBackend(), PARAMS, cache_dir=tmp_path, max_in_flight=3)
    prompts = [Prompt(system_text="s", user_text=f"u{i}") for i in range(7)]
    out = client.complete_many([(p, 0) for p in prompts])
    assert [r.content for r in out] == [f"u{i}" for i in range(7)]
    assert client.cache_misses == 7
    # a second pass is served entirely from cache, in the same order
    again = client.complete_many([(p, 0) for p in prompts])
    assert [r.content for r in again] == [f"u{i}" for i in range(7)]
    assert client.cache_hits == 7


def test_complete_many_respects_in_flight_cap():
    lock = threading.Lock()
    state = {"active": 0, "peak": 0}

    class SlowBackend:
        def complete(self, prompt, params):
            with lock:
                state["active"] += 1
                state["peak"] = max(state["peak"], state["active"])
            time.sleep(0.02)
            with lock:
                state["active"] -= 1
            return LlmResponse(content=prompt.user_text)

    client = LlmClient(SlowBackend(), PARAMS, max_in_flight=2)
    prompts = [Prompt(system_text="s", user_text=f"u{i}") for i in range(8)]
    out = client.complete_many([(p, 0) for p in prompts])
    assert [r.content for r in out] == [f"u{i}" for i in range(8)]
    assert state["peak"] <= 2


def test_complete_many_leaves_errors_in_place():
    class PickyBackend:
        def complete(self, prompt, params):
            if prompt.user_text == "u2":
                raise TransportError("HTTP 400")
            if prompt.user_text == "u4":
                raise ParseError("garbled")
            return LlmResponse(content=prompt.user_text)

    client = LlmClient(PickyBackend(), PARAMS, max_in_flight=2)
    prompts = [Prompt(system_text="s", user_text=f"u{i}") for i in range(6)]
    out = client.complete_many((p, 0) for p in prompts)
    assert isinstance(out[2], TransportError)
    assert isinstance(out[4], ParseError)
    assert [out[i].content for i in (0, 1, 3, 5)] == ["u0", "u1", "u3", "u5"]


def test_complete_many_raises_other_exceptions():
    class BrokenBackend:
        def complete(self, prompt, params):
            if prompt.user_text == "u1":
                raise RuntimeError("bug")
            return LlmResponse(content=prompt.user_text)

    client = LlmClient(BrokenBackend(), PARAMS, max_in_flight=2)
    prompts = [Prompt(system_text="s", user_text=f"u{i}") for i in range(4)]
    with pytest.raises(RuntimeError):
        client.complete_many([(p, 0) for p in prompts])


def test_complete_many_pulls_jobs_only_as_the_pool_frees():
    lock = threading.Lock()
    finished = []
    pulls = []

    class SlowBackend:
        def complete(self, prompt, params):
            time.sleep(0.005)
            with lock:
                finished.append(prompt.user_text)
            return LlmResponse(content=prompt.user_text)

    max_in_flight = 2
    client = LlmClient(SlowBackend(), PARAMS, max_in_flight=max_in_flight)

    def jobs():
        for i in range(30):
            with lock:
                pulls.append((i, len(finished)))
            yield Prompt(system_text="s", user_text=f"u{i}"), 0

    out = client.complete_many(jobs())
    assert [r.content for r in out] == [f"u{i}" for i in range(30)]
    # job i is pulled only once all but 2 * max_in_flight earlier jobs are done
    assert all(i - done <= 2 * max_in_flight for i, done in pulls)


def _prefill(client, prompts, hits):
    """Store each prompt's echo reply for the jobs marked as hits."""
    for prompt, hit in zip(prompts, hits):
        if hit:
            client.cache.put(cache_key(PARAMS, prompt, 0),
                             LlmResponse(content=prompt.user_text))


@settings(max_examples=40, deadline=None)
@given(hits=st.lists(st.booleans(), max_size=24),
       max_in_flight=st.sampled_from([1, 2, 3]))
def test_complete_many_mixed_hits_match_an_uncached_run(hits, max_in_flight):
    lock = threading.Lock()
    sent: list[str] = []

    class RecordingEcho:
        def complete(self, prompt, params):
            with lock:
                sent.append(prompt.user_text)
            time.sleep(0)
            return LlmResponse(content=prompt.user_text)

    prompts = [Prompt(system_text="s", user_text=f"u{i}") for i in range(len(hits))]
    jobs = [(p, 0) for p in prompts]
    plain = LlmClient(EchoBackend(), PARAMS, max_in_flight=max_in_flight)
    expected = plain.complete_many(jobs)
    with tempfile.TemporaryDirectory() as cache_dir:
        client = LlmClient(RecordingEcho(), PARAMS, cache_dir=cache_dir,
                           max_in_flight=max_in_flight)
        _prefill(client, prompts, hits)
        out = client.complete_many(iter(jobs))
    assert out == expected
    assert [r.content for r in out] == [p.user_text for p in prompts]
    assert (client.cache_hits, client.cache_misses) == (sum(hits), hits.count(False))
    # the backend sees each miss once and no hit
    assert sorted(sent) == sorted(p.user_text for p, hit in zip(prompts, hits) if not hit)
    assert client.transport_calls == len(sent)


def test_complete_many_looks_up_the_cache_in_the_calling_thread(tmp_path, monkeypatch):
    lookups = []
    get = ResponseCache.get

    def recording_get(self, key):
        lookups.append(threading.current_thread())
        return get(self, key)

    class SlowEcho:
        def complete(self, prompt, params):
            time.sleep(0.002)
            return LlmResponse(content=prompt.user_text)

    monkeypatch.setattr(ResponseCache, "get", recording_get)
    client = LlmClient(SlowEcho(), PARAMS, cache_dir=tmp_path, max_in_flight=2)
    prompts = [Prompt(system_text="s", user_text=f"u{i}") for i in range(12)]
    _prefill(client, prompts, [i % 3 == 0 for i in range(12)])
    results = {}

    def drive():
        results["out"] = client.complete_many((p, 0) for p in prompts)

    caller = threading.Thread(target=drive)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive()
    assert [r.content for r in results["out"]] == [p.user_text for p in prompts]
    assert len(lookups) == 12 and set(lookups) == {caller}


def test_complete_many_bounds_pending_misses_among_hits(tmp_path):
    lock = threading.Lock()
    finished = []
    pulls = []
    max_in_flight = 2

    class SlowEcho:
        def complete(self, prompt, params):
            time.sleep(0.005)
            with lock:
                finished.append(prompt.user_text)
            return LlmResponse(content=prompt.user_text)

    client = LlmClient(SlowEcho(), PARAMS, cache_dir=tmp_path,
                       max_in_flight=max_in_flight)
    prompts = [Prompt(system_text="s", user_text=f"u{i}") for i in range(40)]
    hits = [i % 4 in (1, 2) for i in range(40)]
    _prefill(client, prompts, hits)

    def jobs():
        for i, prompt in enumerate(prompts):
            with lock:
                pulls.append((hits[:i].count(False), len(finished)))
            yield prompt, 0

    out = client.complete_many(jobs())
    assert [r.content for r in out] == [p.user_text for p in prompts]
    # when a job is pulled, at most 2 * max_in_flight earlier misses are unfinished
    assert all(missed - done <= 2 * max_in_flight for missed, done in pulls)
    assert (client.cache_hits, client.cache_misses) == (20, 20)


def test_complete_many_answers_hits_while_every_slot_waits(tmp_path):
    """Hits need no pool slot: with the pool full of misses, the hits behind
    them are still answered and the rest of the jobs pulled."""
    all_pulled = threading.Event()
    released = []

    class BlockedEcho:
        def complete(self, prompt, params):
            released.append(all_pulled.wait(timeout=5))
            return LlmResponse(content=prompt.user_text)

    client = LlmClient(BlockedEcho(), PARAMS, cache_dir=tmp_path, max_in_flight=1)
    prompts = [Prompt(system_text="s", user_text=f"u{i}") for i in range(10)]
    _prefill(client, prompts, [i >= 2 for i in range(10)])

    def jobs():
        yield from ((p, 0) for p in prompts)
        all_pulled.set()

    out = client.complete_many(jobs())
    assert released == [True, True]
    assert [r.content for r in out] == [p.user_text for p in prompts]
    assert (client.cache_hits, client.cache_misses) == (8, 2)


class _YieldingCounter:
    """Counter attribute whose read gives up the interpreter lock, so that an
    unguarded `+= 1` from two threads can lose an update."""

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.slot]
        time.sleep(0)
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.slot] = value


class ContendedClient(LlmClient):
    transport_calls = _YieldingCounter()
    cache_hits = _YieldingCounter()
    cache_misses = _YieldingCounter()


def test_counters_exact_under_concurrency(tmp_path):
    """Pool threads that interleave mid-call must not lose counter updates."""

    class YieldingBackend:
        def complete(self, prompt, params):
            time.sleep(0)  # give up the interpreter lock mid-call
            return LlmResponse(content=prompt.user_text)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        prompts = [Prompt(system_text="s", user_text=f"u{i}") for i in range(300)]
        jobs = [(p, 0) for p in prompts]
        cached = ContendedClient(YieldingBackend(), PARAMS, cache_dir=tmp_path,
                                 max_in_flight=16)
        uncached = ContendedClient(YieldingBackend(), PARAMS, max_in_flight=16)
        results = {}

        def drive():
            results["cold"] = cached.complete_many(jobs)
            results["warm"] = cached.complete_many(jobs)
            for _ in range(3):
                results["plain"] = uncached.complete_many(jobs)

        worker = threading.Thread(target=drive)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
    finally:
        sys.setswitchinterval(previous)
    for name in ("cold", "warm", "plain"):
        assert [r.content for r in results[name]] == [p.user_text for p in prompts]
    assert (cached.cache_misses, cached.cache_hits, cached.transport_calls) == (300, 300, 300)
    assert uncached.transport_calls == 900
    assert (uncached.cache_misses, uncached.cache_hits) == (0, 0)


def test_max_in_flight_validated():
    with pytest.raises(ValueError):
        LlmClient(FakeBackend([]), PARAMS, max_in_flight=0)


class _FakeHttpResponse:
    def __init__(self, status_code, body=None, text=""):
        self.status_code = status_code
        self._body = body
        self.text = text

    def json(self):
        if self._body is None:
            raise ValueError("no body")
        return self._body


def _patch_post(monkeypatch, handler):
    captured = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        captured.update(url=url, payload=json, headers=headers, timeout=timeout)
        result = handler()
        if isinstance(result, Exception):
            raise result
        return result

    monkeypatch.setattr(requests, "post", fake_post)
    return captured


def test_http_backend_success(monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "sk-test")
    body = {"choices": [{"message": {"content": "scores here",
                                     "reasoning_content": "thinking"}}]}
    captured = _patch_post(monkeypatch, lambda: _FakeHttpResponse(200, body))
    response = HttpChatBackend().complete(PROMPT, PARAMS)
    assert response == LlmResponse(content="scores here", reasoning="thinking")
    assert captured["url"] == "https://api.deepseek.com/v1/chat/completions"
    assert captured["headers"]["Authorization"] == "Bearer sk-test"
    assert captured["payload"]["model"] == "deepseek-reasoner"
    assert captured["payload"]["temperature"] == 0.7
    assert captured["payload"]["messages"][0]["role"] == "system"
    assert captured["payload"]["messages"][1]["content"] == PROMPT.user_text
    assert captured["timeout"] == 120.0


@pytest.mark.parametrize("fallback", ["DEEPSEEK_API_KEY", "OPENAI_API_KEY"])
def test_http_backend_fallback_key(monkeypatch, fallback):
    for env in (API_KEY_ENV, "DEEPSEEK_API_KEY", "OPENAI_API_KEY"):
        monkeypatch.delenv(env, raising=False)
    monkeypatch.setenv(fallback, "sk-fallback")
    body = {"choices": [{"message": {"content": "ok"}}]}
    captured = _patch_post(monkeypatch, lambda: _FakeHttpResponse(200, body))
    HttpChatBackend().complete(PROMPT, PARAMS)
    assert captured["headers"]["Authorization"] == "Bearer sk-fallback"


@pytest.mark.parametrize("present, used", [
    ((API_KEY_ENV, "DEEPSEEK_API_KEY", "OPENAI_API_KEY"), API_KEY_ENV),
    ((API_KEY_ENV, "OPENAI_API_KEY"), API_KEY_ENV),
    (("DEEPSEEK_API_KEY", "OPENAI_API_KEY"), "DEEPSEEK_API_KEY"),
])
def test_http_backend_key_order(monkeypatch, present, used):
    for env in (API_KEY_ENV, "DEEPSEEK_API_KEY", "OPENAI_API_KEY"):
        monkeypatch.delenv(env, raising=False)
    for env in present:
        monkeypatch.setenv(env, f"sk-{env}")
    body = {"choices": [{"message": {"content": "ok"}}]}
    captured = _patch_post(monkeypatch, lambda: _FakeHttpResponse(200, body))
    HttpChatBackend().complete(PROMPT, PARAMS)
    assert captured["headers"]["Authorization"] == f"Bearer sk-{used}"


def test_http_backend_missing_key(monkeypatch):
    for env in (API_KEY_ENV, "DEEPSEEK_API_KEY", "OPENAI_API_KEY"):
        monkeypatch.delenv(env, raising=False)
    called = _patch_post(monkeypatch, lambda: _FakeHttpResponse(200, {}))
    with pytest.raises(CredentialError) as excinfo:
        HttpChatBackend().complete(PROMPT, PARAMS)
    assert API_KEY_ENV in str(excinfo.value)
    assert "url" not in called  # no request went out without a key


@pytest.mark.parametrize("status,expected", [
    (401, CredentialError),
    (403, CredentialError),
    (429, TransientTransportError),
    (500, TransientTransportError),
    (503, TransientTransportError),
    (400, TransportError),
])
def test_http_backend_status_routing(monkeypatch, status, expected):
    monkeypatch.setenv(API_KEY_ENV, "sk-test")
    _patch_post(monkeypatch, lambda: _FakeHttpResponse(status, text="nope"))
    with pytest.raises(expected):
        HttpChatBackend().complete(PROMPT, PARAMS)


def test_http_backend_timeout_is_transient(monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "sk-test")
    _patch_post(monkeypatch, lambda: requests.Timeout("deadline"))
    with pytest.raises(TransientTransportError):
        HttpChatBackend().complete(PROMPT, PARAMS)


def test_http_backend_malformed_body(monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "sk-test")
    _patch_post(monkeypatch, lambda: _FakeHttpResponse(200, {"choices": []}))
    with pytest.raises(TransportError):
        HttpChatBackend().complete(PROMPT, PARAMS)


@pytest.mark.parametrize("field", ["content", "reasoning_content"])
def test_http_backend_refuses_reply_without_utf8_form(monkeypatch, field):
    # valid JSON that decodes to a lone surrogate, which no file can hold
    body = json.loads('{"choices": [{"message": {"content": "ok", "%s": "\\ud800"}}]}'
                      % field)
    monkeypatch.setenv(API_KEY_ENV, "sk-test")
    _patch_post(monkeypatch, lambda: _FakeHttpResponse(200, body))
    with pytest.raises(TransportError, match="^malformed API response: "):
        HttpChatBackend().complete(PROMPT, PARAMS)


def test_http_backend_refuses_content_that_is_not_text(monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "sk-test")
    body = {"choices": [{"message": {"content": 5}}]}
    _patch_post(monkeypatch, lambda: _FakeHttpResponse(200, body))
    with pytest.raises(TransportError, match="^malformed API response: "):
        HttpChatBackend().complete(PROMPT, PARAMS)


@pytest.mark.parametrize("error", [requests.exceptions.ChunkedEncodingError,
                                   requests.exceptions.ContentDecodingError])
def test_http_body_cut_short_is_retried_then_fails_only_its_job(monkeypatch, error):
    monkeypatch.setenv(API_KEY_ENV, "sk-test")
    posts = []

    def cut_short():
        posts.append(1)
        return error("Connection broken: IncompleteRead(50 bytes read, 50 more expected)")

    _patch_post(monkeypatch, cut_short)
    with pytest.raises(TransientTransportError, match="^transport failure: "):
        HttpChatBackend().complete(PROMPT, PARAMS)
    posts.clear()
    delays = []
    client = LlmClient(HttpChatBackend(), PARAMS, sleep=delays.append, max_in_flight=1)
    out = client.complete_many([(PROMPT, 0)])
    assert len(out) == 1 and type(out[0]) is TransportError
    assert str(out[0]).startswith(f"gave up after {MAX_ATTEMPTS} attempts: ")
    assert len(posts) == client.transport_calls == MAX_ATTEMPTS
    assert delays == [1.0, 2.0, 4.0]


@pytest.mark.parametrize("error", [requests.exceptions.MissingSchema,
                                   requests.exceptions.InvalidURL,
                                   requests.exceptions.TooManyRedirects])
def test_http_request_requests_refuses_is_a_hard_failure(monkeypatch, error):
    monkeypatch.setenv(API_KEY_ENV, "sk-test")
    _patch_post(monkeypatch, lambda: error("refused"))
    client = LlmClient(HttpChatBackend(), PARAMS, sleep=lambda _: None)
    out = client.complete_many([(PROMPT, 0)])
    assert type(out[0]) is TransportError and str(out[0]) == "request failed: refused"
    assert client.transport_calls == 1


def test_http_payload_that_is_not_json_is_a_bug(monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "sk-test")
    _patch_post(monkeypatch, lambda: requests.exceptions.InvalidJSONError("not JSON"))
    with pytest.raises(requests.exceptions.InvalidJSONError):
        HttpChatBackend().complete(PROMPT, PARAMS)
