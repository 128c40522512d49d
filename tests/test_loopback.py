"""The live path rehearsed on loopback (ROADMAP item 12, step 2).

A chat-completions server runs in a thread on 127.0.0.1, on a port the
system picks. It answers each POST with ScriptedMock's reply to the prompt
the request carries, and the mock's reasoning as reasoning_content. So a run
with `mock: null`, pointed at it, sends every request through requests, a
socket and a JSON body, and must write what the mock run writes.

A script of faults replaces the answers to the first POSTs, one fault per
POST in arrival order. The runs keep one request in flight, so the first
POST is the first request of the first trial. Each fault must be retried or
fail only its trial; none may end the run. The client's sleep is replaced
through experiments.make_client, the substitution point perfbench's worker
uses, so a retry records its delay instead of waiting.
"""

import csv
import dataclasses
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from travelsat import experiments
from travelsat.client import API_KEY_ENV, LlmClient
from travelsat.experiments import ExperimentConfig, SyntheticSpec, run_few_shot_sweep
from travelsat.mock import ScriptedMock
from travelsat.prompting import Prompt

API_KEY = "sk-loopback-test"


class _ChatServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, faults):
        super().__init__(("127.0.0.1", 0), _ChatHandler)
        self.mock = ScriptedMock()
        self.faults = list(faults)
        self.posts = 0
        self.lock = threading.Lock()
        # set when the test ends, so a slow reply stops waiting
        self.stop = threading.Event()

    def next_fault(self) -> str | None:
        with self.lock:
            self.posts += 1
            return self.faults.pop(0) if self.faults else None


class _ChatHandler(BaseHTTPRequestHandler):
    """HTTP/1.0: each connection carries one request and then closes."""

    def log_message(self, format, *args):
        pass

    def _send(self, status: int, body: bytes, length: int | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body) if length is None else length))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if (self.path != "/v1/chat/completions"
                or self.headers["Authorization"] != f"Bearer {API_KEY}"):
            self._send(404, b"{}")
            return
        fault = self.server.next_fault()
        if fault == "close":  # no status line at all
            return
        if fault in ("429", "503"):
            self._send(int(fault), b'{"error": "try again"}')
            return
        if fault == "invalid json":
            self._send(200, b'{"choices": [')
            return
        if fault == "no choices":
            self._send(200, b'{"id": "chatcmpl-1", "object": "chat.completion"}')
            return
        if fault == "slow" and self.server.stop.wait(5.0):
            return
        system, user = (message["content"] for message in request["messages"])
        reply = self.server.mock.complete(Prompt(system, user), None)
        body = json.dumps({"choices": [{"message": {
            "role": "assistant", "content": reply.content,
            "reasoning_content": reply.reasoning}}]}).encode("utf-8")
        try:
            # a body cut short: Content-Length promises 50 bytes more
            self._send(200, body, len(body) + 50 if fault == "cut short" else None)
        except OSError:  # a slow reply's client has given up
            pass


@pytest.fixture
def loopback(monkeypatch):
    """Start a server; call the returned function with a fault script."""
    for name in ("HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY",
                 "http_proxy", "https_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    monkeypatch.setenv(API_KEY_ENV, API_KEY)
    servers = []

    def start(faults=()):
        server = _ChatServer(faults)
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        servers.append((server, thread))
        return server

    yield start
    for server, thread in servers:
        server.stop.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture
def sleeps(monkeypatch):
    """The client's retry delays, recorded instead of slept."""
    slept: list[float] = []
    build = experiments.make_client

    def make_client(config, schema):
        client = build(config, schema)
        return LlmClient(client.backend, client.params, cache_dir=config.cache_dir,
                         max_in_flight=client.max_in_flight, sleep=slept.append)

    monkeypatch.setattr(experiments, "make_client", make_client)
    return slept


def _config(out_dir, **overrides) -> ExperimentConfig:
    return ExperimentConfig(synthetic=SyntheticSpec(n=40, seed=3), support_sizes=(0, 3),
                            repeats=2, batch_size=4, out_dir=str(out_dir), **overrides)


@pytest.fixture(scope="module")
def mock_run(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("mock")
    run_few_shot_sweep(_config(out))
    return out


def _live(server, out_dir, max_in_flight=1, request_timeout=120.0) -> ExperimentConfig:
    params = dataclasses.replace(ExperimentConfig().llm, request_timeout=request_timeout,
                                 endpoint=f"http://127.0.0.1:{server.server_port}/v1")
    return _config(out_dir, mock=None, llm=params, max_in_flight=max_in_flight)


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def _requests(out: Path) -> int:
    """The requests of a clean run: one per query batch of each trial."""
    return sum(-(-int(row[3]) // 4) for row in _rows(out / "report.csv"))


def _files(out: Path) -> dict[str, bytes]:
    names = ["report.csv", "aggregate.csv",
             *(f"reasoning/{p.name}" for p in (out / "reasoning").iterdir())]
    return {name: (out / name).read_bytes() for name in names}


def test_live_run_writes_the_mock_runs_artifacts(loopback, sleeps, mock_run, tmp_path):
    server = loopback()
    run_few_shot_sweep(_live(server, tmp_path, max_in_flight=4))
    assert _files(tmp_path) == _files(mock_run)
    assert server.posts == _requests(mock_run) and sleeps == []


@pytest.mark.parametrize("fault", ["429", "503", "slow", "cut short", "close"])
def test_transient_fault_is_retried(loopback, sleeps, mock_run, tmp_path, fault):
    server = loopback([fault])
    run_few_shot_sweep(_live(server, tmp_path, request_timeout=0.5 if fault == "slow"
                             else 120.0))
    assert _files(tmp_path) == _files(mock_run)
    assert sleeps == [1.0]
    assert server.posts == _requests(mock_run) + 1


@pytest.mark.parametrize("fault", ["invalid json", "no choices"])
def test_malformed_reply_fails_only_its_trial(loopback, sleeps, mock_run, tmp_path,
                                              fault):
    server = loopback([fault])
    summary = run_few_shot_sweep(_live(server, tmp_path))
    report, expected = _rows(tmp_path / "report.csv"), _rows(mock_run / "report.csv")
    # the first trial: zero-shot, repeat 1
    assert report[0][:2] == expected[0][:2] == ["0 (zero-shot)", "1"]
    assert report[0][2].startswith("failed: malformed API response: ")
    assert report[0][3:] == ["", "", ""] and expected[0][2] == "ok"
    assert report[1:] == expected[1:]
    assert "Failed trials: 1" in summary
    aggregate = _rows(tmp_path / "aggregate.csv")
    assert aggregate[0][:3] == ["0 (zero-shot)", "1", "1"]
    assert aggregate[1:] == _rows(mock_run / "aggregate.csv")[1:]
    assert sleeps == []
    assert server.posts == _requests(mock_run)
