"""Benchmark-owned backend wrapper: injected latency and request counting.

The wrapper sits between LlmClient and the ScriptedMock the program built.
It counts every call and the prompt tokens sent, sleeps a fixed delay per
call (zero for the instant workloads), and integrates the number of calls
in flight over time, all under one lock.
"""

from __future__ import annotations

import threading
import time
from time import perf_counter

LATENCY_S = 0.2


class CountingBackend:
    def __init__(self, inner, delay_s: float = 0.0):
        self.inner = inner
        self.delay_s = delay_s
        self.calls = 0
        self.prompt_tokens = 0
        self.injected_wait_s = 0.0
        # integral of calls in flight over time, in call-seconds
        self.inflight_area = 0.0
        self._in_flight = 0
        self._last = perf_counter()
        self._lock = threading.Lock()

    def _shift(self, delta: int) -> None:
        now = perf_counter()
        self.inflight_area += self._in_flight * (now - self._last)
        self._last = now
        self._in_flight += delta

    def complete(self, prompt, params):
        with self._lock:
            self._shift(+1)
            self.calls += 1
            self.prompt_tokens += prompt.token_estimate
        try:
            if self.delay_s:
                start = perf_counter()
                time.sleep(self.delay_s)
                waited = perf_counter() - start
                with self._lock:
                    self.injected_wait_s += waited
            return self.inner.complete(prompt, params)
        finally:
            with self._lock:
                self._shift(-1)
