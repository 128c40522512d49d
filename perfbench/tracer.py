"""Per-layer tracing from outside the program.

The tracer wraps public functions and methods of the loaded travelsat
modules. A function imported by name into several modules (experiments
imports fit_gbdt, rank_support, render_few_shot and others that way) has one
binding per module; every binding that holds the same function object is
replaced, so calls through any of them are seen. Methods are wrapped on
their class. A name that cannot be found raises TraceError: a traced run
must not report zero for a layer it failed to hook.

Each wrapped call adds its duration to its label's busy time (summed over
threads, so under the interpreter lock it includes waiting) and, when it
starts on the main thread outside any other traced call, to the main
thread's covered time.
"""

from __future__ import annotations

import functools
import sys
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


class TraceError(RuntimeError):
    pass


@dataclass
class LayerStat:
    calls: int = 0
    failures: int = 0
    busy_s: float = 0.0
    # time of calls that started on the main thread outside any traced call
    main_top_s: float = 0.0


# before(args) and after(args, kwargs, result, start) run outside the timed
# span
BeforeHook = Callable[[tuple], None]
AfterHook = Callable[[tuple, dict, object, float], None]


class Tracer:
    def __init__(self, package: str = "travelsat"):
        self.package = package
        self.stats: dict[str, LayerStat] = {}
        self.main_covered_s = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._restore: list[tuple[object, str, object]] = []

    # -- installing --------------------------------------------------------

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package
                                      or name.startswith(self.package + "."))]

    def wrap_function(self, module: str, name: str, label: str,
                      before: BeforeHook | None = None,
                      after: AfterHook | None = None) -> int:
        """Replace every binding of module.name in the package's loaded
        modules; returns how many bindings were replaced."""
        owner = sys.modules.get(module)
        original = getattr(owner, name, None) if owner is not None else None
        if not callable(original):
            raise TraceError(f"cannot trace {module}.{name}: not found")
        wrapper = self._wrap(original, label, before, after)
        replaced = 0
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
                    replaced += 1
        return replaced

    def wrap_method(self, module: str, cls_name: str, name: str, label: str,
                    before: BeforeHook | None = None,
                    after: AfterHook | None = None) -> None:
        cls = getattr(sys.modules.get(module), cls_name, None)
        original = vars(cls).get(name) if isinstance(cls, type) else None
        if not callable(original):
            raise TraceError(f"cannot trace {module}.{cls_name}.{name}: not found")
        self._restore.append((cls, name, original))
        setattr(cls, name, self._wrap(original, label, before, after))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, fn, label: str, before: BeforeHook | None,
              after: AfterHook | None):
        stat = self.stats.setdefault(label, LayerStat())
        local = self._local
        lock = self._lock
        main = self._main

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = getattr(local, "depth", 0)
            local.depth = depth + 1
            failed = False
            if before is not None:
                before(args)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                elapsed = perf_counter() - start
                local.depth = depth
                top = depth == 0 and threading.current_thread() is main
                with lock:
                    stat.calls += 1
                    stat.failures += failed
                    stat.busy_s += elapsed
                    if top:
                        stat.main_top_s += elapsed
                        self.main_covered_s += elapsed
            if after is not None:
                after(args, kwargs, result, start)
            return result

        return traced
