"""The benchmark's tracer hooks travelsat functions and methods by name and
fails its run on a name it cannot find. This checks those names against the
package, so that a rename or deletion shows in the fast suite."""

import importlib
import inspect
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    loaded = {name: sys.modules.get(name) for name in ("layers", "tracer")}
    try:
        layers = importlib.import_module("layers")
        assert layers.FUNCTIONS and layers.METHODS
        missing = []
        for module, name, _ in layers.FUNCTIONS:
            if not inspect.isfunction(getattr(importlib.import_module(module), name, None)):
                missing.append(f"{module}.{name}")
        for module, cls, name, _ in layers.METHODS:
            owner = getattr(importlib.import_module(module), cls, None)
            if not inspect.isfunction(getattr(owner, name, None)):
                missing.append(f"{module}.{cls}.{name}")
        assert missing == []
    finally:
        # the benchmark's modules have generic names; leave sys.modules as found
        for name, module in loaded.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module
