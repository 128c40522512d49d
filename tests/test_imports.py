"""Import and name hygiene of the package, checked with the standard
library's ast.

Every module-level import in src/travelsat must be used: a name listed in
the module's __all__ counts as used, and an imported name on a line marked
"# noqa: F401" is exempt. Every function and class that src/travelsat
defines at module level must be referred to somewhere in src/travelsat or
perfbench/*.py, which hooks names by string; one defined at class level
must be referred to there as an attribute or a whole string constant, since
a bare name of the same spelling is some other variable. Names in
travelsat.__all__ and dunders are exempt. Every name in travelsat.__all__
must resolve. Every parameter with a default, of a function or method in
src/travelsat, must be passed by position or keyword in some call there or
in perfbench/*.py (matched by the callee's name, a class's for __init__),
save the listed test seams. Every dataclass field and self.<name>
attribute in src/travelsat must be read as an attribute, or named as a
whole string constant, there or in perfbench/*.py, save the listed ones
that only readers outside the package need. An offline run never imports
requests, which only the HTTP backend uses, and no subcommand imports
scipy, which only the tests use. The third-party modules src/travelsat
imports are exactly the dependencies pyproject.toml declares.
"""

import ast
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import travelsat

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "travelsat"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of source that nothing uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name
                # "import a.b" binds a
                imported[name if isinstance(node, ast.ImportFrom)
                         else name.split(".")[0]] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_checker_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import os.path\n"
              "from typing import Any, Mapping as M\n"
              "from json import dumps  # noqa: F401\n"
              "from json import loads\n"
              "__all__ = ['loads']\n"
              "x: Any = os.sep\n")
    assert unused_imports(source) == ["M (line 4)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text("utf-8")) == []


def referenced_names(source: str) -> tuple[set[str], set[str]]:
    """What source refers to: (the attributes and whole string constants,
    the bare and imported names)."""
    members, names = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Attribute):
            members.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            members.add(node.value)
    return members, names


def dead_definitions(source: str, members: set[str], names: set[str]) -> list[str]:
    """Functions and classes source defines at module level that are in
    neither members nor names, and those it defines at class level that are
    not in members; dunders are exempt."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    nodes = [n for n in ast.parse(source).body if isinstance(n, kinds)]
    dead = [n.name for n in nodes if n.name not in members | names]
    dead += [m.name for n in nodes if isinstance(n, ast.ClassDef)
             for m in n.body if isinstance(m, kinds) and m.name not in members]
    return sorted(name for name in dead
                  if not (name.startswith("__") and name.endswith("__")))


def test_dead_name_checker_flags_only_unreferenced_definitions():
    source = ("class Kept:\n"
              "    def used(self): pass\n"
              "    def dead(self): pass\n"
              "    def shadowed(self): pass\n"
              "    def __repr__(self): return ''\n"
              "def hooked(): pass\n"
              "def exported(): pass\n"
              "def imported(): pass\n"
              "def orphan():\n"
              "    def inner(): pass\n"
              "    return Kept().used(), inner\n")
    elsewhere = ("from m import imported\nhook('hooked')\n"
                 "def f():\n    shadowed = 1\n    return shadowed\n")
    members, names = referenced_names(source)
    other_members, other_names = referenced_names(elsewhere)
    assert dead_definitions(source, members | other_members | {"exported"},
                            names | other_names) == ["dead", "orphan", "shadowed"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_dead_definitions(path):
    members, names = set(travelsat.__all__), set()
    for source in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        more_members, more_names = referenced_names(source.read_text("utf-8"))
        members |= more_members
        names |= more_names
    assert dead_definitions(path.read_text("utf-8"), members, names) == []


def read_members(source: str) -> set[str]:
    """The attributes source reads, not those it only assigns, and its whole
    string constants."""
    members = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            members.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            members.add(node.value)
    return members


def defined_attributes(source: str) -> list[tuple[str, str]]:
    """(class, attribute) for each dataclass field and each self.<name>
    assignment of the classes source defines."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
        if any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
               for d in decorators):
            found += [(cls.name, n.target.id) for n in cls.body
                      if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
        found += [(cls.name, n.attr) for n in ast.walk(cls)
                  if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                  and isinstance(n.value, ast.Name) and n.value.id == "self"]
    return found


def unread_attributes(source: str, read: set[str], allowed: set[str]) -> list[str]:
    """The attributes of defined_attributes(source) whose name is not in
    read, as "Class.name"; those in allowed are exempt."""
    return sorted({f"{cls}.{name}" for cls, name in defined_attributes(source)
                   if name not in read} - allowed)


def test_unread_attribute_checker():
    source = ("import dataclasses\n"
              "@dataclasses.dataclass(frozen=True)\n"
              "class Spec:\n"
              "    read: int\n"
              "    hooked: int\n"
              "    unread: int = 0\n"
              "class Plain:\n"
              "    table: dict = {}\n"
              "    def __init__(self, spec):\n"
              "        self.counter = 0\n"
              "        self.counter += 1\n"
              "        self.copied = spec.read\n"
              "        self.kept = 1\n")
    read = read_members(source + "getattr(spec, 'hooked')\n")
    assert unread_attributes(source, read, {"Plain.kept"}) == \
        ["Plain.copied", "Plain.counter", "Spec.unread"]


# attributes read only outside the package, each for a stated reader
READ_ELSEWHERE = {
    "GbdtModel.train_losses",  # acceptance criterion 4 checks the loss curve
    # ROADMAP item 2 writes these out: the cache counts to provenance.json,
    # the raw text of a failed reply to the run's failures/
    "LlmClient.cache_hits",
    "LlmClient.cache_misses",
    "ParseError.raw_text",
}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_attribute_is_read(path):
    read = set()
    for source in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        read |= read_members(source.read_text("utf-8"))
    assert unread_attributes(path.read_text("utf-8"), read, READ_ELSEWHERE) == []


def defaulted_parameters(source: str) -> list[tuple[str, str, int | None]]:
    """(callee, parameter, position in a call, or None when keyword-only) for
    each parameter with a default of each function or method source
    defines; the callee of a method is its name, of __init__ its class."""
    found = []

    def visit(body, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                callee = cls if node.name == "__init__" else node.name
                # a method's call does not pass self (or cls) by position
                bound = cls is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list)
                positional = args.posonlyargs + args.args
                for index in range(len(positional) - len(args.defaults), len(positional)):
                    found.append((callee, positional[index].arg, index - bound))
                found.extend((callee, arg.arg, None)
                             for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                             if default is not None)
                visit(node.body, None)

    visit(ast.parse(source).body, None)
    return found


def passed_arguments(source: str) -> dict[str, tuple[float, set[str]]]:
    """Callee name -> (the most positional arguments any call in source
    passes, the keywords some call passes); a *args call passes every
    position, a **kwargs call every keyword ("**")."""
    passed: dict[str, tuple[float, set[str]]] = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name is None:
            continue
        count = (math.inf if any(isinstance(a, ast.Starred) for a in node.args)
                 else len(node.args))
        most, keywords = passed.get(name, (0, set()))
        passed[name] = (max(most, count),
                        keywords | {k.arg or "**" for k in node.keywords})
    return passed


def unpassed_parameters(source: str, passed: dict[str, tuple[float, set[str]]],
                        allowed: set[str]) -> list[str]:
    """Parameters with a default, of functions source defines, that no call
    in passed sets, as "callee(parameter=)"; those in allowed are exempt."""
    unpassed = []
    for callee, param, position in defaulted_parameters(source):
        most, keywords = passed.get(callee, (0, set()))
        by_position = position is not None and position < most
        if not (by_position or param in keywords or "**" in keywords):
            unpassed.append(f"{callee}({param}=)")
    return sorted(set(unpassed) - allowed)


def test_unpassed_parameter_checker():
    source = ("def f(a, b=1, c=2, *, d=3, e=4): pass\n"
              "class K:\n"
              "    def __init__(self, x=0, y=0): pass\n"
              "    def m(self, p=0, q=0): pass\n"
              "    @staticmethod\n"
              "    def s(u=0, v=0): pass\n"
              "def g(seam=None, *, spread=0): pass\n")
    calls = "f(0, 1, d=5)\nK(1).m(q=2)\nK.s(1)\ng(*[1], **{})\n"
    assert unpassed_parameters(source, passed_arguments(source + calls),
                               {"f(e=)"}) == ["K(y=)", "f(c=)", "m(p=)", "s(v=)"]


# a test seam: the tests pass a fake sleep to see the retry schedule
TEST_SEAMS = {"LlmClient(sleep=)"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_defaulted_parameter_is_passed(path):
    passed: dict[str, tuple[float, set[str]]] = {}
    for source in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        for callee, (count, keywords) in passed_arguments(source.read_text("utf-8")).items():
            most, known = passed.get(callee, (0, set()))
            passed[callee] = (max(most, count), known | keywords)
    assert unpassed_parameters(path.read_text("utf-8"), passed, TEST_SEAMS) == []


def test_every_exported_name_resolves():
    missing = [name for name in travelsat.__all__ if not hasattr(travelsat, name)]
    assert missing == []


def test_offline_run_does_not_import_requests(tmp_path):
    # nor the GBDT process pool's machinery, which only a baseline sweep or
    # an importance study loads
    script = (
        "import sys\n"
        "from travelsat.experiments import (ExperimentConfig, SyntheticSpec,\n"
        "    run_few_shot_sweep, run_zero_shot)\n"
        "for run in (run_zero_shot, run_few_shot_sweep):\n"
        "    run(ExperimentConfig(synthetic=SyntheticSpec(n=60, seed=7),\n"
        f"        cache_dir={str(tmp_path / 'cache')!r},\n"
        f"        out_dir={str(tmp_path)!r} + '/' + run.__name__))\n"
        "print([name for name in ('requests', 'multiprocessing',\n"
        "                         'concurrent.futures.process') if name in sys.modules])\n"
    )
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_no_subcommand_imports_scipy(tmp_path):
    script = (
        "import sys\n"
        "from travelsat.cli import main\n"
        f"tmp = {str(tmp_path)!r}\n"
        "assert main(['synth', '--n', '60', '--seed', '7', '--out', tmp + '/survey.csv']) == 0\n"
        "for command in ('zeroshot', 'fewshot', 'random-fewshot', 'baseline-sweep',\n"
        "                'importance'):\n"
        "    assert main([command, '--data', tmp + '/survey.csv', '--repeats', '2',\n"
        "                 '--out', tmp + '/' + command]) == 0\n"
        "assert main(['report', '--out', tmp + '/baseline-sweep']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def third_party_imports(source: str) -> set[str]:
    """The top-level modules source imports, at any depth, that are neither
    in the standard library nor relative."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names)


def test_third_party_import_checker():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from numpy.random import default_rng\n"
              "from .errors import DatasetError\n"
              "def send():\n"
              "    import requests\n")
    assert third_party_imports(source) == {"numpy", "requests"}


def test_declared_dependencies_are_the_imported_ones():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text("utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower()
                for spec in project["dependencies"]}
    imported = set().union(*(third_party_imports(path.read_text("utf-8"))
                             for path in PACKAGE.glob("*.py")))
    assert imported - {"travelsat"} == declared == {"numpy", "requests"}
