"""travelsat benchmark: one workload per invocation, at paper scale (n=874).

Run from the repository root:

    python3 perfbench/run.py --workload llm-rerun --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --all --seed 0 --record perfbench/results/seed.json

The first form runs one workload and prints its end-to-end metrics (--trace
0) or its per-layer metrics (--trace 1); the last line of its output is one
JSON object. The second runs every workload both ways and prints one table.

Each pass of a workload is a fresh Python process (worker.py) that calls the
public runners in travelsat.experiments in-process on the offline mock, with
the default paper protocol and max_in_flight=2. The survey CSV is synthesized
from --seed with travelsat.synthesize; the program receives only the CSV.
Passes repeat while the next one is expected to end within --seconds, at
least once, and the run reports medians. A traced run adds one pass with
every layer wrapped from outside (layers.py), after one untraced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from backend import LATENCY_S
from layers import PER_LAYER

HERE = Path(__file__).resolve().parent
LLM_RUNNERS = ("zeroshot", "fewshot", "random-fewshot")

# name -> runners, backend delay per call, and whether the timed passes
# reread the cache of an untimed reference pass: the same runners on the
# instant mock, whose artifacts the timed passes must match. A CPU-bound
# workload on a shared host is steady only as a median over many short
# passes, so the cold LLM path runs untimed as llm-rerun's reference pass
# rather than as a workload of its own (see README.md).
WORKLOADS = {
    "llm-latency": dict(runners=("fewshot",), delay_s=LATENCY_S, reread=False),
    "llm-rerun": dict(runners=LLM_RUNNERS, delay_s=LATENCY_S, reread=True),
    "baselines": dict(runners=("baseline-sweep", "importance"), delay_s=0.0,
                      reread=False),
}

# (name, unit, better) of every end-to-end metric
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("requests", "count", "lower"),
    ("prompt_tokens", "count", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

PAPER_N = 874
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
MIN_SETUPS = 5
# a run, every pass included, ends within this many seconds
RUN_DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def checkout_root() -> Path:
    root = Path.cwd()
    if not (root / "src" / "travelsat" / "experiments.py").is_file():
        raise BenchError(f"{root}: no travelsat sources under src/; "
                         "run from the repository root")
    return root


def synthesize_csv(root: Path, path: Path, n: int, seed: int) -> None:
    sys.path.insert(0, str(root / "src"))
    from travelsat.dataset import save_survey
    from travelsat.synthesize import synthesize
    save_survey(synthesize(n, seed=seed, label_rule="linear", noise=0.2), path)


def spawn(work: Path, spec: dict, deadline: float) -> dict:
    """Run worker.py once with spec; returns the result it wrote."""
    result_path = work / f"result-{time.monotonic_ns()}.json"
    spec = dict(spec, result=str(result_path), spawn_t=time.monotonic())
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                          cwd=work, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result


def machine_record(root: Path, seed: int) -> dict:
    import numpy
    import scipy
    commit = None
    if (root / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": Path("/proc/loadavg").read_text().split()[:3],
        "commit": commit,
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 n: int = PAPER_N) -> dict:
    """Run one workload; returns metrics, digests and the machine record."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    root = checkout_root()
    workload = WORKLOADS[name]
    work = HERE / ".work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        synthesize_csv(root, work / "survey.csv", n, seed)
        machine = machine_record(root, seed)
        base = dict(src=str(root / "src"), n=n, runners=list(workload["runners"]),
                    trace=False, setup_only=False)

        def run_pass(tag: str, **overrides) -> dict:
            spec = dict(base, out=f"{tag}/out", cache=f"{tag}/cache",
                        delay_s=workload["delay_s"])
            spec.update(overrides)
            return spawn(work, spec, deadline)

        reference, reread = None, {}
        if workload["reread"]:
            reference = run_pass("reference", delay_s=0.0)
            reread = dict(cache="reference/cache")

        # stop before a pass that would end after `seconds`, so a run of a
        # workload whose pass outlasts half of it makes one pass
        passes = []
        start = time.monotonic()
        while not passes or (not trace and (time.monotonic() - start)
                             * (len(passes) + 1) / len(passes) <= seconds):
            passes.append(run_pass(f"pass{len(passes)}", **reread))
        setups = [p["setup_s"] for p in passes + [reference] if p is not None]
        while len(setups) < MIN_SETUPS:
            setups.append(spawn(work, dict(base, setup_only=True), deadline)["setup_s"])
        traced = run_pass("traced", trace=True, **reread) if trace else None
        machine["loadavg_end"] = Path("/proc/loadavg").read_text().split()[:3]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    everything = passes + [p for p in (reference, traced) if p is not None]
    problems = [msg for p in everything for msg in p["problems"]]
    digests = passes[0]["digests"]
    problems += [f"artifact digests differ between passes: {p['digests']}"
                 for p in everything if p["digests"] != digests]

    def med(key: str) -> float:
        return statistics.median(p[key] for p in passes)

    # requests and tokens count what a cold start costs: for a workload that
    # rereads a cache, the requests that filled it
    fill = reference or {"requests": 0, "prompt_tokens": 0}

    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": med("wall_s"),
        "items_per_s": statistics.median(p["items"] / p["wall_s"] for p in passes),
        "requests": med("requests") + fill["requests"],
        "prompt_tokens": med("prompt_tokens") + fill["prompt_tokens"],
        "peak_rss_mb": med("peak_rss_mb"),
    }
    layers = None
    if traced is not None:
        layers = dict(traced["layers"], **{
            "trace.wall_s": traced["wall_s"],
            "trace.overhead_s": traced["wall_s"] - metrics["wall_s"]})
    return {
        "workload": name,
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in everything),
        "failed": sum(p["failed"] for p in everything),
        "problems": problems,
        "passes": len(passes),
        "setups": len(setups),
        "metrics": metrics,
        "layers": layers,
        "digests": digests,
        "machine": machine,
    }


def _fmt(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return str(int(value))


def print_result(result: dict, trace: bool) -> None:
    print(f"workload {result['workload']}: {result['passes']} passes, "
          f"{result['setups']} set-ups, correct={result['correct']}")
    for problem in result["problems"]:
        print(f"  PROBLEM {problem}")
    table = PER_LAYER if trace else END_TO_END
    values = result["layers"] if trace else result["metrics"]
    for name, unit, _ in table:
        print(f"  {name:<44} {_fmt(values[name]):>14} {unit}")
    print("digests " + json.dumps(result["digests"], sort_keys=True))
    print("machine " + json.dumps(result["machine"], sort_keys=True))


def contract_line(result: dict, trace: bool) -> str:
    table = PER_LAYER if trace else END_TO_END
    values = result["layers"] if trace else result["metrics"]
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in table},
    })


def run_all(seed: int, seconds: float, record: Path | None) -> bool:
    results = {}
    for name in WORKLOADS:
        untraced = run_workload(name, seed, seconds, trace=False)
        traced = run_workload(name, seed, seconds, trace=True)
        results[name] = {**untraced, "layers": traced["layers"],
                         "correct": untraced["correct"] and traced["correct"],
                         "problems": untraced["problems"] + traced["problems"],
                         "traced_run": traced}
        print_result(results[name], trace=False)
    # the latency backend must not change a single byte: llm-rerun's passes
    # already match its reference pass on the instant mock
    latency, rerun = results["llm-latency"], results["llm-rerun"]
    if latency["digests"]["fewshot"] != rerun["digests"]["fewshot"]:
        latency["correct"] = False
        latency["problems"].append("fewshot differs from llm-rerun")
    names = list(results)
    print()
    print(f"{'metric':<44} {'unit':<6} " + " ".join(f"{n:>12}" for n in names))
    for table, key in ((END_TO_END, "metrics"), (PER_LAYER, "layers")):
        for metric, unit, _ in table:
            print(f"{metric:<44} {unit:<6} "
                  + " ".join(f"{_fmt(results[n][key][metric]):>12}" for n in names))
    if record is not None:
        record.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return all(r["correct"] for r in results.values())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path,
                        help="with --all, write every result to this JSON file")
    args = parser.parse_args(argv)
    if not args.all and not args.workload:
        parser.error("give --workload or --all")
    try:
        if args.all:
            return 0 if run_all(args.seed, args.seconds, args.record) else 1
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print_result(result, bool(args.trace))
    print(contract_line(result, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
