"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload llm-rerun --seeds 1 2 3 4 5
    python3 perfbench/spread.py --workload baselines --seeds 0 0 0 0 0 \
        --record perfbench/results/spread-baselines-seed0.json

Runs run.py once per seed (untraced, with BENCHMARK.json's run_seconds) and
prints, per metric, the median and the distance between the first and third
quartiles as a share of the median, next to the metric's bound. Repeating a
seed measures repeats of one input. A benchmark is steady enough when each
share stays below a third of its bound. setup_s is shown but not judged:
its bound limits how much the median may grow from one commit to the next,
not the spread across runs. --record writes every run's last output line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--record", type=Path,
                        help="write the seeds and every run's result to this JSON file")
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "result": result})
        if not result["correct"]:
            print(proc.stdout, file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              flush=True)
    if args.record is not None:
        args.record.write_text(json.dumps(
            {"workload": args.workload, "run_seconds": spec["run_seconds"],
             "runs": runs}, indent=1) + "\n")
    steady = True
    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        share = (q3 - q1) / median
        ok = share < metric["bound"] / 3
        judged = metric["name"] != "setup_s"
        steady &= ok or not judged
        verdict = ("ok" if ok else "WIDE") + ("" if judged else " (not judged)")
        print(f"{metric['name']:<14} median {median:<12.6g} spread {share:.4f} "
              f"bound {metric['bound']:<5} {verdict}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
