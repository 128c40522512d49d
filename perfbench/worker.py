"""One pass of one workload, in a fresh interpreter.

run.py starts this script once per pass with a JSON spec as its only
argument, in the run's work directory, and reads the JSON result it writes.
The spec carries the monotonic time at which run.py spawned the process, so
setup_s covers interpreter start, importing travelsat and building the
config, up to the first runner call. The program receives only the survey
CSV; the config is the default paper protocol with max_in_flight=2.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

RUNNERS = {
    "zeroshot": "run_zero_shot",
    "fewshot": "run_few_shot_sweep",
    "random-fewshot": "run_random_sweep",
    "baseline-sweep": "run_baseline_sweep",
    "importance": "run_importance_study",
}
MAX_IN_FLIGHT = 2
DATA_PATH = "survey.csv"


def tree_digest(root: Path) -> str:
    """sha256 over every file under root: relative path, then content."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\x00")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@dataclasses.dataclass
class Tally:
    """Work done and checked across the runners of one pass."""

    items: int = 0       # query records scored plus baseline cells answered
    attempted: int = 0   # trials, baseline cells and importance requests
    ok: int = 0
    refused: int = 0     # LR cells refused on a fold that is rank deficient
    problems: list = dataclasses.field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.attempted - self.ok - self.refused

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)


def lr_fold_is_rank_deficient(dataset, spec, fraction: float, seed: int) -> bool:
    """Whether one baseline cell's LR design, with an intercept, has
    dependent columns: the case in which fit_ols must raise RankError."""
    import numpy as np
    from travelsat.dataset import split
    from travelsat.encoding import design_matrix
    train, _ = split(dataset, fraction, seed=seed)
    X, _, _ = design_matrix(train, spec)
    A = np.hstack([np.ones((len(X), 1)), X])
    return int(np.linalg.matrix_rank(A)) < A.shape[1]


def check_outputs(runner: str, out: Path, config, n: int, tally: Tally) -> None:
    """Check one runner's artifacts against the protocol and count its work."""
    for name in ("summary.txt", "provenance.json"):
        tally.expect((out / name).is_file(), f"{runner}: missing {name}")
    if (out / "provenance.json").is_file():
        provenance = json.loads((out / "provenance.json").read_text("utf-8"))
        tally.expect(provenance["dataset"]["n"] == n,
                     f"{runner}: provenance has n={provenance['dataset']['n']}")
    repeats = config.repeats
    if runner in ("zeroshot", "fewshot", "random-fewshot"):
        rows = _read_csv(out / "report.csv")
        conditions = 1 if runner == "zeroshot" else len(config.support_sizes)
        queries = n if runner == "zeroshot" else n - round(config.train_fraction * n)
        ok = [r for r in rows if r["status"] == "ok"]
        scored = sum(int(r["n"]) for r in ok)
        tally.expect(len(rows) == conditions * repeats,
                     f"{runner}: {len(rows)} trials, expected {conditions * repeats}")
        tally.expect(scored == len(ok) * queries,
                     f"{runner}: {scored} records scored over {len(ok)} ok trials")
        tally.expect(len(_read_csv(out / "aggregate.csv")) == conditions,
                     f"{runner}: aggregate.csv row count")
        tally.expect((out / "reasoning").is_dir(), f"{runner}: no reasoning archive")
        if runner == "random-fewshot":
            tally.expect((out / "ks.csv").is_file(), f"{runner}: missing ks.csv")
        tally.items += scored
        tally.attempted += len(rows)
        tally.ok += len(ok)
    elif runner == "baseline-sweep":
        rows = _read_csv(out / "baseline.csv")
        expected = 2 * len(config.fractions) * repeats
        tally.expect(len(rows) == expected,
                     f"{runner}: {len(rows)} cells, expected {expected}")
        ok = [r for r in rows if r["status"] == "ok"]
        tally.expect(all(r["mse"] and r["mape"] for r in ok),
                     f"{runner}: ok cell without metrics")
        tally.expect(all(r["status"].startswith("failed:") for r in rows
                         if r["status"] != "ok"), f"{runner}: unknown cell status")
        tally.expect((out / "baseline_aggregate.csv").is_file(),
                     f"{runner}: missing baseline_aggregate.csv")
        # a cell counts as failed unless it is an LR cell that fit_ols was
        # right to refuse; rare levels missing from small folds do that
        rank_refusals = [r for r in rows if r["model"] == "lr"
                         and r["status"].startswith("failed: design matrix is rank deficient")]
        refused = 0
        if rank_refusals:
            from travelsat.encoding import fit_encoding
            from travelsat.experiments import load_dataset
            dataset = load_dataset(config)
            spec = fit_encoding(dataset)
            refused = sum(lr_fold_is_rank_deficient(dataset, spec, float(r["fraction"]),
                                                    config.seed + int(r["repeat"]))
                          for r in rank_refusals)
        # a right refusal is an answer too; how many there are depends on
        # the seed, and counting them keeps items fixed across seeds
        tally.items += len(ok) + refused
        tally.refused += refused
        tally.attempted += len(rows)
        tally.ok += len(ok)
    elif runner == "importance":
        rows = _read_csv(out / "importance.csv")
        vectors = {(r["model"], r["repeat"]) for r in rows}
        gbdt = sum(1 for model, _ in vectors if model == "gbdt")
        llm = len(vectors) - gbdt
        tally.expect(gbdt == repeats, f"{runner}: {gbdt} GBDT fits, expected {repeats}")
        tally.expect((out / "importance_tests.csv").is_file(),
                     f"{runner}: missing importance_tests.csv")
        tally.items += gbdt
        tally.attempted += 2 * repeats
        tally.ok += llm


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    sys.path.insert(0, spec["src"])
    from travelsat import experiments

    from backend import CountingBackend

    config = experiments.ExperimentConfig(data_path=DATA_PATH,
                                          max_in_flight=MAX_IN_FLIGHT)
    if spec["setup_only"]:
        setup_s = time.monotonic() - spec["spawn_t"]
        Path(spec["result"]).write_text(json.dumps({"setup_s": setup_s}))
        return 0

    clients, backends = [], []
    build_client = experiments.make_client

    def make_client(cfg, schema):
        client = build_client(cfg, schema)
        client.backend = CountingBackend(client.backend, spec["delay_s"])
        clients.append(client)
        backends.append(client.backend)
        return client

    experiments.make_client = make_client
    probe = None
    if spec["trace"]:
        from layers import LayerProbe
        probe = LayerProbe()
        probe.install()

    out = Path(spec["out"])
    runs = [(runner, getattr(experiments, RUNNERS[runner]),
             dataclasses.replace(config, out_dir=str(out / runner),
                                 cache_dir=spec["cache"]))
            for runner in spec["runners"]]
    setup_s = time.monotonic() - spec["spawn_t"]
    start = time.perf_counter()
    for _, run, cfg in runs:
        run(cfg)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # layer metrics first: the output check calls traced functions too
    layers = (probe.metrics(wall_s, clients, backends, MAX_IN_FLIGHT)
              if probe is not None else None)
    tally = Tally()
    for runner, _, cfg in runs:
        check_outputs(runner, out / runner, cfg, spec["n"], tally)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "requests": sum(c.transport_calls for c in clients),
        "prompt_tokens": sum(b.prompt_tokens for b in backends),
        "items": tally.items,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "peak_rss_mb": peak_rss_mb,
        "digests": {runner: tree_digest(out / runner) for runner, _, _ in runs},
    }
    if layers is not None:
        layers["experiments.failed_ratio"] = 1 - tally.ok / tally.attempted
        result["layers"] = layers
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
