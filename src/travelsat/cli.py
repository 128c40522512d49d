"""Command-line interface.

Subcommands cover the full pipeline: generate synthetic data, run zero-shot
and few-shot prediction sweeps (similarity-ranked or random support),
baseline model sweeps, the variable-importance study, and report rendering.
All prediction subcommands run against the scripted mock backend unless
--live is given; live runs read the API key from the environment.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from . import experiments
from .dataset import save_survey
from .errors import TravelSatError
from .experiments import ExperimentConfig, MockSpec, SyntheticSpec


def _add_shared(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON experiment config file")
    parser.add_argument("--data", dest="data_path",
                        help="survey CSV (otherwise synthetic data)")
    parser.add_argument("--schema", dest="schema_path",
                        help="JSON schema file (otherwise built-in)")
    parser.add_argument("--mock", metavar="RULE",
                        help="scripted mock backend rule (default: linear)")
    parser.add_argument("--mock-mode", choices=("nn", "rule"),
                        help="mock scoring mode (default: nn)")
    parser.add_argument("--live", action="store_true",
                        help="use the real LLM endpoint instead of the mock")
    parser.add_argument("--seed", type=int, help="experiment seed")
    parser.add_argument("--out", dest="out_dir", help="output directory for artifacts")
    parser.add_argument("--cache", dest="cache_dir", help="response cache directory")
    parser.add_argument("--batch-size", type=int, help="queries per prompt")
    parser.add_argument("--temperature", type=float, help="sampling temperature")
    parser.add_argument("--repeats", type=int, help="repeats per condition")
    parser.add_argument("--vary-split", action="store_true", default=None,
                        help="redraw the train/test split per repeat")
    parser.add_argument("--verbose", action="store_true")


# shared flags stored under their config key; an absent flag (None) or an
# empty string leaves the config's value
_OVERRIDES = ("data_path", "schema_path", "seed", "out_dir", "cache_dir",
              "batch_size", "repeats", "vary_split")


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    config = (experiments.load_config(args.config) if args.config
              else ExperimentConfig())
    updates = {key: getattr(args, key) for key in _OVERRIDES
               if getattr(args, key) not in (None, "")}
    if args.temperature is not None:
        updates["llm"] = dataclasses.replace(config.llm, temperature=args.temperature)
    if args.live:
        updates["mock"] = None
    elif args.mock or args.mock_mode:
        base = config.mock or MockSpec()
        updates["mock"] = dataclasses.replace(
            base,
            rule=args.mock or base.rule,
            mode=args.mock_mode or base.mode)
    return dataclasses.replace(config, **updates)


def _cmd_synth(args: argparse.Namespace) -> int:
    dataset = experiments.load_dataset(ExperimentConfig(
        schema_path=args.schema,
        synthetic=SyntheticSpec(n=args.n, seed=args.seed, label_rule=args.rule,
                                noise=args.noise, marginals_path=args.marginals)))
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    save_survey(dataset, args.out)
    print(f"wrote {len(dataset)} records to {args.out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    summary = experiments.render_report(args.out)
    print(summary, end="")
    return 0


# subcommand -> (runner, help text), in --help order
_RUNNERS = {
    "zeroshot": (experiments.run_zero_shot,
                 "score a dataset with no labeled examples"),
    "fewshot": (experiments.run_few_shot_sweep,
                "sweep support sizes with similarity-ranked support"),
    "random-fewshot": (experiments.run_random_sweep,
                       "sweep support sizes with random support and K-S checks"),
    "baseline-sweep": (experiments.run_baseline_sweep,
                       "LR and GBDT across train fractions"),
    "importance": (experiments.run_importance_study,
                   "compare LLM and GBDT variable importances"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="travelsat",
        description="Few-shot LLM travel satisfaction prediction and baselines")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic survey CSV")
    synth.add_argument("--n", type=int, default=874, help="number of records")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--rule", default="linear", help="label rule name")
    synth.add_argument("--noise", type=float, default=0.2,
                       help="label noise standard deviation")
    synth.add_argument("--marginals", help="JSON marginals file")
    synth.add_argument("--schema", help="JSON schema file")
    synth.add_argument("--out", required=True, help="output CSV path")
    synth.set_defaults(func=_cmd_synth)

    for name, (runner, help_text) in _RUNNERS.items():
        p = sub.add_parser(name, help=help_text)
        _add_shared(p)
        p.set_defaults(func=None, runner=runner)

    report = sub.add_parser("report", help="print the summary of a run directory")
    report.add_argument("--out", required=True, help="run directory")
    report.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.func is not None:
            return args.func(args)
        config = _build_config(args)
        summary = args.runner(config)
        print(summary, end="")
        print(f"\nartifacts in {config.out_dir}")
        return 0
    except (TravelSatError, OSError) as exc:
        # OSError: an output or cache path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
