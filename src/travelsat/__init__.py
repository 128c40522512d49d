"""Few-shot LLM prediction of travel satisfaction, with baselines.

The package covers the full pipeline: survey ingest and encoding, synthetic
data generation, support-set selection, prompt rendering and parsing, a
caching LLM client with a scripted offline mock, linear and boosted-tree
baselines, metrics and significance tests, and an experiment orchestrator
with a CLI.
"""

__version__ = "0.1.0"

from .dataset import Dataset, RespondentRecord, load_survey, split
from .encoding import EncodingSpec, fit_encoding
from .evaluation import aggregate_repeats, mape, mse, welch_t
from .schema import VariableSchema, default_schema
from .selection import ks_two_sample, random_support, rank_support
from .synthesize import synthesize

__all__ = [
    "Dataset",
    "RespondentRecord",
    "VariableSchema",
    "EncodingSpec",
    "load_survey",
    "split",
    "fit_encoding",
    "default_schema",
    "synthesize",
    "rank_support",
    "random_support",
    "ks_two_sample",
    "mse",
    "mape",
    "welch_t",
    "aggregate_repeats",
    "__version__",
]
